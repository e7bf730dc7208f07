"""Capacity, node efficiency, edge efficiency, and scaling reports.

Every metric is a ratio of a run's integer counts, the ones the
``activity`` block of a dataset line holds (``trajectory.activity_summary``),
so a written dataset's metrics follow from its lines without re-running the
machine.  ``size_record`` builds no summary: it folds each run straight
into its counts, ``machine.RunCounts``, one layer at a time
(``machine.fold_counts``: the one run loop, ``machine.layers``, steps a
``machine.LiveState`` in place, and each layer is counted by the summary's
own rule, ``machine.layer_counter``), and it adds those counts into the size's integer totals.  Each float of a
``SizeRecord`` is one division of those totals, so it is the correctly
rounded value of its rational, whatever the order of the runs and the
interpreter.

Capacity is width x depth.  Node efficiency divides the executed operation
count by capacity (the share of node-layer slots doing useful work); the
graph-feature update counts as one extra operation per layer and is also
reported excluded (``eta_nodes``).  A run's edge efficiency is the mean
share of its m edges active in a layer, ``edges / (m x depth)``, reported
as the minimum over the sampled inputs (the worst-case estimator) and the
mean.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algorithms import run, spec_for
from .canonical import dumps_canonical
from .harness import exhaustive_instances, generate_instance, labelled_failure, sample_seed
from .machine import fold_counts


class SizeRecord(NamedTuple):
    """Aggregated metrics for one algorithm at one input size."""

    n: int
    m: float
    width: int
    depth: float
    capacity: float
    op_total: float
    eta: float
    eta_nodes: float
    eps_min: float
    eps_mean: float
    edge_max: int
    edge_mean: float
    zero_depth: int


class EfficiencyReport(NamedTuple):
    algo: str
    records: tuple[SizeRecord, ...]
    slopes: dict
    classes: dict


# Asymptotic classes, per task family, to annotate fitted slopes with.
_CAPACITY_CLASSES = {
    "search": (("n", lambda n, m: n), ("n log n", lambda n, m: n * math.log2(max(n, 2)))),
    "sort": (("n^2", lambda n, m: n**2), ("n^3", lambda n, m: n**3)),
    "scc": (
        ("n+m", lambda n, m: n + m),
        ("n(n+m)", lambda n, m: n * (n + m)),
        ("n^3", lambda n, m: n**3),
    ),
}
_ETA_CLASSES = (("1", lambda n, m: 1.0), ("n^-1", lambda n, m: 1.0 / n))
_EPS_CLASSES = {
    "search": (("1", lambda n, m: 1.0), ("n^-2", lambda n, m: n**-2.0)),
    "sort": (("n^-1", lambda n, m: 1.0 / n), ("n^-2", lambda n, m: n**-2.0)),
    "scc": (("m^-1", lambda n, m: 1.0 / max(m, 1.0)), ("1", lambda n, m: 1.0)),
}


def _loglog_slope(ns, values) -> float | None:
    """Least-squares slope of log(value) on log(n): the centred sums
    S(x - x_mean)(y - y_mean) / S(x - x_mean)^2, each taken by ``math.fsum``.

    y is measured from its first value, which leaves the slope as it is and
    makes a constant series fit to exactly 0.0.
    """
    if any(v <= 0 for v in values):
        return None
    xs = [math.log(n) for n in ns]
    y0 = math.log(values[0])
    ys = [math.log(v) - y0 for v in values]
    x_mean = math.fsum(xs) / len(xs)
    y_mean = math.fsum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    return math.fsum(dx * (y - y_mean) for dx, y in zip(dxs, ys)) / math.fsum(
        dx * dx for dx in dxs
    )


def _nearest_class(ns, ms, measured_slope, candidates) -> str | None:
    if measured_slope is None:
        return None
    best = None
    best_gap = None
    for label, fn in candidates:
        slope = _loglog_slope(ns, [fn(n, m) for n, m in zip(ns, ms)])
        gap = abs(measured_slope - slope)
        if best_gap is None or gap < best_gap:
            best, best_gap = label, gap
    return best


def size_record(
    algo_id: str,
    n: int,
    samples_per_n: int,
    seed: int,
    *,
    exhaustive: bool = False,
) -> SizeRecord:
    """Run the algorithm on one size's inputs and aggregate their metrics.

    eta is a ratio of means: mean operations over mean capacity.  eps_mean
    is the exact sum of the runs' rationals ``edges / (m x depth)`` divided
    once by the run count, and eps_min the least of them, compared by
    cross-multiplication.
    """
    if samples_per_n < 1:
        raise ValueError("samples_per_n must be >= 1")
    if exhaustive:
        master, instances = None, exhaustive_instances(algo_id, n)
    else:
        master = seed
        # drawn as they are run, so a size holds one instance at a time
        instances = (
            generate_instance(algo_id, n, sample_seed(seed, algo_id, n, i)) for i in range(samples_per_n)
        )
    # each run is folded into its counts layer by layer and they into the
    # size's integer totals, so a size holds one machine state at a time;
    # eps_min starts at 1/0, above every run's; k ends as the run count
    layers = caps = ops = nodes = ms = edge_max = edge_total = zero_depth = 0
    eps_num, eps_den, min_num, min_den = 0, 1, 1, 0
    for k, inst in enumerate(instances, 1):
        with labelled_failure(algo_id, n, k - 1, master):
            counts = run(algo_id, inst, fold=fold_counts)[1]
        width = counts.width
        layers += counts.depth
        caps += width * counts.depth
        ops += counts.ops
        nodes += counts.nodes
        ms += counts.m
        # edges is 0 whenever m x depth is
        num, den = counts.edges, counts.m * counts.depth or 1
        if num * min_den < min_num * den:
            min_num, min_den = num, den
        eps_num, eps_den = eps_num * den + num * eps_den, eps_den * den
        common = math.gcd(eps_num, eps_den)
        eps_num, eps_den = eps_num // common, eps_den // common
        edge_max = max(edge_max, counts.edge_max)
        edge_total += counts.edges
        zero_depth += counts.depth == 0
        del counts  # freed before the next run, not after
    return SizeRecord(
        n=n,
        m=ms / k,
        width=width,
        depth=layers / k,
        capacity=caps / k,
        op_total=ops / k,
        eta=ops / caps if caps else 1.0,
        eta_nodes=nodes / caps if caps else 1.0,
        eps_min=min_num / min_den,
        eps_mean=eps_num / (eps_den * k),
        edge_max=edge_max,
        edge_mean=edge_total / layers if layers else 0.0,
        zero_depth=zero_depth,
    )


def scaling_report(
    algo_id: str,
    n_list: list[int],
    samples_per_n: int,
    seed: int,
    *,
    exhaustive: bool = False,
) -> EfficiencyReport:
    """Run the algorithm across sizes and aggregate metrics per size.

    With ``exhaustive`` the sampled inputs are replaced by the whole input
    space (searching: every rank position; sorting: every permutation;
    n <= 6), so eps_min is the true worst case over that space.
    """
    if list(n_list) != sorted(set(n_list)) or len(n_list) < 3:
        raise ValueError("n_list must be ascending with at least 3 sizes")
    family = spec_for(algo_id).family
    records = [size_record(algo_id, n, samples_per_n, seed, exhaustive=exhaustive) for n in n_list]
    ns = [r.n for r in records]
    ms = [max(r.m, 1.0) for r in records]
    slopes = {
        "capacity": _loglog_slope(ns, [r.capacity for r in records]),
        "depth": _loglog_slope(ns, [r.depth for r in records]),
        "eta": _loglog_slope(ns, [r.eta for r in records]),
        "eps": _loglog_slope(ns, [r.eps_mean for r in records]),
    }
    classes = {
        "capacity": _nearest_class(ns, ms, slopes["capacity"], _CAPACITY_CLASSES[family]),
        "eta": _nearest_class(ns, ms, slopes["eta"], _ETA_CLASSES),
        "eps": _nearest_class(ns, ms, slopes["eps"], _EPS_CLASSES[family]),
    }
    return EfficiencyReport(algo_id, tuple(records), slopes, classes)


def report_ndjson(report: EfficiencyReport) -> bytes:
    lines = []
    for rec in report.records:
        obj = {"algo": report.algo}
        obj.update(rec._asdict())
        lines.append(dumps_canonical(obj))
    lines.append(
        dumps_canonical(
            {"algo": report.algo, "summary": {"classes": report.classes, "slopes": report.slopes}}
        )
    )
    return ("\n".join(lines) + "\n").encode("utf-8")


def render_table(*reports: EfficiencyReport) -> str:
    """One aligned table, one row per size record of each report."""
    header = ("algo", "n", "m", "width", "depth", "capacity", "eta", "eps_min", "eps_mean", "class")
    rows = [header]
    for report in reports:
        for rec in report.records:
            rows.append(
                (
                    report.algo,
                    str(rec.n),
                    f"{rec.m:g}",
                    str(rec.width),
                    f"{rec.depth:g}",
                    f"{rec.capacity:g}",
                    f"{rec.eta:.4f}",
                    f"{rec.eps_min:.5f}",
                    f"{rec.eps_mean:.5f}",
                    report.classes.get("capacity") or "-",
                )
            )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    out = []
    for row in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(out)
