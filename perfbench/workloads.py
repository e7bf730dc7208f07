"""The three workloads of the pramtraj benchmark: set-up, jobs and checks.

A workload is a list of `pramtraj` CLI jobs. An operation is one job
together with the checks of its output. Every check is computed here from
the job's own inputs, without calling pramtraj: a linear scan for search
ranks, a comparison sort for sorting chains, reachability for SCC
partitions, and the depth and width laws of the six algorithms for
`analyze` records.

The workload seed becomes the `--seed` argument of every job; the program
sees nothing else of it. The two corrupt `validate` files are built from a
fixed seed, so that the one operation that fails today fails on every seed.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ALGOS = ("parallel_search", "binary_search", "oets", "bubble_sort", "dcsc", "kosaraju")
PARALLEL_PARTNER = {"binary_search": "parallel_search", "bubble_sort": "oets"}

# (sizes, samples per size) of each gen job. CLRS setup: train at n=16, test
# at n=64. Samples are set so that each job does more than start the
# interpreter. bubble_sort tests at n=32: one n=64 sample is 8.7 MB of hints
# and costs 5 s CPU and 774 MB in one process, and a round dominated by that
# one process varied by 10% from process to process.
GEN_JOBS = {
    "parallel_search": ((16, 64), 32),
    "binary_search": ((16, 64), 32),
    "oets": ((16, 64), 8),
    "bubble_sort": ((16, 32), 2),
    "dcsc": ((16, 64), 8),
    "kosaraju": ((16, 64), 8),
}
# geometric grid of scripts/reproduce_classes.py; it starts at 8 because at
# n=4 binary search can halt after 2 layers, level with parallel_search
ANALYZE_SIZES = (8, 16, 32, 64, 128)
ANALYZE_SAMPLES = 8
# base of the corrupt validate files: fixed, not the workload seed
CORRUPT_SEED = 0
CORRUPT_SAMPLES = 4


@dataclass
class Result:
    """What one job left behind."""

    code: int
    stdout: str
    stderr: str
    cpu_s: float
    rss_mb: float


class JobFailed(Exception):
    """The program crashed or exited with a status the job does not expect."""


class WrongOutput(Exception):
    """The program finished, but its output disagrees with the reference."""


@dataclass
class Job:
    argv: list[str]
    # raises JobFailed or WrongOutput; returns (samples, machine layers)
    check: Callable[[Result], tuple[int, int]]


Runner = Callable[[list[str]], Result]


def expect_exit(result: Result, code: int) -> None:
    if "Traceback" in result.stderr:
        last = result.stderr.strip().splitlines()[-1]
        raise JobFailed(f"traceback: {last}")
    if result.code != code:
        raise JobFailed(f"exit {result.code}, expected {code}: {result.stderr.strip()[-200:]}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongOutput(message)


# ---------------------------------------------------------------------------
# independent references


def search_rank(items: list[float], x: float) -> int:
    """min{i : items[i] <= x}, or n when no item qualifies."""
    return next((i for i, v in enumerate(items) if v <= x), len(items))


def sorted_chain(items: list[float]) -> list[int]:
    """Predecessor pointers along the ascending order; the head points at itself."""
    order = sorted(range(len(items)), key=items.__getitem__)
    pred = [0] * len(items)
    pred[order[0]] = order[0]
    for prev, node in zip(order, order[1:]):
        pred[node] = prev
    return pred


def scc_partition(adj: list[list[float]]) -> set[frozenset[int]]:
    """Strongly connected components by mutual reachability over a dense matrix."""
    n = len(adj)
    out = [[v for v in range(n) if adj[u][v] == 1.0] for u in range(n)]
    reach = []
    for u in range(n):
        seen = {u}
        todo = [u]
        while todo:
            for v in out[todo.pop()]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        reach.append(seen)
    return {frozenset(v for v in reach[u] if u in reach[v]) for u in range(n)}


def depth_law(algo: str, n: int, depth: float) -> bool:
    """The layer count each algorithm is bound to at size n (none for SCC)."""
    return {
        "parallel_search": depth == 2,
        "binary_search": depth <= math.ceil(math.log2(n)) + 1,
        "oets": depth <= n,
        "bubble_sort": depth == n * (n - 1) // 2,
    }.get(algo, True)


def check_output(algo: str, sample: dict, where: str) -> None:
    inputs, outputs = sample["inputs"], sample["outputs"]
    if algo in ("parallel_search", "binary_search"):
        want = search_rank(inputs["items"], inputs["x"])
        _require(outputs["rank"] == want, f"{where}: rank {outputs['rank']}, reference {want}")
    elif algo in ("oets", "bubble_sort"):
        want = sorted_chain(inputs["items"])
        _require(outputs["pred"] == want, f"{where}: pred differs from the sorted chain")
    else:
        ptr = outputs["scc_ptr"]
        groups: dict[int, set[int]] = {}
        for node, rep in enumerate(ptr):
            groups.setdefault(rep, set()).add(node)
        got = {frozenset(g) for g in groups.values()}
        _require(
            got == scc_partition(inputs["adj_directed"]) and all(ptr[r] == r for r in groups),
            f"{where}: scc_ptr is not the SCC partition of adj_directed",
        )


def check_dataset(path: Path, algo: str, sizes, per_size: int, seed: int) -> tuple[int, int]:
    """Every line is stdlib JSON, in (n, index) order, with outputs equal to the
    reference, one hint frame per activity step and a depth within the
    algorithm's law. Returns (samples, frames)."""
    schema = path.with_suffix(".schema").read_text(encoding="utf-8").splitlines()
    _require(
        bool(schema) and all(json.loads(line)["algo"] == algo for line in schema),
        f"{path.name}: schema sidecar does not name {algo}",
    )
    expected = [(n, i) for n in sizes for i in range(per_size)]
    frames = 0
    count = 0
    with path.open(encoding="utf-8") as lines:
        for count, line in enumerate(lines, start=1):
            _require(count <= len(expected), f"{path.name}: more than {len(expected)} lines")
            sample = json.loads(line)
            n, index = expected[count - 1]
            where = f"{path.name} line {count}"
            _require(
                sample["algo"] == algo
                and sample["n"] == n
                and sample["seed"]["index"] == index
                and sample["seed"]["master"] == seed,
                f"{where}: expected {algo} n={n} index={index} master={seed}",
            )
            depth = len(sample["activity"]["steps"])
            _require(len(sample["hints"]) == depth, f"{where}: hint count != activity depth")
            _require(depth_law(algo, n, depth), f"{where}: depth {depth} breaks the depth law")
            check_output(algo, sample, where)
            frames += depth
    _require(count == len(expected), f"{path.name}: {count} lines, expected {len(expected)}")
    return count, frames


# ---------------------------------------------------------------------------
# workloads


def _gen_argv(algo: str, seed: int, out: Path) -> list[str]:
    sizes, samples = GEN_JOBS[algo]
    return ["gen", "--algo", algo, "--n-list", ",".join(map(str, sizes)), "--samples", str(samples),
            "--seed", str(seed), "--out", str(out)]


def _warm_up(run: Runner) -> None:
    """One `pramtraj --help`: compiles the bytecode and proves the CLI starts."""
    result = run(["--help"])
    expect_exit(result, 0)
    _require(result.stdout.startswith("usage: pramtraj"), "--help printed no usage")


def setup_gen(workdir: Path, seed: int, run: Runner) -> list[Job]:
    _warm_up(run)
    jobs = []
    for algo in ALGOS:
        out = workdir / f"gen-{algo}.ndjson"
        sizes, samples = GEN_JOBS[algo]

        def check(result: Result, algo=algo, out=out, sizes=sizes, samples=samples) -> tuple[int, int]:
            expect_exit(result, 0)
            total = len(sizes) * samples
            _require(result.stdout.startswith(f"wrote {total} samples"), f"gen {algo}: {result.stdout!r}")
            return check_dataset(out, algo, sizes, samples, seed)

        jobs.append(Job(_gen_argv(algo, seed, out), check))
    return jobs


def _corrupt(base: Path, out: Path, edit: Callable[[list[dict]], None]) -> None:
    samples = [json.loads(line) for line in base.read_text(encoding="utf-8").splitlines()]
    edit(samples)
    out.write_text("".join(json.dumps(s, sort_keys=True) + "\n" for s in samples), encoding="utf-8")
    shutil.copyfile(base.with_suffix(".schema"), out.with_suffix(".schema"))


def _set_mask_cell(samples: list[dict]) -> None:
    samples[1]["hints"][0]["values"]["leq_mask"][0] = 2


def _box_pos_entry(samples: list[dict]) -> None:
    pos = samples[0]["inputs"]["pos"]
    pos[3] = [pos[3]]


def setup_validate(workdir: Path, seed: int, run: Runner) -> list[Job]:
    """Makes one clean dataset per algorithm with `gen` (the gen workload's
    jobs), plus two corrupt parallel_search files from a fixed seed."""
    jobs = []
    for algo in ALGOS:
        path = workdir / f"clean-{algo}.ndjson"
        expect_exit(run(_gen_argv(algo, seed, path)), 0)
        with path.open(encoding="utf-8") as lines:
            counts = [len(json.loads(line)["hints"]) for line in lines]
        tally = (len(counts), sum(counts))

        def check(result: Result, tally=tally) -> tuple[int, int]:
            expect_exit(result, 0)
            last = result.stdout.strip().splitlines()[-1]
            _require(last == f"ok: {tally[0]} samples, zero violations", f"validate clean: {last!r}")
            return tally

        jobs.append(Job(["validate", "--in", str(path)], check))

    base = workdir / "base.ndjson"
    expect_exit(run(["gen", "--algo", "parallel_search", "--n", "16", "--samples",
                     str(CORRUPT_SAMPLES), "--seed", str(CORRUPT_SEED), "--out", str(base)]), 0)
    frames = 2 * CORRUPT_SAMPLES  # parallel_search always takes two layers

    domain = workdir / "domain.ndjson"
    _corrupt(base, domain, _set_mask_cell)

    def check_domain(result: Result) -> tuple[int, int]:
        expect_exit(result, 1)
        lines = result.stdout.strip().splitlines()
        _require("line 2: hints[0].leq_mask: mask domain" in lines, f"no mask violation: {lines}")
        _require(lines[-1] == f"1 violations in {CORRUPT_SAMPLES} samples", f"verdict {lines[-1]!r}")
        return CORRUPT_SAMPLES, frames

    boxed = workdir / "boxed-pos.ndjson"
    _corrupt(base, boxed, _box_pos_entry)

    def check_boxed(result: Result) -> tuple[int, int]:
        # fails today: validate_sample dies on len(set(pos)) with a TypeError
        expect_exit(result, 1)
        lines = result.stdout.strip().splitlines()
        _require(any(line.startswith("line 1: inputs.pos") for line in lines), f"no pos violation: {lines}")
        return CORRUPT_SAMPLES, frames

    jobs.append(Job(["validate", "--in", str(domain)], check_domain))
    jobs.append(Job(["validate", "--in", str(boxed)], check_boxed))
    return jobs


def _analyze_laws(algo: str, rec: dict) -> None:
    n, depth, width = rec["n"], rec["depth"], rec["width"]
    where = f"analyze {algo} n={n}"
    want_width = {"parallel_search": n + 1, "binary_search": n + 1, "kosaraju": 1}.get(algo, n)
    _require(width == want_width, f"{where}: width {width}, expected {want_width}")
    _require(math.isclose(rec["capacity"], width * depth, rel_tol=1e-12), f"{where}: capacity != width*depth")
    _require(depth_law(algo, n, depth), f"{where}: mean depth {depth} breaks the depth law")


def setup_analyze(workdir: Path, seed: int, run: Runner) -> list[Job]:
    _warm_up(run)
    depths: dict[str, dict[int, float]] = {}
    jobs = []
    for algo in ALGOS:

        def check(result: Result, algo=algo) -> tuple[int, int]:
            expect_exit(result, 0)
            lines = [json.loads(line) for line in result.stdout.splitlines() if line.startswith("{")]
            records = [rec for rec in lines if "summary" not in rec]
            _require([rec["n"] for rec in records] == list(ANALYZE_SIZES), f"analyze {algo}: sizes")
            _require(len(lines) == len(records) + 1, f"analyze {algo}: no summary record")
            for rec in records:
                _require(rec["algo"] == algo, f"analyze {algo}: record of {rec['algo']}")
                _analyze_laws(algo, rec)
            depths[algo] = {rec["n"]: rec["depth"] for rec in records}
            partner = PARALLEL_PARTNER.get(algo)
            if partner is not None:
                fewer = all(depths[partner][n] < depths[algo][n] for n in ANALYZE_SIZES)
                _require(fewer, f"{partner} is not shallower than {algo} at every n")
            layers = sum(rec["depth"] for rec in records) * ANALYZE_SAMPLES
            return len(records) * ANALYZE_SAMPLES, round(layers)

        argv = ["analyze", "--algo", algo, "--n-list", ",".join(map(str, ANALYZE_SIZES)),
                "--samples", str(ANALYZE_SAMPLES), "--seed", str(seed)]
        jobs.append(Job(argv, check))
    return jobs


SETUP = {"gen": setup_gen, "validate": setup_validate, "analyze": setup_analyze}
