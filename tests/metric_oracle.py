"""The metric oracle of the tests: capacity, node and edge efficiency read
off ``activity`` blocks, exactly, as ``Fraction``.

It takes each layer from the block's per-layer list and never folds a run
into counts, so it is a reference that ``efficiency.size_record`` (which
folds each run with ``machine.fold_counts``) is checked against.
"""

from fractions import Fraction


def capacity(activity: dict) -> int:
    return activity["width"] * len(activity["steps"])


def node_efficiency(activity: dict) -> Fraction:
    """Operations per node-layer slot; a zero-depth run counts as 1."""
    if not activity["steps"]:
        return Fraction(1)
    return Fraction(sum(step["ops"] for step in activity["steps"]), capacity(activity))


def edge_shares(activity: dict) -> list[Fraction]:
    """Active edges per layer as a share of the m operated edges."""
    m = activity["m"]
    return [Fraction(step["edges"], m) if m else Fraction(0) for step in activity["steps"]]


def edge_efficiency(activity: dict) -> Fraction:
    """The mean of a run's layer shares; 0 for a zero-depth run."""
    shares = edge_shares(activity)
    return sum(shares) / len(shares) if shares else Fraction(0)


def run_counts(activity: dict) -> dict:
    """The counts of one run that ``machine.RunCounts`` holds."""
    steps = activity["steps"]
    edges = [step["edges"] for step in steps]
    return {
        "width": activity["width"],
        "m": activity["m"],
        "depth": len(steps),
        "ops": sum(step["ops"] for step in steps),
        "nodes": sum(step["nodes"] for step in steps),
        "edges": sum(edges),
        "edge_max": max(edges, default=0),
    }


def size_figures(n: int, activities: list[dict]) -> dict:
    """Every field of the ``SizeRecord`` of one size's runs, the float
    fields as their correctly rounded exact values."""
    k = len(activities)
    runs = [run_counts(activity) for activity in activities]
    caps = sum(capacity(activity) for activity in activities)
    layers = sum(run["depth"] for run in runs)
    ops = sum(run["ops"] for run in runs)
    nodes = sum(run["nodes"] for run in runs)
    eps = [edge_efficiency(activity) for activity in activities]
    exact = {
        "m": Fraction(sum(run["m"] for run in runs), k),
        "depth": Fraction(layers, k),
        "capacity": Fraction(caps, k),
        "op_total": Fraction(ops, k),
        "eta": Fraction(ops, caps) if caps else Fraction(1),
        "eta_nodes": Fraction(nodes, caps) if caps else Fraction(1),
        "eps_min": min(eps),
        "eps_mean": sum(eps) / k,
        "edge_mean": Fraction(sum(run["edges"] for run in runs), layers) if layers else Fraction(0),
    }
    figures = {name: float(value) for name, value in exact.items()}
    figures.update(
        n=n,
        width=runs[-1]["width"],
        edge_max=max(run["edge_max"] for run in runs),
        zero_depth=sum(run["depth"] == 0 for run in runs),
    )
    return figures
