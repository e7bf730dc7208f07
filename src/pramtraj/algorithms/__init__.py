"""The registry of the six algorithms: three parallel/sequential pairs on the
machine substrate.

Every other module looks an algorithm up here and holds no per-algorithm
table of its own.  The registry is a static table of each algorithm's home
module: ``spec_for`` imports that module on first use and reads the spec it
defines under the algorithm's name in capitals (``oets`` is
``sorting.OETS``), so a command compiles only the algorithm it runs.
"""

from __future__ import annotations

from importlib import import_module

from ..machine import Fold, fold_trace
from ..spec import AlgorithmSpec

# algorithm -> (its home module, the spec's name there), in each module's PAIR
# order (parallel, sequential).  The names are made once: CPython's attribute
# cache keeps the name string of a getattr, so one made per lookup stays alive.
_HOMES = {
    name: (f"{__name__}.{home}", name.upper())
    for name, home in (
        ("parallel_search", "search"),
        ("binary_search", "search"),
        ("oets", "sorting"),
        ("bubble_sort", "sorting"),
        ("dcsc", "scc"),
        ("kosaraju", "scc"),
    )
}

ALGORITHMS = tuple(_HOMES)

# task family -> (sequential, parallel)
PAIRS = {
    "search": ("binary_search", "parallel_search"),
    "sort": ("bubble_sort", "oets"),
    "scc": ("kosaraju", "dcsc"),
}


def spec_for(algo_id: str) -> AlgorithmSpec:
    """The registered spec of one algorithm, its home module imported on
    first use; ValueError for an unknown name."""
    try:
        home, name = _HOMES[algo_id]
    except KeyError:
        raise ValueError(f"unknown algorithm {algo_id!r}") from None
    return getattr(import_module(home), name)


def run(algo_id: str, instance, fold: Fold = fold_trace):
    """Run one of the six algorithms; returns (output, the run folded by
    ``fold``): a ``Trace`` by default, ``RunCounts`` with ``fold_counts``."""
    return spec_for(algo_id).run(instance, fold)


__all__ = ["ALGORITHMS", "PAIRS", "run", "spec_for"]
