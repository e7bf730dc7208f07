"""The three parallel/sequential algorithm pairs on the machine substrate.

``SPECS`` is the one registry of the six algorithms: every other module
looks an algorithm up here and holds no per-algorithm table of its own.
"""

from __future__ import annotations

from ..machine import Fold, fold_trace
from ..spec import AlgorithmSpec
from . import scc, search, sorting
from .search import SearchInstance, binary_search, parallel_search
from .sorting import SortInstance, bubble_sort, oets_sort
from .scc import dcsc, kosaraju

_PAIRS = (search.PAIR, sorting.PAIR, scc.PAIR)  # (parallel, sequential) per task

SPECS: dict[str, AlgorithmSpec] = {spec.name: spec for pair in _PAIRS for spec in pair}

ALGORITHMS = tuple(SPECS)

# task family -> (sequential, parallel)
PAIRS = {par.family: (seq.name, par.name) for par, seq in _PAIRS}


def spec_for(algo_id: str) -> AlgorithmSpec:
    """The registered spec of one algorithm; ValueError for an unknown name."""
    try:
        return SPECS[algo_id]
    except KeyError:
        raise ValueError(f"unknown algorithm {algo_id!r}") from None


def run(algo_id: str, instance, fold: Fold = fold_trace):
    """Run one of the six algorithms; returns (output, the run folded by
    ``fold``): a ``Trace`` by default, ``RunCounts`` with ``fold_counts``."""
    return spec_for(algo_id).run(instance, fold)


__all__ = [
    "ALGORITHMS",
    "PAIRS",
    "SPECS",
    "AlgorithmSpec",
    "SearchInstance",
    "SortInstance",
    "binary_search",
    "bubble_sort",
    "dcsc",
    "kosaraju",
    "oets_sort",
    "parallel_search",
    "run",
    "spec_for",
]
