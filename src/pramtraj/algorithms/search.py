"""Searching pair: one-shot priority-write search vs. binary search.

Both operate on a descending list with an extra node carrying the query, and
both return the rank ``min{i : items[i] <= x}`` (``n`` when no item
qualifies, i.e. the query-node category).
"""

from __future__ import annotations

import math
from random import Random
from typing import NamedTuple

from ..machine import (
    UNDEF,
    as_index,
    as_scalar,
    complete_graph,
    fold_trace,
    run_machine,
    star_graph,
    Delta,
    LiveState,
    MachineState,
    Fold,
    Program,
    RunCounts,
    Trace,
)
from . import AlgorithmSpec, ProbeSpec, Replay, increasing_unit_scalars

ITEM = 0
MASK = 1

# shared-memory layout for binary search
LO, HI, MID, RANK = 0, 1, 2, 3


class _SearchFields(NamedTuple):
    items: tuple[float, ...]
    x: float


class SearchInstance(_SearchFields):
    """Strictly descending items plus a query value."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if len(self.items) < 1:
            raise ValueError("need at least one item")
        if not all(map(math.isfinite, self.items)):
            raise ValueError("items must be finite")
        if not math.isfinite(self.x):
            raise ValueError("the query must be finite")
        for a, b in zip(self.items, self.items[1:]):
            if not a > b:
                raise ValueError("items must be strictly descending")

    @property
    def n(self) -> int:
        return len(self.items)


def parallel_search_program(inst: SearchInstance) -> Program:
    """Constant-depth search: mask layer, then a priority write of the rank.

    Step 1: every item node computes ``max(item - x, 0)`` after reading the
    query from the extra node.  Step 2: nodes whose mask is zero race to
    write their index to the shared rank cell; the query node writes ``n`` as
    the not-found category and loses to any item node by priority.
    """
    n = inst.n
    xnode = n
    local = tuple((item, UNDEF) for item in inst.items) + ((inst.x, UNDEF),)

    def step(ctx):
        if ctx.clock == 0:
            if ctx.pid == xnode:
                return None
            item = ctx.own(ITEM, float)
            x = ctx.read(xnode, ITEM, float)
            return {MASK: max(item - x, 0.0)}, ()
        if ctx.pid == xnode:
            return None, ((0, xnode),)
        if ctx.own(MASK, float) == 0.0:
            return None, ((0, ctx.pid),)
        return None

    return Program(
        "parallel_search",
        MachineState(local, (UNDEF,), 0),
        step,
        star_graph(n),
        lambda s: s.clock >= 2,
        2,
        lambda s: as_index(s.shared[0]),
    )


def parallel_search(inst: SearchInstance, fold: Fold = fold_trace) -> tuple[int, Trace | RunCounts]:
    return run_machine(parallel_search_program(inst), fold)


def binary_search_program(inst: SearchInstance) -> Program:
    """Halving search over the shared [lo, hi) window, one probe per layer."""
    n = inst.n
    xnode = n
    local = tuple((item,) for item in inst.items) + ((inst.x,),)

    def candidates(state):
        return ((state.shared[LO] + state.shared[HI]) // 2,)

    def step(ctx):
        # candidates offers the window's midpoint alone
        mid = ctx.pid
        lo = ctx.shared(LO, int)
        hi = ctx.shared(HI, int)
        item = ctx.own(ITEM, float)
        x = ctx.read(xnode, ITEM, float)
        if item <= x:
            hi = mid
        else:
            lo = mid + 1
        writes = [(LO, lo), (HI, hi), (MID, mid)]
        if lo == hi:
            writes.append((RANK, lo))
        return None, writes

    return Program(
        "binary_search",
        MachineState(local, (0, n, UNDEF, UNDEF), 0),
        step,
        complete_graph(n + 1),
        lambda s: s.shared[LO] == s.shared[HI],
        n + 1,
        lambda s: as_index(s.shared[RANK]),
        candidates,
    )


def binary_search(inst: SearchInstance, fold: Fold = fold_trace) -> tuple[int, Trace | RunCounts]:
    return run_machine(binary_search_program(inst), fold)


def gen_search_instance(n: int, seed: int) -> SearchInstance:
    """Descending distinct items; the query is uniform over the item range
    widened by one average gap per side, so every rank 0..n can occur."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = Random(seed)
    ascending = increasing_unit_scalars(rng, n)
    items = tuple(reversed(ascending))
    lo, hi = ascending[0], ascending[-1]
    gap = (hi - lo) / (n - 1) if n > 1 else 0.5
    x = rng.uniform(lo - gap, hi + gap)
    return SearchInstance(items=items, x=x)


def exhaustive_searches(n: int) -> list[SearchInstance]:
    """One instance per rank position 0..n over fixed items."""
    items = tuple((n - i) / (n + 1) for i in range(n))
    return [SearchInstance(items=items, x=x) for x in items + (items[-1] / 2.0,)]


def parse_search_inline(text: str) -> SearchInstance:
    """``"items;x"``: comma-separated descending items, then the query."""
    items_part, _, x_part = text.partition(";")
    if not x_part:
        raise ValueError("expected 'items;x'")
    items = tuple(float(p) for p in items_part.split(","))
    return SearchInstance(items=items, x=float(x_part))


def _search_inputs(inst: SearchInstance, pos: list[float]) -> dict:
    return {"items": list(inst.items), "pos": pos, "x": inst.x}


def _rank_output(rank: int) -> dict:
    return {"rank": rank}


def _frame_parallel_search(inst: SearchInstance, state: LiveState, delta: Delta, prev: dict | None) -> dict:
    return {"leq_mask": [int(as_scalar(row[MASK]) == 0.0) for row in state.local[: inst.n]]}


def _reference_parallel_search(inputs: dict, n: int) -> Replay:
    """Both layers carry the mask ``items[i] <= x``; the rank is its first one."""
    x = inputs["x"]
    mask = [int(item <= x) for item in inputs["items"]]
    yield {"leq_mask": mask}
    yield {"leq_mask": mask}
    return {"rank": next((i for i, v in enumerate(mask) if v), n)}


def _window_masks(n: int, lo: int, hi: int, mid: int) -> dict:
    return {
        "low": [int(i < lo) for i in range(n)],
        "high": [int(i >= hi) for i in range(n)],
        "mid": [int(i == mid) for i in range(n)],
    }


def _frame_binary_search(inst: SearchInstance, state: LiveState, delta: Delta, prev: dict | None) -> dict:
    shared = state.shared
    lo, hi, mid = as_index(shared[LO]), as_index(shared[HI]), as_index(shared[MID])
    return _window_masks(inst.n, lo, hi, mid)


def _reference_binary_search(inputs: dict, n: int) -> Replay:
    """One frame per probe of the halving loop over the window [lo, hi)."""
    items = inputs["items"]
    x = inputs["x"]
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if items[mid] <= x:
            hi = mid
        else:
            lo = mid + 1
        yield _window_masks(n, lo, hi, mid)
    return {"rank": lo}


def _note_parallel_search(inst: SearchInstance, state: LiveState, delta: Delta) -> str:
    rank = state.shared[0]
    return f"rank={'?' if rank is UNDEF else rank}"


def _note_binary_search(inst: SearchInstance, state: LiveState, delta: Delta) -> str:
    shared = state.shared
    return f"lo={shared[LO]} hi={shared[HI]} mid={shared[MID]}"


_INPUTS = (
    ProbeSpec("items", "input", "node", "scalar"),
    ProbeSpec("pos", "input", "node", "scalar"),
    ProbeSpec("x", "input", "graph", "scalar"),
)
_RANK = ProbeSpec("rank", "output", "graph", "categorical")

PARALLEL_SEARCH = AlgorithmSpec(
    name="parallel_search",
    family="search",
    run=parallel_search,
    generate=gen_search_instance,
    exhaustive=exhaustive_searches,
    probes=_INPUTS + (ProbeSpec("leq_mask", "hint", "node", "mask"), _RANK),
    frame=_frame_parallel_search,
    inputs=_search_inputs,
    outputs=_rank_output,
    reference=_reference_parallel_search,
    parse_inline=parse_search_inline,
    note=_note_parallel_search,
    run_shape=lambda inputs, n: (2 * n, n + 1),
)

# binary_search shares parallel_search's task: the same instances, inputs and outputs
BINARY_SEARCH = PARALLEL_SEARCH._replace(
    name="binary_search",
    run=binary_search,
    probes=_INPUTS
    + (
        ProbeSpec("low", "hint", "node", "mask"),
        ProbeSpec("high", "hint", "node", "mask"),
        ProbeSpec("mid", "hint", "node", "mask"),
        _RANK,
    ),
    frame=_frame_binary_search,
    reference=_reference_binary_search,
    note=_note_binary_search,
    run_shape=lambda inputs, n: (n * (n + 1), n + 1),
)
