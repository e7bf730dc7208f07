"""Sorting pair: odd-even transposition rounds vs. single-comparison bubble.

Nodes keep their items for good; sorting rearranges chain *positions*.  The
shared memory holds the position table (position -> node id), which is how a
node locates the partner it must compare with on the complete graph.  The
emitted output is the predecessor pointer per node along the final chain.

An oets node keeps two cells, ``(item, position)``: a round pairs the nodes
by the parity of their own positions.  A bubble_sort node keeps its item
alone, ``(item,)``: the layer's slot names the two positions compared, and
the table says which node holds each, so a swap writes only the table and
every state shares the initial local rows.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import is_
from random import Random
from typing import NamedTuple

from ..machine import (
    HOLD,
    MachineState,
    Fold,
    Program,
    RunCounts,
    Trace,
    UNDEF,
    complete_graph,
    fold_trace,
    run_machine,
)
from . import AlgorithmSpec, ProbeSpec, Replay, SharedRow, increasing_unit_scalars

ITEM = 0
POSN = 1


class _SortFields(NamedTuple):
    items: tuple[float, ...]


class SortInstance(_SortFields):
    """Items to sort; duplicates allowed, node i starts at chain position i."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if len(self.items) < 1:
            raise ValueError("need at least one item")
        if not all(map(math.isfinite, self.items)):
            raise ValueError("items must be finite")

    @property
    def n(self) -> int:
        return len(self.items)


def predecessors_from_table(table: tuple[int, ...]) -> tuple[int, ...]:
    """Chain pointers: node at position k points at position k-1, head at itself."""
    pred = [0] * len(table)
    pred[table[0]] = table[0]
    for k in range(1, len(table)):
        pred[table[k]] = table[k - 1]
    return tuple(pred)


def _pred_of_table(state: MachineState) -> tuple[int, ...]:
    """The output of a sort: chain pointers of the final position table."""
    return predecessors_from_table(state.shared[: len(state.local)])


def oets_program(inst: SortInstance) -> Program:
    """Odd-even transposition sort.

    Round r pairs adjacent chain positions starting at ``r % 2``; both pair
    members compare across the pair's two directed edges and swap positions
    when out of order.  Swapping pairs stamp the round index into a shared
    cell so the halt predicate can see two consecutive swap-free rounds;
    rounds are capped at n either way.
    """
    n = inst.n
    last_swap = n  # shared address behind the position table
    local = tuple((item, i) for i, item in enumerate(inst.items))

    def candidates(state):
        # the nodes at positions phase, phase + 1, ... that have a partner
        phase = state.clock % 2
        return state.shared[phase : phase + (n - phase) // 2 * 2]

    def step(ctx):
        phase = ctx.clock % 2
        pos = ctx.own(POSN, int)
        mine = ctx.own(ITEM, float)
        if (pos - phase) % 2 == 0:
            partner = ctx.shared(pos + 1, int)
            other = ctx.read(partner, ITEM, float)
            if mine > other:
                return {POSN: pos + 1}, ((pos + 1, ctx.pid), (last_swap, ctx.clock))
            return HOLD
        partner = ctx.shared(pos - 1, int)
        other = ctx.read(partner, ITEM, float)
        if other > mine:
            return {POSN: pos - 1}, ((pos - 1, ctx.pid), (last_swap, ctx.clock))
        return HOLD

    def halt(state):
        c = state.clock
        if c >= n:
            return True
        if c < 2:
            return False
        last = state.shared[last_swap]
        return last is UNDEF or last <= c - 3

    initial = MachineState(local, tuple(range(n)) + (UNDEF,), 0)
    return Program("oets", initial, step, complete_graph(n), halt, n, _pred_of_table, candidates)


def oets_sort(inst: SortInstance, fold: Fold = fold_trace) -> tuple[tuple[int, ...], Trace | RunCounts]:
    return run_machine(oets_program(inst), fold)


@lru_cache(maxsize=None)
def bubble_schedule(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Fixed comparison schedule as ``(passes, slots)``: layer t of pass
    ``passes[t]`` probes positions ``(slots[t], slots[t] + 1)``."""
    passes = tuple(i for i in range(n - 1) for _ in range(n - 1 - i))
    slots = tuple(j for i in range(n - 1) for j in range(n - 1 - i))
    return passes, slots


def bubble_program(inst: SortInstance) -> Program:
    """One adjacent comparison per layer over the full fixed schedule.

    No early exit: depth is exactly n(n-1)/2, the reproducible worst case.
    The cursor of a layer (pass index, compared slot j) is a pure function of
    the clock via the schedule.  A node keeps only its item: it is the left
    member of the layer's pair when the table holds it at j, and the right
    member otherwise, and a swap moves each member by writing its table cell.
    """
    n = inst.n
    slots = bubble_schedule(n)[1]
    local = tuple((item,) for item in inst.items)

    def candidates(state):
        j = slots[state.clock]
        return (state.shared[j], state.shared[j + 1])

    def step(ctx):
        j = slots[ctx.clock]
        pid = ctx.pid
        mine = ctx.own(ITEM, float)
        left = ctx.shared(j, int)
        if left == pid:
            partner = ctx.shared(j + 1, int)
            other = ctx.read(partner, ITEM, float)
            if mine > other:
                return None, ((j + 1, pid),)
            return HOLD
        other = ctx.read(left, ITEM, float)
        if other > mine:
            return None, ((j, pid),)
        return HOLD

    total = len(slots)
    return Program(
        "bubble_sort",
        MachineState(local, tuple(range(n)), 0),
        step,
        complete_graph(n),
        lambda s: s.clock >= total,
        max(total, 1),
        _pred_of_table,
        candidates,
    )


def bubble_sort(inst: SortInstance, fold: Fold = fold_trace) -> tuple[tuple[int, ...], Trace | RunCounts]:
    return run_machine(bubble_program(inst), fold)


def gen_permutation(n: int, seed: int) -> SortInstance:
    """Seeded shuffle of n distinct values."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = Random(seed)
    values = increasing_unit_scalars(rng, n)
    rng.shuffle(values)
    return SortInstance(items=tuple(values))


def every_permutation(n: int) -> list[SortInstance]:
    """Every ordering of n distinct values."""
    values = [(i + 1) / (n + 1) for i in range(n)]
    return [
        SortInstance(items=tuple(values[k] for k in perm))
        for perm in itertools.permutations(range(n))
    ]


def parse_sort_inline(text: str) -> SortInstance:
    """Comma-separated items."""
    return SortInstance(items=tuple(float(p) for p in text.split(",")))


def _sort_inputs(inst: SortInstance, pos: list[float]) -> dict:
    return {"items": list(inst.items), "pos": pos}


def _pred_output(pred: tuple[int, ...]) -> dict:
    return {"pred": list(pred)}


@lru_cache(maxsize=None)
def mask_rows(n: int) -> tuple[SharedRow, ...]:
    """The n + 1 rows of an n x n 0/1 mask in which each node has at most
    one partner, built once per n: ``rows[k]`` is one-hot at k for k < n,
    and ``rows[n]`` is all zero."""
    return tuple(SharedRow(int(j == k) for j in range(n)) for k in range(n + 1))


@lru_cache(maxsize=None)
def zero_mask(n: int) -> SharedRow:
    """The all-zero n x n mask of a layer that swaps nothing, built once per
    n: a shared row of n all-zero rows of ``mask_rows(n)``."""
    return SharedRow([mask_rows(n)[n]] * n)


def _swapped_pairs(old_table, new_table) -> list[tuple[int, int]]:
    """(node, partner) for each position whose node moved one slot up."""
    return [
        (old_table[k], old_table[k + 1])
        for k in range(len(old_table) - 1)
        if old_table[k] != new_table[k] and old_table[k] == new_table[k + 1]
    ]


def _frame(old_table, new_table, n: int, cursor: dict, prev: dict | None) -> dict:
    """Chain pointers and swaps of a layer that took the position table from
    old_table to new_table, plus ``cursor``, the probes of the clock alone;
    ``prev`` is the frame of the layer before, None for the first.

    A layer that leaves every table cell as it was (the same objects) swaps
    nothing: its frame holds ``prev``'s ``pred`` and ``zero_mask(n)``.  Any
    other frame's ``swap_mask`` rows are rows of ``mask_rows(n)``: for each
    swapped pair (u, v), row u is one-hot at v and row v at u, and every
    other row is the all-zero row."""
    if prev is not None and all(map(is_, old_table, new_table)):
        return {"pred": prev["pred"], "swap_mask": zero_mask(n), **cursor}
    rows = mask_rows(n)
    swap_mask = [rows[n]] * n
    for u, v in _swapped_pairs(old_table, new_table):
        swap_mask[u] = rows[v]
        swap_mask[v] = rows[u]
    pred = SharedRow(predecessors_from_table(tuple(new_table)))
    return {"pred": pred, "swap_mask": swap_mask, **cursor}


def _frame_oets(inst: SortInstance, before: MachineState, after: MachineState, prev: dict | None) -> dict:
    n = inst.n
    return _frame(before.shared[:n], after.shared[:n], n, {"parity": before.clock % 2}, prev)


def _frame_bubble(inst: SortInstance, before: MachineState, after: MachineState, prev: dict | None) -> dict:
    n = inst.n
    passes, slots = bubble_schedule(n)
    cursor = {"cursor_i": passes[before.clock], "cursor_j": slots[before.clock]}
    return _frame(before.shared[:n], after.shared[:n], n, cursor, prev)


def _reference_oets(inputs: dict, n: int) -> Replay:
    """Odd-even rounds on a position table, until two swap-free rounds in a
    row or n rounds."""
    items = inputs["items"]
    table = list(range(n))
    quiet = 0
    frame = None
    for r in range(n):
        old_table = tuple(table)
        for k in range(r % 2, n - 1, 2):
            if items[table[k]] > items[table[k + 1]]:
                table[k], table[k + 1] = table[k + 1], table[k]
        frame = _frame(old_table, table, n, {"parity": r % 2}, frame)
        yield frame
        quiet = quiet + 1 if tuple(table) == old_table else 0
        if quiet == 2:
            break
    return {"pred": list(predecessors_from_table(tuple(table)))}


def _reference_bubble(inputs: dict, n: int) -> Replay:
    """One compare-exchange per step of the fixed bubble schedule."""
    items = inputs["items"]
    table = list(range(n))
    frame = None
    for i, j in zip(*bubble_schedule(n)):
        old_table = tuple(table)
        if items[table[j]] > items[table[j + 1]]:
            table[j], table[j + 1] = table[j + 1], table[j]
        frame = _frame(old_table, table, n, {"cursor_i": i, "cursor_j": j}, frame)
        yield frame
    return {"pred": list(predecessors_from_table(tuple(table)))}


def _note(inst: SortInstance, before: MachineState, after: MachineState) -> str:
    n = inst.n
    table = after.shared[:n]
    order = [f"{inst.items[node]:g}" for node in table]
    swaps = _swapped_pairs(before.shared[:n], table)
    return f"order=[{', '.join(order)}] swaps={swaps}"


_COMMON = (
    ProbeSpec("items", "input", "node", "scalar"),
    ProbeSpec("pos", "input", "node", "scalar"),
    ProbeSpec("pred", "hint", "node", "categorical"),
    ProbeSpec("swap_mask", "hint", "edge", "mask"),
)
_PRED = ProbeSpec("pred", "output", "node", "categorical")

OETS = AlgorithmSpec(
    name="oets",
    family="sort",
    run=oets_sort,
    generate=gen_permutation,
    exhaustive=every_permutation,
    probes=_COMMON + (ProbeSpec("parity", "hint", "graph", "mask"), _PRED),
    frame=_frame_oets,
    inputs=_sort_inputs,
    outputs=_pred_output,
    reference=_reference_oets,
    parse_inline=parse_sort_inline,
    note=_note,
    run_shape=lambda inputs, n: (n * (n - 1), n),
)

# bubble_sort shares oets's task: the same instances, inputs and outputs
BUBBLE_SORT = OETS._replace(
    name="bubble_sort",
    run=bubble_sort,
    probes=_COMMON
    + (
        ProbeSpec("cursor_i", "hint", "graph", "categorical"),
        ProbeSpec("cursor_j", "hint", "graph", "categorical"),
        _PRED,
    ),
    frame=_frame_bubble,
    reference=_reference_bubble,
)
