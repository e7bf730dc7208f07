"""Synchronous priority-CRCW machine with per-layer activity recording.

The machine holds ``width`` processors, each with a fixed-size list of local
cells, plus a shared memory (the graph-level feature).  One step, one
``step_machine`` call, applies a per-processor transition function
synchronously: every processor reads the *previous* state through one
reused ``NodeContext``, the step's shared-memory writes go straight into one
copy of shared memory under the priority rule (per address, the lowest
processor index wins, with its first write), and the step's activity --
which nodes executed a non-identity operation, which edges carried
information into them, how many operations ran -- is recorded.  Shared
memory is not a node and has no edges: a layer that writes it counts one
extra operation, the graph-feature update, and nothing more.

A processor has three sources to read, one reader each: its own cells
(``own``), an in-neighbour's cells (``read``) and shared memory (``shared``).
Only ``read`` crosses an edge.  Cells are plain Python values: ``float``
(scalar), ``int`` (node index), ``bool`` (flag), or the ``UNDEF`` sentinel.
A reader given the expected type as ``kind`` enforces the variant; an
``UNDEF`` cell stores no information, so reading one never records an
active edge.

An algorithm describes one run as a ``Program``: initial state, step,
graph, halt predicate, step budget, optional candidates and instance edges,
and ``output``, which reads the result off the final state.  ``layers``
steps a program and yields each layer; ``run_machine`` folds them into a
``Trace`` (every state, for decoding hint frames) or, with ``fold_counts``,
into ``RunCounts`` (one state and the run's integer counts, summed layer by
layer with no per-layer list or call), and returns the program's output
with the folded run.  Traces are acyclic, so the cyclic garbage collector
can never free any part of one; ``collector_paused`` keeps it off while a
trace is alive instead of letting it rescan the growing trace at every
collection.  A run folded into counts holds no trace, so it runs with the
collector on.

An ``InterconnectionGraph`` is what the machine reads of a topology: its
node count ``n``, its edge count ``m`` (the denominator of edge efficiency)
and, per node, the frozenset of nodes ``read`` lets it read.
``interconnection(n, edges)`` builds one from explicit edges and checks
them; ``complete_graph`` and ``star_graph`` build theirs directly, and
``symmetric_graph`` closes an edge set.  Every node of ``complete_graph(n)``
shares one frozenset of all n nodes (``read`` rejects a node's read of
itself apart), so the graph takes O(n) memory, not O(n^2).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

class MachineError(Exception):
    """Base class for machine-level failures."""


class CellTypeError(MachineError):
    """A cell was interpreted as a variant it does not hold."""


class UndefinedValueError(CellTypeError):
    """An undefined cell was interpreted inside a non-identity operation."""


class NeighborhoodViolation(MachineError):
    """A transition read a processor outside its declared neighborhood."""


class StepLimitExceeded(MachineError):
    """The halt predicate never fired within the step budget."""


class _Undef:
    """Singleton sentinel distinguishable from every legal cell value."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNDEF"

    def __bool__(self) -> bool:
        raise UndefinedValueError("truth value of an undefined cell")


UNDEF = _Undef()

Cell = Union[float, int, bool, _Undef]


# the variant each cell type stands for, as errors name it
_KIND_NAMES = {float: "scalar", int: "index", bool: "flag"}


def as_scalar(cell: Cell) -> float:
    if type(cell) is float:
        return cell
    _bad_cell(cell, float)


def as_index(cell: Cell) -> int:
    if type(cell) is int:
        return cell
    _bad_cell(cell, int)


def as_flag(cell: Cell) -> bool:
    if type(cell) is bool:
        return cell
    _bad_cell(cell, bool)


def _bad_cell(cell: Cell, kind: type) -> None:
    wanted = _KIND_NAMES[kind]
    if cell is UNDEF:
        raise UndefinedValueError(f"read of undefined cell where {wanted} expected")
    raise CellTypeError(f"cell {cell!r} is not a {wanted}")


class MachineState(NamedTuple):
    """Immutable snapshot: per-processor locals, shared memory, clock."""

    local: tuple[tuple[Cell, ...], ...]
    shared: tuple[Cell, ...]
    clock: int = 0

    @property
    def width(self) -> int:
        return len(self.local)


class InterconnectionGraph(NamedTuple):
    """Fixed communication topology, as the machine reads it: ``n`` nodes,
    ``m`` edges, and ``in_nbrs[j]``, the nodes that node j may ``read``.
    An edge (i, j) lets j read i's state.  There are no self edges: a
    processor reads its own cells through ``NodeContext.own``."""

    n: int
    m: int
    in_nbrs: tuple[frozenset[int], ...]


def interconnection(n: int, edges: Iterable[tuple[int, int]]) -> InterconnectionGraph:
    """The graph of an explicit edge set, each edge counted once."""
    incoming: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        if i == j:
            raise ValueError(f"self edge ({i},{j}); a processor reads itself through own")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        incoming[j].add(i)
    return InterconnectionGraph(n, sum(map(len, incoming)), tuple(map(frozenset, incoming)))


@lru_cache(maxsize=None)
def complete_graph(n: int) -> InterconnectionGraph:
    """Every node reads every other, in O(n) memory: the nodes share one
    set of all n nodes, a frozenset because its lookup is cheaper than a
    range's."""
    return InterconnectionGraph(n, n * (n - 1), (frozenset(range(n)),) * n)


@lru_cache(maxsize=None)
def star_graph(n_leaves: int) -> InterconnectionGraph:
    """Leaves 0..n-1 wired both ways to hub node n."""
    hub = n_leaves
    leaves = (frozenset({hub}),) * n_leaves
    return InterconnectionGraph(n_leaves + 1, 2 * n_leaves, leaves + (frozenset(range(n_leaves)),))


def symmetric_graph(n: int, directed_edges: Iterable[tuple[int, int]]) -> InterconnectionGraph:
    """Symmetric closure of a directed edge set."""
    return interconnection(n, [e for u, v in directed_edges for e in ((u, v), (v, u))])


class ActivityRecord(NamedTuple):
    """What happened at one layer.

    ``active_edges`` holds the graph edges whose source cell was read
    through ``NodeContext.read``, held a defined value, and fed an executed
    operation.  A processor's own cells are structural and shared memory is
    not a node: reading either records no edge, and a layer that writes
    shared memory counts one extra operation (``graph_op``).
    """

    step: int
    active_nodes: frozenset[int]
    active_edges: frozenset[tuple[int, int]]
    op_count: int
    graph_op: bool


class Trace(NamedTuple):
    """Full record of one run: T+1 state snapshots, T activity records."""

    width: int
    states: tuple[MachineState, ...]
    activity: tuple[ActivityRecord, ...]
    graph: InterconnectionGraph
    instance_edges: frozenset[tuple[int, int]] | None = None

    @property
    def depth(self) -> int:
        return len(self.activity)

    @property
    def final(self) -> MachineState:
        return self.states[-1]


# A processor's transition returns ``None`` (identity) or the pair ``(local,
# writes)`` of a non-identity operation: local overwrites (slot -> cell, or
# ``None``) and shared writes ((address, cell) pairs, or ``()``).
StepFn = Callable[
    ["NodeContext"], tuple[Mapping[int, Cell] | None, Sequence[tuple[int, Cell]]] | None
]

# an executed operation that changes nothing (e.g. a compare with no swap)
HOLD = (None, ())


class NodeContext:
    """Read interface handed to the processors of one step: one reader per
    source, each returning the previous layer's cell.

    ``own``    -- this processor's own cell; structural, never an edge.
    ``read``   -- an in-neighbour's cell; validated against the
                  interconnection graph (there are no self edges, so
                  ``read(pid, ...)`` is a violation) and recorded as an active
                  edge when it returns a defined value.
    ``shared`` -- shared memory, the graph-level feature; records no edge.

    Each takes an optional ``kind``, ``float``, ``int`` or ``bool``: the cell
    must then hold that variant, and ``UndefinedValueError`` (for ``UNDEF``)
    or ``CellTypeError`` is raised otherwise, before any edge is recorded.
    Without ``kind`` the cell is returned as it is, ``UNDEF`` included.

    ``step_machine`` reuses one context, ``_CONTEXT``, for every layer: it
    points the context at the layer's state, graph and a fresh edge list
    (``edge_reads``, to which edge reads are appended) and then ``pid`` at
    each processor in turn.  What it reads is valid only during that call,
    so a step must not keep its context or run a layer itself.
    """

    __slots__ = ("pid", "clock", "_local", "_shared", "_in_nbrs", "edge_reads")

    def __init__(
        self, state: MachineState, graph: InterconnectionGraph, edge_reads: list[tuple[int, int]]
    ) -> None:
        self.pid = 0
        self.clock = state.clock
        self._local = state.local
        self._shared = state.shared
        self._in_nbrs = graph.in_nbrs
        self.edge_reads = edge_reads

    def own(self, slot: int, kind: type | None = None) -> Cell:
        cell = self._local[self.pid][slot]
        if type(cell) is kind or kind is None:
            return cell
        _bad_cell(cell, kind)

    def read(self, j: int, slot: int, kind: type | None = None) -> Cell:
        pid = self.pid
        # a complete graph's shared node set holds pid itself, so test it apart
        if j == pid or j not in self._in_nbrs[pid]:
            raise NeighborhoodViolation(f"node {pid} may not read node {j}")
        cell = self._local[j][slot]
        if type(cell) is not kind:
            if kind is not None:
                _bad_cell(cell, kind)
            if cell is UNDEF:
                return cell
        self.edge_reads.append((j, pid))
        return cell

    def shared(self, addr: int, kind: type | None = None) -> Cell:
        cell = self._shared[addr]
        if type(cell) is kind or kind is None:
            return cell
        _bad_cell(cell, kind)


_CONTEXT = NodeContext(MachineState((), ()), InterconnectionGraph(0, 0, ()), [])
_EMPTY: frozenset = frozenset()
_new_tuple = tuple.__new__


def step_machine(
    state: MachineState,
    step_fn: StepFn,
    graph: InterconnectionGraph,
    candidates: Sequence[int] | None = None,
) -> tuple[MachineState, ActivityRecord]:
    """One synchronous layer.

    ``candidates`` optionally restricts which processors are offered the step
    function, as a sequence (a tuple or a list) of pids in any order, each
    run once however often it appears; every other processor is identity by
    construction.  ``step_fn`` returns ``None`` for identity: the node is not
    active and its reads are discarded.  Otherwise it returns a ``(local,
    writes)`` pair (see ``StepFn``), and the node is active.  The processors
    run in ascending pid order, each writing into one copy of shared memory
    made at the layer's first write, so the first write to an address, the
    lowest pid's and that processor's first, is the one the layer keeps.  A
    ``MachineError`` raised in the layer keeps its type and its message ends
    ``(layer t, node p)``: t is the ``step`` of the layer's record, p the
    processor that raised it (a candidate out of range names the layer
    only).
    """
    local_rows = state.local
    shared_cells = state.shared
    width = len(local_rows)
    shared_len = len(shared_cells)
    new_local: list[tuple[Cell, ...]] | None = None
    cells: list[Cell] | None = None  # the layer's copy of shared memory, once written
    active: list[int] = []
    edges: list[tuple[int, int]] = []
    ctx = _CONTEXT
    ctx.clock, ctx._local, ctx._shared = state.clock, local_rows, shared_cells
    ctx._in_nbrs, ctx.edge_reads = graph.in_nbrs, edges
    pid = None  # no processor has run yet: a candidate error names the layer only
    try:
        if candidates is None:
            pids = range(width)
        else:
            if len(candidates) == 2:
                a, b = candidates
                pids = (a, b) if a < b else ((b, a) if b < a else (a,))
            else:
                pids = sorted(set(candidates))
            if pids and (pids[0] < 0 or pids[-1] >= width):
                bad = pids[0] if pids[0] < 0 else next(p for p in pids if p >= width)
                raise MachineError(f"candidate {bad} out of range")
        for pid in pids:
            ctx.pid = pid
            mark = len(edges)
            update = step_fn(ctx)
            if update is None:
                del edges[mark:]
                continue
            active.append(pid)
            local_update, writes = update
            if local_update:
                if new_local is None:
                    new_local = list(local_rows)
                row = list(new_local[pid])
                for slot, value in local_update.items():
                    if not 0 <= slot < len(row):
                        raise MachineError(f"local slot {slot} out of range")
                    row[slot] = value
                new_local[pid] = tuple(row)
            if writes:
                if cells is None:
                    cells, written = list(shared_cells), set()
                for addr, value in writes:
                    if not 0 <= addr < shared_len:
                        raise MachineError(f"shared address {addr} out of range")
                    if addr not in written:
                        written.add(addr)
                        cells[addr] = value
    except MachineError as err:
        node = "" if pid is None else f", node {pid}"
        raise type(err)(f"{err} (layer {state.clock + 1}{node})") from err

    clock = state.clock + 1
    wrote = cells is not None
    after = (local_rows if new_local is None else tuple(new_local), tuple(cells) if wrote else shared_cells, clock)
    nodes = frozenset(active) if active else _EMPTY
    record = (clock, nodes, frozenset(edges) if edges else _EMPTY, len(active) + wrote, wrote)
    # tuple.__new__ skips the generated NamedTuple constructors' frames
    return _new_tuple(MachineState, after), _new_tuple(ActivityRecord, record)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off for the body, then restore the
    state it had on entry, also when the body raises.

    Wrap everything that holds a trace, so that the trace is freed before
    the collector is back on: a trace still alive then would be walked whole
    by the next collection.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


Layer = tuple[MachineState, MachineState, ActivityRecord]


class Program(NamedTuple):
    """One run of an algorithm, described whole: from ``initial`` on
    ``graph``, apply ``step`` to the processors ``candidates(state)`` offers
    as a sequence (all when ``candidates`` is ``None``) until
    ``halt(state)``, within ``max_steps`` layers; ``algo_id`` names the run
    in the step-limit error.  ``output(final)``
    reads the result off the final state; ``instance_edges``, where set, are
    the instance's directed edges that activity is counted against."""

    algo_id: str
    initial: MachineState
    step: StepFn
    graph: InterconnectionGraph
    halt: Callable[[MachineState], bool]
    max_steps: int
    output: Callable[[MachineState], Any]
    candidates: Callable[[MachineState], Sequence[int]] | None = None
    instance_edges: frozenset[tuple[int, int]] | None = None


def layers(program: Program) -> Iterator[Layer]:
    """Step one run until the halt predicate fires, yielding ``(before,
    after, record)`` per layer; deterministic for fixed inputs."""
    step_fn, graph, halt, max_steps = program.step, program.graph, program.halt, program.max_steps
    candidates_fn = program.candidates
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    state = program.initial
    depth = 0
    while not halt(state):
        if depth >= max_steps:
            raise StepLimitExceeded(f"{program.algo_id} did not halt within {max_steps} steps")
        cands = candidates_fn(state) if candidates_fn is not None else None
        after, record = step_machine(state, step_fn, graph, cands)
        yield state, after, record
        state = after
        depth += 1


def fold_trace(program: Program, stream: Iterable[Layer]) -> Trace:
    """Every state and record of a run, as a ``Trace``."""
    states = [program.initial]
    activity: list[ActivityRecord] = []
    for _, after, record in stream:
        states.append(after)
        activity.append(record)
    width, graph, edges = program.initial.width, program.graph, program.instance_edges
    return Trace(width, tuple(states), tuple(activity), graph, edges)


def layer_counter(
    graph: InterconnectionGraph, instance_edges: frozenset[tuple[int, int]] | None
) -> tuple[int, Callable[[frozenset[tuple[int, int]]], int]]:
    """``m`` of a run, and the rule that counts a layer's ``edges`` from its
    ``active_edges`` (its ``nodes`` are ``len(active_nodes)`` and its ``ops``
    the ``op_count`` of its record).

    ``m`` is the edge count of the operated graph: the instance's directed
    edges when the run has them, otherwise the interconnection edges.  A
    layer's ``edges`` counts its active edges against that graph: the
    neighbour reads of its executed operations, never a processor's reads of
    its own cells or of shared memory.  Plain tasks count the recorded
    channels directly, by ``len``.  Runs tied to a directed instance fold
    each channel onto the instance edge it traverses, so an edge used in
    both directions in one layer counts once and edges <= m holds.
    """
    if instance_edges is None:
        return graph.m, len

    def count(active_edges: frozenset[tuple[int, int]]) -> int:
        used = set()
        for u, v in active_edges:
            if (u, v) in instance_edges:
                used.add((u, v))
            elif (v, u) in instance_edges:
                used.add((v, u))
        return len(used)

    return len(instance_edges), count


class RunCounts(NamedTuple):
    """The integer counts of one run that its metrics need, and its final
    state: its ``depth``, the ``ops`` and active ``nodes`` summed over its
    layers, and the total of its layers' active ``edges`` and the largest
    one (``edge_max``).  Its edge efficiency is the rational
    ``edges / (m x depth)``, 0 for a zero-depth run or one with m = 0."""

    width: int
    m: int
    final: MachineState
    depth: int
    ops: int
    nodes: int
    edges: int
    edge_max: int


def fold_counts(program: Program, stream: Iterable[Layer]) -> RunCounts:
    """The counts of a run, taken one layer at a time: no state or record
    outlives its layer, so a run holds one state whatever its depth.  A
    plain run counts a layer's edges by ``len``, a builtin, so its layers
    make no Python call here."""
    m, count = layer_counter(program.graph, program.instance_edges)
    final = program.initial
    depth = ops = nodes = edges = edge_max = 0
    for _, final, (_, active_nodes, active_edges, op_count, _) in stream:
        layer_edges = count(active_edges)
        depth += 1
        ops += op_count
        nodes += len(active_nodes)
        edges += layer_edges
        if layer_edges > edge_max:
            edge_max = layer_edges
    return RunCounts(program.initial.width, m, final, depth, ops, nodes, edges, edge_max)


Fold = Callable[[Program, Iterable[Layer]], Any]


def run_machine(program: Program, fold: Fold = fold_trace) -> tuple[Any, Trace | RunCounts]:
    """Run ``program`` and read its output off the final state: returns
    ``(output, folded)``, the run's ``layers`` folded by ``fold`` into a
    ``Trace`` by default, into ``RunCounts`` with ``fold_counts``."""
    folded = fold(program, layers(program))
    return program.output(folded.final), folded


def activity_summary(trace: Trace) -> dict:
    """The per-layer counts of one run, as a dataset's ``activity`` block:
    ``{"m", "steps": [{"edges", "nodes", "ops"}], "width"}``, each layer
    counted by ``layer_counter``."""
    m, count = layer_counter(trace.graph, trace.instance_edges)
    steps = [
        {"edges": count(rec.active_edges), "nodes": len(rec.active_nodes), "ops": rec.op_count}
        for rec in trace.activity
    ]
    return {"m": m, "steps": steps, "width": trace.width}
