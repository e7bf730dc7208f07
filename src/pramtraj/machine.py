"""Synchronous priority-CRCW machine with per-layer activity recording.

The machine holds ``width`` processors, each with a fixed-size list of local
cells, plus a shared memory (the graph-level feature).  One layer, one
``step_machine`` call, runs a per-processor transition function against the
*previous* state and records which nodes executed a non-identity operation,
which edges carried information into them and how many operations ran.
Shared memory is not a node and has no edges: a layer that writes it counts
one extra operation, the graph-feature update, and nothing more.

A processor reads its own cells (``own``), an in-neighbour's (``read``, the
one source that crosses an edge) and shared memory (``shared``).  A cell is a
``float`` (scalar), an ``int`` (node index), a ``bool`` (flag) or ``UNDEF``,
which stores no information, so reading it never records an active edge.

An algorithm describes one run as a ``Program``: initial state, step,
graph, halt predicate, step budget, optional candidates and instance edges,
and ``output``, which reads the result off the final state.  ``run_machine``
folds a run into a ``Trace`` (``fold_trace``: every state, for decoding hint
frames, each an immutable ``MachineState`` that shares the rows a layer left
alone) or into ``RunCounts`` (``fold_counts``: the run's integer counts, from
one ``LiveState`` that each layer updates in place), and returns the
program's output with the folded run.
"""

from __future__ import annotations

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

    def apply(self, updates: list[tuple[int, Mapping[int, Cell]]], written: dict[int, Cell], clock: int) -> MachineState:
        """The snapshot after a layer's buffered writes; it shares every row
        they leave alone, and the shared tuple when there are none."""
        local, shared = self.local, self.shared
        if updates:
            local = list(local)
            for pid, update in updates:
                row = list(local[pid])
                for slot, value in update.items():
                    row[slot] = value
                local[pid] = tuple(row)
            local = tuple(local)
        if written:
            shared = list(shared)
            for addr, value in written.items():
                shared[addr] = value
            shared = tuple(shared)
        # tuple.__new__ skips the generated NamedTuple constructor's frame
        return _new_tuple(MachineState, (local, shared, clock))


class LiveState:
    """The one state a counted run steps: its rows and shared memory are
    lists, which ``apply`` writes in place.  Each is made by ``[*x]``, which
    reuses a freed list where ``list(x)`` would not."""

    __slots__ = ("local", "shared", "clock")

    def __init__(self, state: MachineState) -> None:
        self.local = [[*row] for row in state.local]
        self.shared = [*state.shared]
        self.clock = state.clock

    def apply(self, updates: list[tuple[int, Mapping[int, Cell]]], written: dict[int, Cell], clock: int) -> LiveState:
        local, shared = self.local, self.shared
        for pid, update in updates:
            row = local[pid]
            for slot, value in update.items():
                row[slot] = value
        for addr, value in written.items():
            shared[addr] = value
        self.clock = clock
        return self


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
    """What happened at one layer.  ``active_edges`` holds the graph edges
    whose source cell was read through ``NodeContext.read``, held a defined
    value, and fed an executed operation; a layer that writes shared memory
    counts one extra operation (``graph_op``)."""

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

    ``step_machine`` reuses one context, ``_CONTEXT``, for every layer, set
    to the layer's state, graph and fresh edge list (``edge_reads``) and
    ``pid`` to each processor in turn: a step must not keep it or run a layer.
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
    state: MachineState | LiveState,
    step_fn: StepFn,
    graph: InterconnectionGraph,
    candidates: Sequence[int] | None = None,
) -> tuple[MachineState | LiveState, ActivityRecord]:
    """One synchronous layer.

    ``candidates`` optionally restricts which processors are offered the step
    function, as a sequence of pids in any order, each run once however
    often it appears; every other processor is identity.  ``step_fn`` returns
    ``None`` for identity (the node is not active and its reads are
    discarded) or a ``(local, writes)`` pair (see ``StepFn``).  The processors
    run in ascending pid order against ``state`` as it was.  Their local
    updates are buffered, and so is the first write to each shared address,
    the lowest pid's and that processor's first; then ``state.apply`` applies
    both.  A ``MachineError`` raised in the layer keeps its type and its
    message ends ``(layer t, node p)``: t is the ``step`` of the layer's
    record, p the processor that raised it (a candidate out of range names
    the layer only).
    """
    local_rows = state.local
    width = len(local_rows)
    shared_len = len(state.shared)
    updates: list[tuple[int, Mapping[int, Cell]]] = []
    written: dict[int, Cell] = {}
    active: list[int] = []
    edges: list[tuple[int, int]] = []
    ctx = _CONTEXT
    ctx.clock, ctx._local, ctx._shared = state.clock, local_rows, state.shared
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
                size = len(local_rows[pid])
                for slot in local_update:
                    if not 0 <= slot < size:
                        raise MachineError(f"local slot {slot} out of range")
                updates.append((pid, local_update))
            if writes:
                for addr, value in writes:
                    if not 0 <= addr < shared_len:
                        raise MachineError(f"shared address {addr} out of range")
                    if addr not in written:
                        written[addr] = value
    except MachineError as err:
        node = "" if pid is None else f", node {pid}"
        raise type(err)(f"{err} (layer {state.clock + 1}{node})") from err

    clock = state.clock + 1
    wrote = bool(written)
    nodes = frozenset(active) if active else _EMPTY
    record = (clock, nodes, frozenset(edges) if edges else _EMPTY, len(active) + wrote, wrote)
    return state.apply(updates, written, clock), _new_tuple(ActivityRecord, record)


class Program(NamedTuple):
    """One run of an algorithm, described whole: from ``initial`` on
    ``graph``, apply ``step`` to the processors ``candidates(state)`` offers
    (all when ``candidates`` is ``None``) until ``halt(state)``, within
    ``max_steps`` layers (``algo_id`` names the run in the step-limit error),
    and read the result off the final state with ``output``.  The three read
    a state's ``local``, ``shared`` and ``clock`` as sequences, so they run
    on a ``MachineState`` or a ``LiveState``.  ``instance_edges``, where set,
    are the instance's directed edges that activity is counted against."""

    algo_id: str
    initial: MachineState
    step: StepFn
    graph: InterconnectionGraph
    halt: Callable[[MachineState], bool]
    max_steps: int
    output: Callable[[MachineState], Any]
    candidates: Callable[[MachineState], Sequence[int]] | None = None
    instance_edges: frozenset[tuple[int, int]] | None = None


def layers(program: Program) -> Iterator[tuple[MachineState, MachineState, ActivityRecord]]:
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


def fold_trace(program: Program) -> Trace:
    """Every state and record of a run, as a ``Trace``."""
    states = [program.initial]
    activity: list[ActivityRecord] = []
    for _, after, record in layers(program):
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
    layer's ``edges`` counts its active edges, the neighbour reads of its
    executed operations, against that graph: by ``len`` for a plain task;
    a run tied to a directed instance folds each onto the instance edge it
    traverses, so an edge used both ways in one layer counts once.
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
    state: ``depth``, the ``ops``, active ``nodes`` and active ``edges``
    summed over its layers, and the largest layer's edges (``edge_max``).
    Its edge efficiency is ``edges / (m x depth)``, 0 where that is 0/0."""

    width: int
    m: int
    final: MachineState
    depth: int
    ops: int
    nodes: int
    edges: int
    edge_max: int


def fold_counts(program: Program) -> RunCounts:
    """The counts of a run, taken one layer at a time from one ``LiveState``
    that every layer writes in place, so a run holds one state whatever its
    depth; ``final`` is a snapshot of it."""
    step_fn, graph, halt, max_steps = program.step, program.graph, program.halt, program.max_steps
    candidates_fn = program.candidates
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    m, count = layer_counter(graph, program.instance_edges)
    state = LiveState(program.initial)
    depth = ops = nodes = edges = edge_max = 0
    while not halt(state):
        if depth >= max_steps:
            raise StepLimitExceeded(f"{program.algo_id} did not halt within {max_steps} steps")
        cands = candidates_fn(state) if candidates_fn is not None else None
        _, active_nodes, active_edges, op_count, _ = step_machine(state, step_fn, graph, cands)[1]
        layer_edges = count(active_edges)
        depth += 1
        ops += op_count
        nodes += len(active_nodes)
        edges += layer_edges
        if layer_edges > edge_max:
            edge_max = layer_edges
    final = MachineState(tuple(map(tuple, state.local)), tuple(state.shared), state.clock)
    # let go of the lists the reused context holds, for the next run's copy
    _CONTEXT._local = _CONTEXT._shared = ()
    return RunCounts(final.width, m, final, depth, ops, nodes, edges, edge_max)


Fold = Callable[[Program], Any]


def run_machine(program: Program, fold: Fold = fold_trace) -> tuple[Any, Trace | RunCounts]:
    """Run ``program`` and read its output off the final state: returns
    ``(output, folded)``, the run folded by ``fold`` into a ``Trace`` by
    default, into ``RunCounts`` with ``fold_counts``."""
    folded = fold(program)
    return program.output(folded.final), folded
