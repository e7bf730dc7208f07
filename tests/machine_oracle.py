"""A naive priority-CRCW layer, written from the machine model and not from
``pramtraj.machine.step_machine``, so that the tests can hold one against
the other.

One layer: every offered processor (all of them, or each listed candidate
once) runs the step on a context of its own, and every read it makes is of
the state before the layer.  A processor whose step returns ``None`` is
identity, and its reads are dropped.  One that returns ``(local, writes)``
is active: its reads of defined neighbour cells are the layer's active
edges, and its local overwrites replace cells of its own row.  The layer's
shared writes, sorted as (pid, order, address, value), keep the first write
per address: the lowest pid's, and that processor's first.  A layer with any
shared write counts one more operation, the graph-feature update.
"""

from pramtraj.machine import (
    UNDEF,
    ActivityRecord,
    CellTypeError,
    InterconnectionGraph,
    MachineError,
    MachineState,
    NeighborhoodViolation,
    StepFn,
    UndefinedValueError,
)


def _checked(cell, kind: type | None):
    """The cell, which must hold ``kind`` when one is given."""
    if kind is None or type(cell) is kind:
        return cell
    if cell is UNDEF:
        raise UndefinedValueError(f"undefined cell read as {kind.__name__}")
    raise CellTypeError(f"cell {cell!r} is not a {kind.__name__}")


class OracleContext:
    """The reads of one processor, each of the state before the layer, and
    the neighbour edges its defined reads crossed."""

    def __init__(self, state: MachineState, graph: InterconnectionGraph, pid: int) -> None:
        self.pid = pid
        self.clock = state.clock
        self.state = state
        self.graph = graph
        self.edges: list[tuple[int, int]] = []

    def own(self, slot: int, kind: type | None = None):
        return _checked(self.state.local[self.pid][slot], kind)

    def read(self, j: int, slot: int, kind: type | None = None):
        if j == self.pid or j not in self.graph.in_nbrs[self.pid]:
            raise NeighborhoodViolation(f"node {self.pid} may not read node {j}")
        cell = _checked(self.state.local[j][slot], kind)
        if cell is not UNDEF:
            self.edges.append((j, self.pid))
        return cell

    def shared(self, addr: int, kind: type | None = None):
        return _checked(self.state.shared[addr], kind)


def oracle_step(
    state: MachineState, step_fn: StepFn, graph: InterconnectionGraph, candidates=None
) -> tuple[MachineState, ActivityRecord]:
    """The state after one layer and its activity record."""
    width = len(state.local)
    offered = sorted(set(range(width) if candidates is None else candidates))
    for pid in offered:
        if not 0 <= pid < width:
            raise MachineError(f"candidate {pid} out of range")
    local = [list(row) for row in state.local]
    active: list[int] = []
    edges: set[tuple[int, int]] = set()
    writes = []
    for pid in offered:
        ctx = OracleContext(state, graph, pid)
        update = step_fn(ctx)
        if update is None:
            continue
        overwrites, shared_writes = update
        active.append(pid)
        edges.update(ctx.edges)
        for slot, value in (overwrites or {}).items():
            if not 0 <= slot < len(local[pid]):
                raise MachineError(f"local slot {slot} out of range")
            local[pid][slot] = value
        for order, (addr, value) in enumerate(shared_writes):
            if not 0 <= addr < len(state.shared):
                raise MachineError(f"shared address {addr} out of range")
            writes.append((pid, order, addr, value))
    shared = list(state.shared)
    kept = set()
    # (pid, order) is unique, so the sort never compares two values
    for _, _, addr, value in sorted(writes):
        if addr not in kept:
            kept.add(addr)
            shared[addr] = value
    clock = state.clock + 1
    after = MachineState(tuple(map(tuple, local)), tuple(shared), clock)
    wrote = bool(writes)
    record = ActivityRecord(clock, frozenset(active), frozenset(edges), len(active) + wrote, wrote)
    return after, record
