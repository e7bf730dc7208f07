"""Machine helpers that only the tests use: an all-UNDEF state and a probe
that records what each processor of one step read."""

from pramtraj.machine import (
    UNDEF,
    Cell,
    InterconnectionGraph,
    MachineState,
    NodeContext,
    StepFn,
)


def fresh_state(width: int, slots: int, shared_size: int) -> MachineState:
    """All-UNDEF state; uninitialized reads then fail loudly."""
    row = (UNDEF,) * slots
    return MachineState((row,) * width, (UNDEF,) * shared_size, 0)


class _RecordingContext(NodeContext):
    """NodeContext of one processor that also logs (source, slot, value) per read."""

    __slots__ = ("log",)

    def __init__(self, state: MachineState, graph: InterconnectionGraph, pid: int) -> None:
        super().__init__(state, graph, [])
        self.pid = pid
        self.log: list[tuple[int, int, Cell]] = []

    def read(self, j: int, slot: int, kind: type | None = None) -> Cell:
        cell = super().read(j, slot, kind)
        self.log.append((j, slot, cell))
        return cell


def probe_step_reads(
    state: MachineState,
    step_fn: StepFn,
    graph: InterconnectionGraph,
    candidates=None,
) -> dict[int, list[tuple[int, int, Cell]]]:
    """Re-run one step capturing, per active node, every neighbor read.

    Supports the active-edge soundness check: perturbing the source of a
    recorded edge must be able to change the target's inputs, perturbing any
    other defined cell must not.
    """
    width = len(state.local)
    pids = range(width) if candidates is None else sorted(set(candidates))
    reads: dict[int, list[tuple[int, int, Cell]]] = {}
    for pid in pids:
        ctx = _RecordingContext(state, graph, pid)
        if step_fn(ctx) is not None:
            reads[pid] = ctx.log
    return reads
