"""``step_machine`` against the naive layer of ``machine_oracle``: the same
state and activity record on every layer of the six programs, traced, and
the same counts and final state of each program's live run; the same on
drawn toy layers, and the same exception type where a layer is at fault."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pramtraj.algorithms import ALGORITHMS, spec_for
from pramtraj.machine import (
    UNDEF,
    LiveState,
    MachineError,
    MachineState,
    NeighborhoodViolation,
    RunCounts,
    fold_counts,
    fold_trace,
    interconnection,
    layer_counter,
    replay,
    step_machine,
)

from machine_oracle import oracle_step
from machine_support import step_once
from test_programs import instances


def assert_same_layer(got, expected):
    # the states' repr tells True from 1 and -0.0 from 0.0, which == does not
    assert got == expected and repr(got[0]) == repr(expected[0])


def oracle_run(program):
    """The states and records of a run that the oracle steps, from the
    program's initial state until its halt predicate fires."""
    states, records = [program.initial], []
    while not program.halt(states[-1]):
        assert len(records) < program.max_steps
        before = states[-1]
        candidates = None if program.candidates is None else program.candidates(before)
        after, record = oracle_step(before, program.step, program.graph, candidates)
        states.append(after)
        records.append(record)
    return states, records


def oracle_checked(program):
    """``fold_counts`` of a run, whose live state must count what the
    oracle-stepped run records and end in its final cells; the run folded
    into a trace, replayed, must step as the oracle does, layer by layer,
    and its initial and final states stay immutable."""
    states, records = oracle_run(program)
    trace = fold_trace(program)
    assert len(trace.activity) == len(records)
    for t, (state, _, record) in enumerate(replay(trace), 1):
        assert_same_layer((state.snapshot(), record), (states[t], records[t - 1]))
    assert repr(trace.final) == repr(states[-1])
    hash((trace.initial, trace.final))
    m, count = layer_counter(program.graph, program.instance_edges)
    edges = [count(record.active_edges) for record in records]
    expected = RunCounts(
        program.initial.width,
        m,
        states[-1],
        len(records),
        sum(record.op_count for record in records),
        sum(len(record.active_nodes) for record in records),
        sum(edges),
        max(edges, default=0),
    )
    counts = fold_counts(program)
    assert counts == expected and repr(counts.final) == repr(states[-1])
    return counts


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_every_layer_of_every_program(algo):
    run = spec_for(algo).run
    assert sum(run(inst, oracle_checked)[1].depth for inst in instances(algo, range(1, 9), range(4))) > 0


CELLS = st.sampled_from((0, 1, 2, 0.5, 0.0, -0.0, True, False, UNDEF))


@st.composite
def toy_layers(draw):
    """A state, a graph, a step given as a plan per processor, and
    candidates.  A plan reads cells (untyped, or typed as the cell is) and is
    identity or returns overwrites and shared writes, each a drawn cell or
    the value of one of its reads; the few shared addresses make repeated
    writes to one address common."""
    width = draw(st.integers(1, 6))
    slots = draw(st.integers(1, 3))
    size = draw(st.integers(1, 3))
    row = st.lists(CELLS, min_size=slots, max_size=slots).map(tuple)
    state = MachineState(
        tuple(draw(st.lists(row, min_size=width, max_size=width))),
        tuple(draw(st.lists(CELLS, min_size=size, max_size=size))),
        draw(st.integers(0, 3)),
    )
    pairs = st.tuples(st.integers(0, width - 1), st.integers(0, width - 1)).filter(lambda e: e[0] != e[1])
    graph = interconnection(width, draw(st.sets(pairs, max_size=2 * width)))
    value = st.one_of(CELLS.map(lambda cell: ("cell", cell)), st.integers(0, 3).map(lambda k: ("read", k)))
    plans = []
    for pid in range(width):
        sources = [("own", (slot,), state.local[pid][slot]) for slot in range(slots)]
        sources += [("shared", (addr,), state.shared[addr]) for addr in range(size)]
        sources += [("read", (j, slot), state.local[j][slot]) for j in graph.in_nbrs[pid] for slot in range(slots)]
        reads = []
        for reader, args, cell in draw(st.lists(st.sampled_from(sources), max_size=4)):
            typed = cell is not UNDEF and draw(st.booleans())
            reads.append((reader, args, type(cell) if typed else None))
        update = None
        if draw(st.booleans()):
            local = draw(st.dictionaries(st.integers(0, slots - 1), value, max_size=slots))
            writes = draw(st.lists(st.tuples(st.integers(0, size - 1), value), max_size=4))
            update = (local, writes)
        plans.append((reads, update))
    candidates = draw(st.none() | st.lists(st.integers(0, width - 1), max_size=2 * width))
    return state, graph, plans, candidates


def plan_step(plans):
    """The step function that carries out one plan per processor."""

    def step(ctx):
        reads, update = plans[ctx.pid]
        got = [getattr(ctx, reader)(*args, kind) for reader, args, kind in reads]
        if update is None:
            return None

        def resolved(value):
            source, x = value
            return x if source == "cell" else (got[x] if x < len(got) else UNDEF)

        local, writes = update
        return (
            {slot: resolved(v) for slot, v in local.items()},
            [(addr, resolved(v)) for addr, v in writes],
        )

    return step


@given(toy_layers())
@settings(max_examples=300, deadline=None)
def test_toy_layers(layer):
    state, graph, plans, candidates = layer
    step = plan_step(plans)
    expected = oracle_step(state, step, graph, candidates)
    assert_same_layer(step_once(state, step, graph, candidates), expected)
    # a layer reads a live state as it reads a snapshot, and writes neither
    live = LiveState(state)
    assert step_machine(live, step, graph, candidates) == step_machine(state, step, graph, candidates)
    assert repr(live.snapshot()) == repr(state)


def _raised(stepper, *args):
    with pytest.raises(Exception) as info:
        stepper(*args)
    return info.type


# width 3 on the path 0 -> 1 -> 2, two local slots and two shared cells
_STATE = MachineState(((0, 1), (2, UNDEF), (4, 5.0)), (0, 1), 0)
_GRAPH = interconnection(3, [(0, 1), (1, 2)])
_FAULTS = {
    "local slot": (lambda ctx: ({2: 0}, ()), None, MachineError),
    "negative local slot": (lambda ctx: ({-1: 0}, ()), None, MachineError),
    "shared address": (lambda ctx: (None, [(0, 1), (2, 1)]), None, MachineError),
    "negative shared address": (lambda ctx: (None, [(-1, 1)]), None, MachineError),
    "candidate": (lambda ctx: None, [0, 3], MachineError),
    "negative candidate": (lambda ctx: None, [-1, 1], MachineError),
    "read of itself": (lambda ctx: ctx.read(ctx.pid, 0), None, NeighborhoodViolation),
    "read against an edge": (lambda ctx: ctx.read(2, 0) if ctx.pid == 1 else None, None, NeighborhoodViolation),
    "typed read of UNDEF": (lambda ctx: ctx.read(1, 1, int) if ctx.pid == 2 else None, None, MachineError),
    "read of the wrong type": (lambda ctx: ctx.shared(0, float), None, MachineError),
}


@pytest.mark.parametrize("fault", _FAULTS)
def test_a_faulty_layer_raises_the_same_type(fault):
    step, candidates, family = _FAULTS[fault]
    raised = _raised(step_machine, _STATE, step, _GRAPH, candidates)
    assert issubclass(raised, family)
    assert _raised(oracle_step, _STATE, step, _GRAPH, candidates) is raised
    assert _raised(step_machine, LiveState(_STATE), step, _GRAPH, candidates) is raised
