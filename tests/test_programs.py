"""Contracts that every algorithm's machine program keeps, layer by layer:
what a step returns, which processors a layer offers it to, that a run
steps as single layers do, and that its activity records every neighbour
cell an update depends on."""

import pytest

from pramtraj.algorithms import ALGORITHMS, spec_for
from pramtraj.algorithms.scc import dcsc_program, gen_digraph, kosaraju_program
from pramtraj.algorithms.search import binary_search_program, parallel_search_program
from pramtraj.algorithms.sorting import bubble_program, oets_program
from pramtraj.machine import UNDEF, LiveState, fold_trace, replay, step_machine

PROGRAMS = {
    "parallel_search": parallel_search_program,
    "binary_search": binary_search_program,
    "oets": oets_program,
    "bubble_sort": bubble_program,
    "dcsc": dcsc_program,
    "kosaraju": kosaraju_program,
}


def layer_states(trace):
    """(the state a layer read, as a snapshot, its delta, its record) per
    layer of a traced run."""
    before = trace.initial
    for state, delta, record in replay(trace):
        yield before, delta, record
        before = state.snapshot()
    assert before == trace.final


def instances(algo, sizes, seeds):
    """Drawn instances of ``algo``: every size and seed, and for SCC a
    digraph of every out-degree bound 1..3, drawn through ``gen_digraph``."""
    spec = spec_for(algo)
    for n in sizes:
        for seed in seeds:
            if spec.family == "scc":
                yield from (gen_digraph(n, degree, seed) for degree in (1, 2, 3))
            else:
                yield spec.generate(n, seed)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_every_update_is_none_or_a_plain_pair(algo):
    # the one update shape: None, or an exact 2-tuple (local, writes) whose
    # local is None or a dict
    updates = []

    def wrap(step):
        def recorded(ctx):
            update = step(ctx)
            updates.append(update)
            return update

        return recorded

    for inst in instances(algo, range(1, 7), range(3)):
        program = PROGRAMS[algo](inst)
        fold_trace(program._replace(step=wrap(program.step)))
    assert any(update is not None for update in updates)
    for update in updates:
        if update is not None:
            assert type(update) is tuple and len(update) == 2, update
            assert update[0] is None or type(update[0]) is dict, update


@pytest.mark.parametrize("algo", ["binary_search", "oets", "bubble_sort", "dcsc", "kosaraju"])
def test_every_offered_processor_is_active(algo):
    # a program without candidates offers every processor
    for inst in instances(algo, range(1, 9), range(4)):
        program = PROGRAMS[algo](inst)
        for before, _, record in layer_states(fold_trace(program)):
            if program.candidates is None:
                offered = set(range(before.width))
            else:
                offered = set(program.candidates(before))
            assert offered == record.active_nodes, (inst, record.step)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_layers_step_as_single_layer_calls_do(algo):
    # one step_machine call on the snapshot of a layer's state, made between
    # two layers of the replayed run and so through the context the run's
    # layers reuse, gives the delta and record that the run traced
    for inst in instances(algo, range(1, 7), range(3)):
        program = PROGRAMS[algo](inst)
        trace = fold_trace(program)
        for before, delta, record in layer_states(trace):
            assert not program.halt(before)
            candidates = None if program.candidates is None else program.candidates(before)
            assert step_machine(before, program.step, program.graph, candidates) == (delta, record)
        assert program.halt(trace.final)


def soundness_inputs(algo):
    """The exhaustive inputs of ``algo`` up to n = 5, every digraph with up to
    four nodes for SCC (the golden small digraphs)."""
    from test_golden import small_digraphs

    spec = spec_for(algo)
    if spec.exhaustive is None:
        return (g for _, _, g in small_digraphs())
    return (inst for n in range(1, 6) for inst in spec.exhaustive(n))


def alternatives(cell, width):
    """What a perturbation writes over a defined cell: values of its kind
    other than it (every node index, for an index)."""
    if type(cell) is float:
        return (cell - 2.0, cell + 2.0)
    if type(cell) is bool:
        return (not cell,)
    return tuple(v for v in range(width) if v != cell)


def node_updates(program, state, offered):
    """What the step returns to each processor in ``offered`` on ``state``,
    spelled by repr, from one step_machine call, which writes no state."""
    got = {}

    def step(ctx):
        update = program.step(ctx)
        got[ctx.pid] = repr(update)
        return update

    step_machine(state, step, program.graph, offered)
    return got


def audit_activity(program):
    """(live, inert) recorded edges of a run, after checking that no
    perturbation of a node that is not a recorded source of a processor
    changes that processor's update.  A recorded edge is live when some
    perturbation of one defined cell of its source changes its target's
    update, and inert otherwise."""
    live = inert = 0
    for before, _, record in layer_states(fold_trace(program)):
        width = before.width
        offered = range(width) if program.candidates is None else sorted(set(program.candidates(before)))
        base = node_updates(program, before, offered)
        state = LiveState(before)
        changed = set()  # (u, v): a perturbation of u changed v's update
        for u, row in enumerate(state.local):
            others = [v for v in offered if v != u]
            for slot, cell in enumerate(row):
                if cell is UNDEF or not others:
                    continue
                for value in alternatives(cell, width):
                    row[slot] = value
                    got = node_updates(program, state, others)
                    changed.update((u, v) for v in others if got[v] != base[v])
                row[slot] = cell
        assert changed <= record.active_edges, (record.step, changed - record.active_edges)
        live += len(record.active_edges & changed)
        inert += len(record.active_edges - changed)
    return live, inert


# algo -> (live, inert) recorded edges over its soundness inputs.  A dcsc
# node reads every neighbour's search cell, as a message-passing layer
# would, so a read stays inert where another neighbour alone decides the
# update; kosaraju's one processor has no edge.
EDGE_AUDIT = {
    "parallel_search": (70, 0),
    "binary_search": (43, 0),
    "oets": (2630, 0),
    "bubble_sort": (2728, 0),
    "dcsc": (18330, 3334),
    "kosaraju": (0, 0),
}


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_activity_records_every_edge_an_update_depends_on(algo):
    # the rule node and edge efficiency rest on: an edge is active when a
    # defined cell crossed it into an executed operation, so an update
    # depends on no other node's cells; of the recorded edges, those whose
    # source no single-cell perturbation can make matter are inert
    live = inert = 0
    for inst in soundness_inputs(algo):
        a, b = audit_activity(PROGRAMS[algo](inst))
        live += a
        inert += b
    assert (live, inert) == EDGE_AUDIT[algo]
