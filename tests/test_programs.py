"""Contracts that every algorithm's machine program keeps, layer by layer:
what a step returns, which processors a layer offers it to, and that a run
steps as single layers do."""

import pytest

from pramtraj.algorithms import ALGORITHMS, spec_for
from pramtraj.algorithms.scc import dcsc_program, gen_digraph, kosaraju_program
from pramtraj.algorithms.search import binary_search_program, parallel_search_program
from pramtraj.algorithms.sorting import bubble_program, oets_program
from pramtraj.machine import layers, step_machine

PROGRAMS = {
    "parallel_search": parallel_search_program,
    "binary_search": binary_search_program,
    "oets": oets_program,
    "bubble_sort": bubble_program,
    "dcsc": dcsc_program,
    "kosaraju": kosaraju_program,
}


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
        for _ in layers(program._replace(step=wrap(program.step))):
            pass
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
        for before, _, record in layers(program):
            if program.candidates is None:
                offered = set(range(before.width))
            else:
                offered = set(program.candidates(before))
            assert offered == record.active_nodes, (inst, record.step)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_layers_step_as_single_layer_calls_do(algo):
    # one step_machine call on a layer's state, made between two layers of
    # the run and so through the context the run's layers reuse, gives the
    # state and record that layers yields
    for inst in instances(algo, range(1, 7), range(3)):
        program = PROGRAMS[algo](inst)
        state = program.initial
        for before, after, record in layers(program):
            assert before == state
            candidates = None if program.candidates is None else program.candidates(before)
            assert step_machine(before, program.step, program.graph, candidates) == (after, record)
            state = after
        assert program.halt(state)
