import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pramtraj.algorithms.sorting import (
    SortInstance,
    bubble_schedule,
    bubble_sort,
    gen_permutation,
    oets_sort,
)

from sort_oracle import chain_order


def stable_order(items):
    """Independent comparison-sort oracle: node ids in ascending item order,
    ties broken by original index."""
    return [k for _, k in sorted(zip(items, range(len(items))))]


def table_at(trace, t, n):
    return list(trace.states[t].shared[:n])


def values_in_order(inst, table):
    return [inst.items[node] for node in table]


class TestOets:
    def test_round_by_round_example(self):
        inst = SortInstance(items=(3.0, 1.0, 2.0))
        pred, trace = oets_sort(inst)
        seq = [values_in_order(inst, table_at(trace, t, 3)) for t in range(trace.depth + 1)]
        assert seq[0] == [3.0, 1.0, 2.0]
        assert seq[1] == [1.0, 3.0, 2.0]
        assert seq[2] == [1.0, 2.0, 3.0]
        assert trace.depth == 3  # third round is the swap-free cap round
        assert chain_order(pred) == stable_order(inst.items)

    def test_sorted_input_never_swaps(self):
        inst = SortInstance(items=(1.0, 2.0, 3.0))
        pred, trace = oets_sort(inst)
        tables = [table_at(trace, t, 3) for t in range(trace.depth + 1)]
        assert all(table == [0, 1, 2] for table in tables)
        assert pred == (0, 0, 1)

    def test_reversed_input_runs_n_rounds(self):
        for n in (3, 6, 8, 13):
            inst = SortInstance(items=tuple(float(n - i) for i in range(n)))
            pred, trace = oets_sort(inst)
            assert trace.depth == n
            assert chain_order(pred) == stable_order(inst.items)

    def test_even_phase_activity(self):
        inst = SortInstance(items=(4.0, 3.0, 2.0, 1.0))
        _, trace = oets_sort(inst)
        first = trace.activity[0]
        assert first.active_nodes == {0, 1, 2, 3}
        assert first.active_edges == {(0, 1), (1, 0), (2, 3), (3, 2)}

    def test_round_pairing_parity(self):
        inst = SortInstance(items=(5.0, 4.0, 3.0, 2.0, 1.0))
        _, trace = oets_sort(inst)
        for rec in trace.activity:
            phase = (rec.step - 1) % 2
            pairs = {tuple(sorted(e)) for e in rec.active_edges}
            table = trace.states[rec.step - 1].shared[:5]
            pos = {node: k for k, node in enumerate(table)}
            for u, v in pairs:
                k = min(pos[u], pos[v])
                assert abs(pos[u] - pos[v]) == 1
                assert k % 2 == phase

    def test_no_node_in_two_comparisons_per_round(self):
        inst = gen_permutation(9, 99)
        _, trace = oets_sort(inst)
        for rec in trace.activity:
            degree = {}
            for u, v in rec.active_edges:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            assert all(d <= 2 for d in degree.values())


class TestBubble:
    def test_fixed_schedule_example(self):
        inst = SortInstance(items=(3.0, 1.0, 2.0))
        pred, trace = bubble_sort(inst)
        assert trace.depth == 3  # n(n-1)/2 comparisons, early exit disabled
        assert chain_order(pred) == stable_order(inst.items)

    def test_singleton_depth_zero(self):
        pred, trace = bubble_sort(SortInstance(items=(1.0,)))
        assert trace.depth == 0
        assert pred == (0,)

    def test_single_pair(self):
        pred, trace = bubble_sort(SortInstance(items=(2.0, 1.0)))
        assert trace.depth == 1
        assert trace.states[-1].shared[:2] == (1, 0)
        assert chain_order(pred) == [1, 0]

    def test_activity_is_exactly_the_compared_pair(self):
        inst = gen_permutation(8, 41)
        _, trace = bubble_sort(inst)
        slots = bubble_schedule(8)[1]
        for rec in trace.activity:
            j = slots[rec.step - 1]
            table = trace.states[rec.step - 1].shared
            assert rec.active_nodes == {table[j], table[j + 1]}
            assert len(rec.active_edges) <= 4

    def test_depth_is_exactly_schedule_length(self):
        for n in (2, 5, 9):
            inst = gen_permutation(n, n)
            _, trace = bubble_sort(inst)
            assert trace.depth == n * (n - 1) // 2


class TestPairAgreement:
    @given(st.integers(1, 12), st.integers(0, 5_000))
    @settings(max_examples=100, deadline=None)
    def test_chains_match_oracle(self, n, seed):
        inst = gen_permutation(n, seed)
        pred_o, trace_o = oets_sort(inst)
        pred_b, trace_b = bubble_sort(inst)
        assert pred_o == pred_b
        assert chain_order(pred_o) == stable_order(inst.items)
        assert trace_o.depth <= n
        assert trace_b.depth == n * (n - 1) // 2

    @given(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_duplicates_sort_stably(self, items):
        inst = SortInstance(items=tuple(items))
        pred_o, _ = oets_sort(inst)
        pred_b, _ = bubble_sort(inst)
        assert chain_order(pred_o) == stable_order(items)
        assert pred_o == pred_b

    def test_multiset_preserved_every_round(self):
        inst = gen_permutation(7, 123)
        canon = list(range(7))
        for sort_fn in (oets_sort, bubble_sort):
            _, trace = sort_fn(inst)
            for state in trace.states:
                assert sorted(state.shared[:7]) == canon


def test_instance_validation():
    with pytest.raises(ValueError):
        SortInstance(items=())


def test_oets_round_reads_are_sound():
    # active-edge soundness on the real round step: perturbing the partner's
    # item changes what a pair member reads; perturbing an unrelated node's
    # item never does
    from pramtraj.algorithms.sorting import oets_program
    from pramtraj.machine import MachineState

    from machine_support import probe_step_reads

    inst = SortInstance(items=(4.0, 3.0, 2.0, 1.0))
    program = oets_program(inst)
    initial, step, graph = program.initial, program.step, program.graph
    pair_members = tuple(program.candidates(initial))

    def reads(state):
        return probe_step_reads(state, step, graph, pair_members)

    base = reads(initial)
    # node 0's round-0 partner is node 1
    poked_local = list(initial.local)
    poked_local[1] = (9.5, 1)
    assert reads(MachineState(tuple(poked_local), initial.shared, 0))[0] != base[0]
    # node 3 is outside node 0's pair
    poked_local = list(initial.local)
    poked_local[3] = (9.5, 3)
    assert reads(MachineState(tuple(poked_local), initial.shared, 0))[0] == base[0]


def test_bubble_states_share_the_item_rows():
    # a bubble node keeps only its item, and a swap writes only the position
    # table: every state of a run holds the initial local tuple itself
    inst = gen_permutation(9, 5)
    _, trace = bubble_sort(inst)
    rows = trace.states[0].local
    assert rows == tuple((item,) for item in inst.items)
    assert trace.depth == 36
    assert all(state.local is rows for state in trace.states)


def test_bubble_layer_reads_are_sound():
    # the bubble step takes its role from the table: perturbing the partner's
    # item changes what a pair member reads, perturbing an unrelated node's
    # item never does, and swapping the two table cells at the compared slot
    # swaps which member writes which cell
    from pramtraj.algorithms.sorting import bubble_program
    from pramtraj.machine import MachineState, NodeContext

    from machine_support import probe_step_reads

    inst = SortInstance(items=(4.0, 3.0, 2.0, 1.0))
    program = bubble_program(inst)
    initial, step, graph = program.initial, program.step, program.graph
    assert tuple(program.candidates(initial)) == (0, 1)  # slot 0 at clock 0

    def reads(state):
        return probe_step_reads(state, step, graph, program.candidates(state))

    def poked(state, node, item):
        local = list(state.local)
        local[node] = (item,)
        return MachineState(tuple(local), state.shared, state.clock)

    def updates(state):
        out = {}
        for pid in program.candidates(state):
            ctx = NodeContext(state, graph, [])
            ctx.pid = pid
            out[pid] = step(ctx)
        return out

    base = reads(initial)
    assert base == {0: [(1, 0, 3.0)], 1: [(0, 0, 4.0)]}
    assert reads(poked(initial, 1, 9.5))[0] != base[0]
    assert reads(poked(initial, 0, 0.5))[1] != base[1]
    assert reads(poked(initial, 3, 9.5)) == base

    # node 0 sits at slot 0, so it is the left member and moves to slot 1
    assert updates(initial) == {0: (None, ((1, 0),)), 1: (None, ((0, 1),))}
    # with the table cells and the two items swapped, node 1 is the left member
    swapped = MachineState(((3.0,), (4.0,), (2.0,), (1.0,)), (1, 0, 2, 3), 0)
    assert reads(swapped) == {0: [(1, 0, 4.0)], 1: [(0, 0, 3.0)]}
    assert updates(swapped) == {0: (None, ((0, 0),)), 1: (None, ((1, 1),))}
