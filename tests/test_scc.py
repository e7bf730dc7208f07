from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pramtraj.algorithms.scc import DCSC, DONE, KOSARAJU, PIVOT_ADDR, PTR, Digraph, dcsc, dcsc_program, gen_digraph, kosaraju
from pramtraj.harness import sample_seed
from pramtraj.machine import UNDEF, CellTypeError, MachineState

from scc_oracle import dcsc_candidates_scan, pointers_to_partition, tarjan_scc


def reachability_partition(g):
    """Brute-force mutual-reachability oracle (transitive closure)."""
    n = g.n
    reach = [[False] * n for _ in range(n)]
    for u in range(n):
        reach[u][u] = True
    for u, v in g.edges:
        reach[u][v] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    groups = {}
    for u in range(n):
        key = frozenset(v for v in range(n) if reach[u][v] and reach[v][u])
        groups[key] = True
    return frozenset(groups)


class TestTarjanOracle:
    def test_hand_cases(self):
        g = Digraph(3, frozenset({(0, 1), (1, 0), (1, 2)}))
        assert frozenset(tarjan_scc(g)) == frozenset(
            {frozenset({0, 1}), frozenset({2})}
        )
        cyc = Digraph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
        assert frozenset(tarjan_scc(cyc)) == frozenset({frozenset({0, 1, 2})})

    @given(st.integers(1, 7), st.integers(0, 2_000))
    @settings(max_examples=80, deadline=None)
    def test_against_transitive_closure(self, n, seed):
        g = gen_digraph(n, 3, seed)
        assert frozenset(tarjan_scc(g)) == reachability_partition(g)


class TestDcsc:
    def test_example_two_components(self):
        g = Digraph(3, frozenset({(0, 1), (1, 0), (1, 2)}))
        ptr, _ = dcsc(g)
        assert ptr == (0, 0, 2)

    def test_single_node(self):
        ptr, _ = dcsc(Digraph(1, frozenset()))
        assert ptr == (0,)

    def test_three_cycle(self):
        ptr, _ = dcsc(Digraph(3, frozenset({(0, 1), (1, 2), (2, 0)})))
        assert ptr == (0, 0, 0)

    def test_representative_is_minimal_member(self):
        for seed in range(40):
            g = gen_digraph(9, 3, seed)
            ptr, _ = dcsc(g)
            for node, rep in enumerate(ptr):
                assert ptr[rep] == rep
            for comp in pointers_to_partition(ptr):
                rep = {ptr[u] for u in comp}
                assert rep == {min(comp)}

    def test_pivot_is_minimal_undiscovered(self):
        g = gen_digraph(10, 3, 77)
        _, trace = dcsc(g)
        for rec in trace.activity:
            before = trace.states[rec.step - 1]
            after = trace.states[rec.step]
            fresh_pivot = (
                len(rec.active_nodes) == 1
                and after.shared[PIVOT_ADDR] != before.shared[PIVOT_ADDR]
            )
            if fresh_pivot:
                pivot = after.shared[PIVOT_ADDR]
                undiscovered = [
                    u for u in range(10) if before.local[u][DONE] is False
                ]
                assert pivot == min(undiscovered)

    def test_depth_bound(self):
        for seed in (3, 14, 15):
            for n in (6, 12, 20):
                g = gen_digraph(n, 3, seed)
                _, trace = dcsc(g)
                assert trace.depth <= 2 * n * n + 4 * n
                assert trace.width == n

    @given(st.integers(1, 12), st.integers(0, 3_000))
    @settings(max_examples=80, deadline=None)
    def test_partition_matches_oracle(self, n, seed):
        g = gen_digraph(n, 3, seed)
        ptr, trace = dcsc(g)
        assert pointers_to_partition(ptr) == frozenset(tarjan_scc(g))


def _schedule_graphs():
    rng = Random(2000)
    for seed in range(300):
        yield gen_digraph(rng.randint(1, 64), rng.randint(1, 4), seed)
    yield Digraph(12, frozenset())
    yield Digraph(9, frozenset((u, v) for u in range(9) for v in range(9) if u != v))


class TestDcscSchedule:
    """dcsc's frontier schedule offers the processors that a scan of every
    undone node and its neighbours finds."""

    # 0 -> 1 -> 2 -> 0 is one component; 3 hangs off 2, and 4 points at 0
    G = Digraph(5, frozenset({(0, 1), (1, 2), (2, 0), (2, 3), (4, 0)}))

    def test_every_traced_state_matches_the_scan(self):
        checked = 0
        for g in _schedule_graphs():
            candidates = dcsc_program(g).candidates
            _, trace = dcsc(g)
            for state in trace.states:
                assert list(candidates(state)) == dcsc_candidates_scan(g, state)
                checked += 1
        assert checked > 300

    def _state(self, rows, pivot):
        return MachineState(tuple(rows), (pivot, True), 0)

    def _check(self, state, expected):
        candidates = dcsc_program(self.G).candidates
        assert list(candidates(state)) == expected
        assert dcsc_candidates_scan(self.G, state) == expected

    def test_fresh_pivot(self):
        rows = [(UNDEF, UNDEF, u, False) for u in range(5)]
        self._check(self._state(rows, UNDEF), [0])
        rows[0] = (0, 0, 0, False)
        # forward out of 0 reaches 1, backward into 0 reaches 2 and 4
        self._check(self._state(rows, 0), [1, 2, 4])

    def test_empty_frontier_closes_on_the_intersection(self):
        rows = [(0, 0, 0, False), (0, 0, 0, False), (0, 0, 0, False), (0, UNDEF, 3, False), (UNDEF, 0, 4, False)]
        self._check(self._state(rows, 0), [0, 1, 2])

    def test_done_nodes_are_never_offered(self):
        # round 0 closed {0, 1, 2}, so 3 is the next pivot
        rows = [(0, 0, 0, True), (0, 0, 0, True), (0, 0, 0, True), (UNDEF, UNDEF, 3, False), (UNDEF, 0, 4, False)]
        self._check(self._state(rows, 0), [3])
        # 3's only neighbour, 2, is done: the round closes on 3 alone
        rows[3] = (3, 3, 3, False)
        self._check(self._state(rows, 3), [3])

    def test_every_node_done(self):
        rows = [(0, 0, 0, True), (0, 0, 0, True), (0, 0, 0, True), (3, 3, 3, True), (4, 4, 4, True)]
        state = self._state(rows, 4)
        self._check(state, [])
        assert dcsc_program(self.G).halt(state)


class TestKosaraju:
    def test_example_partition(self):
        g = Digraph(3, frozenset({(0, 1), (1, 0), (1, 2)}))
        ptr, _ = kosaraju(g)
        assert pointers_to_partition(ptr) == frozenset(
            {frozenset({0, 1}), frozenset({2})}
        )

    def test_edgeless_singletons(self):
        ptr, _ = kosaraju(Digraph(4, frozenset()))
        assert pointers_to_partition(ptr) == frozenset(
            frozenset({u}) for u in range(4)
        )

    def test_sequential_activity_profile(self):
        g = gen_digraph(10, 3, 5)
        _, trace = kosaraju(g)
        assert trace.width == 1
        for rec in trace.activity:
            assert len(rec.active_nodes) <= 2
            assert rec.op_count <= trace.width + 1

    def test_depth_within_two_passes(self):
        for seed in range(25):
            for n in (1, 4, 9, 16):
                g = gen_digraph(n, 3, seed)
                _, trace = kosaraju(g)
                assert trace.depth <= 2 * (g.n + g.m) + 2

    @given(st.integers(1, 12), st.integers(0, 3_000))
    @settings(max_examples=80, deadline=None)
    def test_partition_matches_oracle(self, n, seed):
        g = gen_digraph(n, 3, seed)
        ptr, _ = kosaraju(g)
        assert pointers_to_partition(ptr) == frozenset(tarjan_scc(g))
        for rep in set(ptr):
            assert ptr[rep] == rep


def test_a_frame_pointer_that_is_not_an_index_raises():
    # the decoders test the pointers' types at once and leave the error to as_index
    g = Digraph(3, frozenset({(0, 1), (1, 0), (1, 2)}))
    # (a changed cell is decoded afresh also where the frame before is given)
    _, trace = dcsc(g)
    before, after = trace.states[1:3]
    rows = list(after.local)
    rows[1] = rows[1][:PTR] + (True,) + rows[1][PTR + 1 :]
    for prev in (None, DCSC.frame(g, trace.states[0], before, None)):
        with pytest.raises(CellTypeError, match="cell True is not a index"):
            DCSC.frame(g, before, after._replace(local=tuple(rows)), prev)
    _, trace = kosaraju(g)
    before, after = trace.states[-2:]
    shared = list(after.shared)
    shared[3 * g.n + 2] = 1.0  # node 2's cell of the component block
    for prev in (None, KOSARAJU.frame(g, trace.states[-3], before, None)):
        with pytest.raises(CellTypeError, match="cell 1.0 is not a index"):
            KOSARAJU.frame(g, before, after._replace(shared=tuple(shared)), prev)


def test_pairs_agree_on_partitions():
    for seed in range(30):
        g = gen_digraph(11, 3, sample_seed(9, "scc", 11, seed))
        ptr_d, _ = dcsc(g)
        ptr_k, _ = kosaraju(g)
        assert pointers_to_partition(ptr_d) == pointers_to_partition(ptr_k)


def test_digraph_views():
    g = Digraph(3, frozenset({(0, 1), (1, 2)}))
    assert [g.out_neighbors(u) for u in range(3)] == [(1,), (2,), ()]
    assert [g.in_neighbors(u) for u in range(3)] == [(), (0,), (1,)]
    with pytest.raises(ValueError):
        Digraph(2, frozenset({(0, 0)}))


def _table_digraph_edges(n, max_degree, seed):
    """The edges ``gen_digraph`` drew when it sampled each node's targets from
    a table of the n - 1 other nodes, in order."""
    rng = Random(seed)
    edges = set()
    others = {u: [v for v in range(n) if v != u] for u in range(n)}
    for u in range(n):
        degree = rng.randint(0, min(max_degree, n - 1))
        if degree:
            for v in rng.sample(others[u], degree):
                edges.add((u, v))
    return frozenset(edges)


@pytest.mark.parametrize("max_degree", [1, 2, 3, 5])
def test_gen_digraph_draws_what_the_table_of_other_nodes_drew(max_degree):
    # sizes on both sides of random.sample's switch from a pool to a set
    for n in range(1, 70):
        for seed in range(10):
            assert gen_digraph(n, max_degree, seed).edges == _table_digraph_edges(n, max_degree, seed), (n, seed)
