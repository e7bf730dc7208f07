import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pramtraj.algorithms.search import (
    SearchInstance,
    binary_search,
    gen_search_instance,
    parallel_search,
)
from pramtraj.harness import sample_seed


def rank_oracle(items, x):
    """Independent linear scan: min index with item <= x, else n."""
    for i, a in enumerate(items):
        if a <= x:
            return i
    return len(items)


def test_example_descending_five():
    inst = SearchInstance(items=(9.0, 7.0, 5.0, 3.0, 1.0), x=5.0)
    assert rank_oracle(inst.items, inst.x) == 2
    assert parallel_search(inst)[0] == 2
    assert binary_search(inst)[0] == 2


def test_example_all_qualify():
    inst = SearchInstance(items=(3.0, 2.0, 1.0), x=10.0)
    assert parallel_search(inst)[0] == 0
    assert binary_search(inst)[0] == 0


def test_example_none_qualify_maps_to_placeholder():
    inst = SearchInstance(items=(3.0, 2.0, 1.0), x=0.0)
    assert rank_oracle(inst.items, inst.x) == 3
    assert parallel_search(inst)[0] == 3
    assert binary_search(inst)[0] == 3


def test_single_item_depth_one():
    inst = SearchInstance(items=(4.0,), x=4.0)
    rank, trace = binary_search(inst)
    assert rank == 0
    assert trace.depth == 1


def test_parallel_trace_shape():
    inst = SearchInstance(items=(9.0, 7.0, 5.0, 3.0, 1.0), x=5.0)
    rank, trace = parallel_search(inst)
    n = inst.n
    assert trace.width == n + 1
    assert trace.depth == 2
    first, second = trace.activity
    # layer 1: every item node reads the query node
    assert first.active_nodes == set(range(n))
    assert first.active_edges == {(n, i) for i in range(n)}
    assert not first.graph_op
    # layer 2: qualifying nodes and the placeholder race for the rank cell
    assert second.active_nodes == {2, 3, 4, n}
    assert second.graph_op
    assert second.op_count == len(second.active_nodes) + 1


def test_parallel_depth_constant_across_sizes():
    depths = set()
    for n in (1, 4, 8, 64, 256):
        inst = gen_search_instance(n, sample_seed(5, "parallel_search", n, 0))
        depths.add(parallel_search(inst)[1].depth)
    assert depths == {2}


def test_binary_depth_and_activity_bounds():
    for n in (1, 2, 3, 8, 17, 64):
        for idx in range(10):
            inst = gen_search_instance(n, sample_seed(6, "binary_search", n, idx))
            rank, trace = binary_search(inst)
            assert trace.width == n + 1
            assert trace.depth <= math.ceil(math.log2(n)) + 1 if n > 1 else trace.depth == 1
            for rec in trace.activity:
                assert len(rec.active_nodes) <= 2
                assert len(rec.active_edges) <= 4


def test_binary_n8_depth_at_most_four():
    for idx in range(25):
        inst = gen_search_instance(8, sample_seed(7, "binary_search", 8, idx))
        _, trace = binary_search(inst)
        assert trace.depth <= 4


@given(st.integers(1, 40), st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_pair_agreement_matches_oracle(n, seed):
    inst = gen_search_instance(n, seed)
    expected = rank_oracle(inst.items, inst.x)
    rank_p, trace_p = parallel_search(inst)
    rank_b, trace_b = binary_search(inst)
    assert rank_p == expected
    assert rank_b == expected
    assert trace_p.width == trace_b.width == n + 1


def test_instance_validation():
    with pytest.raises(ValueError):
        SearchInstance(items=(), x=1.0)
    with pytest.raises(ValueError):
        SearchInstance(items=(1.0, 2.0), x=1.0)  # not descending
    with pytest.raises(ValueError):
        SearchInstance(items=(2.0, 2.0), x=1.0)  # not strict
