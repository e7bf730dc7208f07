import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pramtraj import efficiency
from pramtraj.algorithms import ALGORITHMS, run, spec_for
from pramtraj.algorithms.scc import Digraph, gen_digraph
from pramtraj.algorithms.search import SearchInstance, binary_search, parallel_search
from pramtraj.algorithms.sorting import SortInstance, bubble_sort, oets_sort
from pramtraj.efficiency import render_table, report_ndjson, scaling_report, size_record
from pramtraj.algorithms.search import gen_search_instance
from pramtraj.algorithms.sorting import gen_permutation
from pramtraj.harness import (
    GenConfig,
    build_samples,
    exhaustive_instances,
    generate_instance,
    sample_seed,
)
from pramtraj.machine import StepLimitExceeded, fold_counts
from pramtraj.trajectory import activity_summary, encode_sample, parse_ndjson, serialize_ndjson

from metric_oracle import (
    capacity,
    edge_efficiency,
    edge_shares,
    node_efficiency,
    run_counts,
    size_figures,
)


def traces_for(algo, n, count, master=21):
    out = []
    for i in range(count):
        seed = sample_seed(master, algo, n, i)
        inst = generate_instance(algo, n, seed)
        out.append(run(algo, inst)[1])
    return out


class TestCapacity:
    def test_width_times_depth(self):
        _, trace = parallel_search(gen_search_instance(4, 1))
        assert capacity(activity_summary(trace)) == 5 * 2

    def test_parallel_search_n8(self):
        _, trace = parallel_search(gen_search_instance(8, 2))
        assert capacity(activity_summary(trace)) == 9 * 2

    def test_binary_search_n8_bounded(self):
        for i in range(20):
            _, trace = binary_search(gen_search_instance(8, i))
            assert capacity(activity_summary(trace)) <= 9 * 4


class TestNodeEfficiency:
    def test_parallel_search_at_least_half(self):
        for i in range(20):
            _, trace = parallel_search(gen_search_instance(12, i))
            assert node_efficiency(activity_summary(trace)) >= Fraction(1, 2)

    def test_binary_search_n16(self):
        for i in range(20):
            _, trace = binary_search(gen_search_instance(16, i))
            assert node_efficiency(activity_summary(trace)) <= Fraction(2 * 5, 17 * 5)

    def test_oets_reversed_high_efficiency(self):
        inst = SortInstance(items=tuple(float(9 - i) for i in range(9)))
        _, trace = oets_sort(inst)
        assert node_efficiency(activity_summary(trace)) >= Fraction(2, 3)

    def test_zero_depth_convention(self):
        _, trace = bubble_sort(SortInstance(items=(1.0,)))
        assert trace.depth == 0
        assert node_efficiency(activity_summary(trace)) == 1.0

    def test_budget_bound_everywhere(self):
        for algo in ("parallel_search", "binary_search", "oets", "bubble_sort", "dcsc", "kosaraju"):
            for trace in traces_for(algo, 9, 5):
                act = activity_summary(trace)
                eta = node_efficiency(act)
                assert 0 <= eta <= 1 + Fraction(1, trace.width)
                ops = sum(r.op_count for r in trace.activity)
                assert ops <= capacity(act) + trace.depth


class TestEdgeEfficiency:
    def test_parallel_search_star_share(self):
        rec = scaling_report("parallel_search", [4, 8, 16], 30, 21).records[1]
        # layer 1 uses n of the 2n star edges, layer 2 none: exactly 1/4
        assert rec.n == 8
        assert rec.eps_min == rec.eps_mean == 0.25

    def test_oets_n8_class(self):
        rec = scaling_report("oets", [4, 8, 16], 30, 21).records[1]
        # even rounds use n pair edges of n(n-1), odd rounds n-2
        assert 1 / 8 == rec.eps_min <= rec.eps_mean <= 1 / 7

    def test_bubble_at_most_four_active_edges(self):
        for trace in traces_for("bubble_sort", 8, 15):
            for step in activity_summary(trace)["steps"]:
                assert step["edges"] <= 4

    def test_scc_share_counts_instance_edges_once(self):
        for trace in traces_for("dcsc", 10, 10):
            act = activity_summary(trace)
            m = act["m"]
            for step in act["steps"]:
                assert step["edges"] <= max(m, 1)
            for share in edge_shares(act):
                assert 0 <= share <= 1


class TestLogLogSlope:
    def test_constant_series_is_exactly_flat(self):
        assert efficiency._loglog_slope([8, 16, 32, 64, 128], [2] * 5) == 0.0
        assert efficiency._loglog_slope([3, 4, 5], [1.0] * 3) == 0.0

    def test_nonpositive_value_has_no_slope(self):
        assert efficiency._loglog_slope([4, 8, 16], [1.0, 0.0, 2.0]) is None

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10**6),
                st.floats(min_value=1e-12, max_value=1e12, allow_nan=False),
            ),
            min_size=3,
            max_size=8,
            unique_by=lambda pair: pair[0],
        )
    )
    def test_matches_numpy_polyfit(self, points):
        np = pytest.importorskip("numpy")
        points.sort()
        ns = [n for n, _ in points]
        values = [v for _, v in points]
        want = float(np.polyfit(np.log(ns), np.log(values), 1)[0])
        got = efficiency._loglog_slope(ns, values)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestScalingReport:
    def test_parallel_search_constant_depth(self):
        rep = scaling_report("parallel_search", [8, 16, 32, 64], 5, 3)
        assert {rec.depth for rec in rep.records} == {2.0}
        assert 0.8 <= rep.slopes["capacity"] <= 1.2
        assert rep.classes["capacity"] == "n"

    def test_bubble_cubic_capacity(self):
        rep = scaling_report("bubble_sort", [8, 16, 32, 64], 5, 3)
        assert 2.8 <= rep.slopes["capacity"] <= 3.2
        assert rep.classes["capacity"] == "n^3"

    def test_dcsc_eta_class(self):
        rep = scaling_report("dcsc", [16, 32, 64, 128], 5, 3)
        etas = [rec.eta for rec in rep.records]
        assert all(a > b for a, b in zip(etas, etas[1:]))
        assert rep.classes["eta"] == "n^-1"

    def test_deterministic_for_fixed_seed(self):
        a = scaling_report("oets", [4, 8, 16], 4, 9)
        b = scaling_report("oets", [4, 8, 16], 4, 9)
        assert a == b
        assert report_ndjson(a) == report_ndjson(b)

    def test_collector_back_on_after_a_failed_run(self, monkeypatch):
        def failing_run(algo, inst, fold):
            raise StepLimitExceeded("halt predicate never fired")

        monkeypatch.setattr(efficiency, "run", failing_run)
        with pytest.raises(StepLimitExceeded, match=r"\(algo oets, n 6, master seed 4, index 0\)$"):
            size_record("oets", 6, 3, 4)
        assert gc.isenabled()

    def test_memory_bounded_by_one_run(self):
        # each run is folded into running totals as soon as it ends, so the
        # peak of a size is one run's figures, whatever its sample count.
        # A full collection empties the interpreter's free lists of floats
        # and tuples before each traced call: objects left there untraced
        # by earlier calls would otherwise be reused by the first run and
        # replaced by traced ones over later runs, about 3 KB at 32 samples.
        import tracemalloc

        size_record("bubble_sort", 64, 1, 1)  # fills the comparison-schedule cache outside the traced calls
        peaks = {}
        for samples in (1, 8, 32):
            gc.collect()
            tracemalloc.start()
            try:
                size_record("bubble_sort", 64, samples, 1)
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] <= 1.1 * peaks[1], peaks
        assert peaks[32] <= 1.1 * peaks[1], peaks

    def test_memory_bounded_by_one_state(self):
        # a run is folded into its counts layer by layer and builds no trace,
        # so the 8,128 layers of one bubble_sort n=128 run hold about one state
        import tracemalloc

        size_record("bubble_sort", 128, 1, 1)  # fills the comparison-schedule cache
        tracemalloc.start()
        try:
            size_record("bubble_sort", 128, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak

    def test_n_list_validation(self):
        with pytest.raises(ValueError):
            scaling_report("oets", [8, 4, 16], 2, 0)
        with pytest.raises(ValueError):
            scaling_report("oets", [4, 8], 2, 0)

    def test_table_rendering(self):
        rep = scaling_report("binary_search", [4, 8, 16], 3, 1)
        table = render_table(rep)
        lines = table.splitlines()
        assert lines[0].split()[:3] == ["algo", "n", "m"]
        assert len(lines) == 4


class TestExactFigures:
    """Every field of a size record equals the one the metric oracle reads
    off the runs' activity blocks: each float is its correctly rounded
    exact value, whatever the interpreter's float summation."""

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_sampled_grid(self, algo):
        n_list, samples, seed = (4, 8, 16), 3, 5
        activities = {n: [] for n in n_list}
        for sample in build_samples(GenConfig(algo, n_list, samples, seed)):
            activities[sample.n].append(sample.activity)
        report = scaling_report(algo, list(n_list), samples, seed)
        for rec in report.records:
            assert rec._asdict() == size_figures(rec.n, activities[rec.n])

    @pytest.mark.parametrize("algo", [a for a in ALGORITHMS if spec_for(a).exhaustive])
    def test_exhaustive_grid(self, algo):
        report = scaling_report(algo, [3, 4, 5], 1, 0, exhaustive=True)
        for rec in report.records:
            activities = [activity_summary(run(algo, inst)[1])
                          for inst in exhaustive_instances(algo, rec.n)]
            assert rec._asdict() == size_figures(rec.n, activities)


def assert_fold_matches_trace(algo, inst) -> None:
    output, trace = run(algo, inst)
    counted_output, counts = run(algo, inst, fold=fold_counts)
    assert counted_output == output
    assert counts.final == trace.final
    activity = activity_summary(trace)
    assert counts._asdict() == {"final": counts.final, **run_counts(activity)}
    # the rational that size_record takes as a run's eps is its mean layer share
    slots = counts.m * counts.depth
    assert (Fraction(counts.edges, slots) if slots else 0) == edge_efficiency(activity)


class TestCountFold:
    """``size_record`` folds each run into counts; its figures equal those of
    the full trace's activity summary."""

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_sampled_inputs(self, algo):
        for n in (1, 2, 5, 16):
            for master in (0, 7, 21):
                for index in range(2):
                    inst = generate_instance(algo, n, sample_seed(master, algo, n, index))
                    assert_fold_matches_trace(algo, inst)

    @pytest.mark.parametrize("algo", [a for a in ALGORITHMS if spec_for(a).exhaustive])
    def test_every_exhaustive_input(self, algo):
        for n in range(1, 6):
            for inst in exhaustive_instances(algo, n):
                assert_fold_matches_trace(algo, inst)

    @pytest.mark.parametrize("algo", ["dcsc", "kosaraju"])
    def test_scc_edges_held_both_ways(self, algo):
        graphs = [
            Digraph(2, frozenset({(0, 1), (1, 0)})),
            Digraph(4, frozenset({(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 0)})),
            Digraph(5, frozenset({(0, 1), (1, 2), (2, 1), (2, 0), (3, 4), (4, 3), (4, 0)})),
        ]
        graphs += [
            g
            for g in (gen_digraph(n, 3, seed) for n in (6, 9) for seed in range(20))
            if any((v, u) in g.edges for u, v in g.edges)
        ]
        assert len(graphs) > 10
        folded = False
        for g in graphs:
            assert_fold_matches_trace(algo, g)
            _, trace = run(algo, g)
            steps = activity_summary(trace)["steps"]
            folded |= any(len(r.active_edges) > s["edges"] for r, s in zip(trace.activity, steps))
        if algo == "dcsc":  # kosaraju's width-1 host has no channel to fold
            # a channel and its reverse fell on one instance edge in some layer
            assert folded


class TestMetricsSurviveSerialization:
    def test_recompute_from_activity_block(self):
        for algo in ("parallel_search", "binary_search", "oets", "bubble_sort", "dcsc", "kosaraju"):
            n = 7
            seed = sample_seed(5, algo, n, 0)
            inst = generate_instance(algo, n, seed)
            output, trace = run(algo, inst)
            sample = encode_sample(algo, inst, trace, output, seed=seed, master=5, index=0)
            want = activity_summary(trace)
            assert sample.activity == want
            # the metrics of a written line, read back from its bytes
            act = parse_ndjson(serialize_ndjson([sample]))[0].activity
            assert capacity(act) == capacity(want) == trace.width * trace.depth
            assert node_efficiency(act) == node_efficiency(want)
            assert edge_shares(act) == edge_shares(want)


class TestScaleInvariance:
    def test_sorting_metrics_invariant_under_affine_values(self):
        inst = gen_permutation(9, 77)
        shifted = SortInstance(items=tuple(3.5 * v + 11.0 for v in inst.items))
        for sort_fn in (oets_sort, bubble_sort):
            _, a = sort_fn(inst)
            _, b = sort_fn(shifted)
            assert a.depth == b.depth
            assert [r.active_nodes for r in a.activity] == [r.active_nodes for r in b.activity]
            assert [r.active_edges for r in a.activity] == [r.active_edges for r in b.activity]
            act_a, act_b = activity_summary(a), activity_summary(b)
            assert node_efficiency(act_a) == node_efficiency(act_b)
            assert edge_shares(act_a) == edge_shares(act_b)

    def test_search_metrics_invariant_under_affine_values(self):
        inst = gen_search_instance(8, 13)
        shifted = SearchInstance(
            items=tuple(2.0 * v + 1.0 for v in inst.items), x=2.0 * inst.x + 1.0
        )
        for search_fn in (parallel_search, binary_search):
            rank_a, a = search_fn(inst)
            rank_b, b = search_fn(shifted)
            assert rank_a == rank_b
            assert a.depth == b.depth
            assert node_efficiency(activity_summary(a)) == node_efficiency(activity_summary(b))
