"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 1-6 feed every
produced trace through the shared per-layer operation-budget check that
criterion 8 asserts on.  Runtime limits are checked against process CPU time
(the stable measure on a shared box); the sample counts for criteria 1-3 are
spread round-robin across the stated size ranges.
"""

import itertools
import math
import time

from pramtraj.algorithms import run
from pramtraj.algorithms.search import binary_search, gen_search_instance, parallel_search
from pramtraj.algorithms.sorting import SortInstance, bubble_sort, gen_permutation, oets_sort
from pramtraj.algorithms.scc import dcsc, gen_digraph, kosaraju
from pramtraj.efficiency import scaling_report
from pramtraj.harness import (
    GenConfig,
    build_samples,
    collector_paused,
    exhaustive_instances,
    generate_instance,
    sample_seed,
)
from pramtraj.machine import (
    UNDEF,
    MachineState,
    complete_graph,
    replay,
)
from pramtraj.trajectory import (
    activity_summary,
    parse_ndjson,
    replay_sample,
    serialize_ndjson,
    validate_sample,
)

from machine_support import step_once
from metric_oracle import edge_efficiency, node_efficiency
from scc_oracle import pointers_to_partition, tarjan_scc
from sort_oracle import chain_order

# shared Assumption-1 ledger, asserted by criterion 8 after criteria 1-6 ran
BUDGET = {"checked": 0, "violations": 0}


def check_budget(trace):
    cap = trace.width + 1
    BUDGET["checked"] += trace.depth
    if any(rec.op_count > cap for rec in trace.activity):
        BUDGET["violations"] += 1


def test_criterion_1_search_oracle_equivalence():
    t0 = time.process_time()
    with collector_paused():
        for i in range(2000):
            n = 1 + (i % 64)
            inst = gen_search_instance(n, sample_seed(1001, "search", n, i))
            expected = next((k for k, a in enumerate(inst.items) if a <= inst.x), n)
            rank_p, trace_p = parallel_search(inst)
            rank_b, trace_b = binary_search(inst)
            assert rank_p == expected and rank_b == expected
            check_budget(trace_p)
            check_budget(trace_b)
    elapsed = time.process_time() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS - searching oracle equivalence, 2000 instances over n in {{1..64}} ({elapsed:.1f}s)")


def test_criterion_2_sorting_oracle_equivalence():
    t0 = time.process_time()
    canon_by_n = {}
    with collector_paused():
        for i in range(2000):
            n = 2 + (i % 63)
            inst = gen_permutation(n, sample_seed(1002, "sort", n, i))
            pred_o, trace_o = oets_sort(inst)
            pred_b, trace_b = bubble_sort(inst)
            assert pred_o == pred_b
            oracle = [k for _, k in sorted(zip(inst.items, range(n)))]
            assert chain_order(pred_o) == oracle
            canon = canon_by_n.get(n)
            if canon is None:
                canon = canon_by_n.setdefault(n, list(range(n)))
            # items never move between nodes, so multiset preservation per
            # round is the position table remaining a permutation; only
            # layers that wrote shared memory need re-checking
            for trace in (trace_o, trace_b):
                assert sorted(trace.initial.shared[:n]) == canon
                for state, _, rec in replay(trace):
                    if rec.graph_op:
                        assert sorted(state.shared[:n]) == canon
            check_budget(trace_o)
            check_budget(trace_b)
    elapsed = time.process_time() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS - sorting oracle equivalence + multiset preservation, 2000 permutations over n in {{2..64}} ({elapsed:.1f}s)")


def test_criterion_3_scc_oracle_equivalence():
    t0 = time.process_time()
    with collector_paused():
        for i in range(500):
            n = 2 + (i % 63)
            g = gen_digraph(n, 3, sample_seed(1003, "scc", n, i))
            oracle = frozenset(tarjan_scc(g))
            ptr_d, trace_d = dcsc(g)
            ptr_k, trace_k = kosaraju(g)
            assert pointers_to_partition(ptr_d) == oracle
            assert pointers_to_partition(ptr_k) == oracle
            check_budget(trace_d)
            check_budget(trace_k)
    elapsed = time.process_time() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS - SCC oracle equivalence, 500 bounded-degree digraphs over n in {{2..64}} ({elapsed:.1f}s)")


def test_criterion_4_depth_laws():
    par_depths = set()
    for n in (4, 8, 64, 256):
        inst = gen_search_instance(n, sample_seed(1004, "par", n, 0))
        _, trace = parallel_search(inst)
        par_depths.add(trace.depth)
        check_budget(trace)
    assert len(par_depths) == 1

    for n in (1, 2, 3, 5, 8, 16, 33, 64, 256):
        for idx in range(5):
            inst = gen_search_instance(n, sample_seed(1004, "bin", n, idx))
            _, trace = binary_search(inst)
            bound = math.ceil(math.log2(n)) + 1 if n > 1 else 1
            assert trace.depth <= bound
            check_budget(trace)

    for n in (2, 3, 7, 16, 33):
        for idx in range(5):
            inst = gen_permutation(n, sample_seed(1004, "oets", n, idx))
            _, trace = oets_sort(inst)
            assert trace.depth <= n
            check_budget(trace)
        reversed_inst = SortInstance(items=tuple(float(n - i) for i in range(n)))
        _, trace = oets_sort(reversed_inst)
        assert trace.depth == n
        check_budget(trace)

    for n in (2, 3, 7, 16, 33):
        inst = gen_permutation(n, sample_seed(1004, "bub", n, 0))
        _, trace = bubble_sort(inst)
        low = n * (n - 1) // 2
        assert low <= trace.depth <= low + n
        check_budget(trace)
    print("\nACCEPTANCE 4 PASS - depth laws (constant / log / n with reversed equality / quadratic window)")


def test_criterion_5_capacity_slope_classes():
    n_list = [8, 16, 32, 64, 128]
    slopes = {}
    for algo in ("parallel_search", "binary_search", "oets", "bubble_sort", "kosaraju"):
        report = scaling_report(algo, n_list, 8, 1005)
        slopes[algo] = report.slopes["capacity"]
    assert abs(slopes["parallel_search"] - 1.0) <= 0.2
    assert 1.0 <= slopes["binary_search"] <= 1.35
    assert abs(slopes["oets"] - 2.0) <= 0.2
    assert abs(slopes["bubble_sort"] - 3.0) <= 0.2
    assert abs(slopes["kosaraju"] - 1.0) <= 0.3
    pretty = ", ".join(f"{a}={s:.2f}" for a, s in slopes.items())
    print(f"\nACCEPTANCE 5 PASS - capacity log-log slopes reproduce the asymptotic classes ({pretty})")


def test_criterion_6_efficiency_separation():
    n, samples, master = 32, 100, 1006
    metrics = {}
    for algo in ("parallel_search", "binary_search", "oets", "bubble_sort"):
        etas, eps = [], []
        for i in range(samples):
            seed = sample_seed(master, algo, n, i)
            inst = generate_instance(algo, n, seed)
            _, trace = run(algo, inst)
            check_budget(trace)
            act = activity_summary(trace)
            etas.append(node_efficiency(act))
            eps.append(edge_efficiency(act))
            if algo in ("binary_search", "bubble_sort"):
                for step in act["steps"]:
                    assert step["edges"] <= 4
        metrics[algo] = {
            "eta_mean": sum(etas) / samples,
            "eta_min": min(etas),
            "eps_mean": sum(eps) / samples,
            "eps_min": min(eps),
        }
    for seq, par in (("binary_search", "parallel_search"), ("bubble_sort", "oets")):
        for key in ("eta_mean", "eta_min", "eps_mean", "eps_min"):
            assert metrics[par][key] > metrics[seq][key], (seq, par, key)
    print("\nACCEPTANCE 6 PASS - parallel members strictly dominate eta and eps (mean and min) at n=32; a(t) <= 4 for binary/bubble")


def priority_layer(targets, shared_size):
    """One step_machine layer in which processor pid writes pid to address
    ``targets[pid]`` (None: idle); returns the written cells by address."""
    width = len(targets)
    state = MachineState(((0.0,),) * width, (UNDEF,) * shared_size, 0)

    def step(ctx):
        addr = targets[ctx.pid]
        return None if addr is None else (None, ((addr, ctx.pid),))

    new, _ = step_once(state, step, complete_graph(width))
    return {addr: cell for addr, cell in enumerate(new.shared) if cell is not UNDEF}


def test_criterion_7_priority_crcw_semantics():
    # exhaustive: every request pattern for p <= 5 over two addresses
    for p in range(1, 6):
        for combo in itertools.product((None, 0, 1), repeat=p):
            applied = priority_layer(combo, 2)
            for addr in (0, 1):
                writers = [proc for proc, a in enumerate(combo) if a == addr]
                if writers:
                    assert applied[addr] == min(writers)
                else:
                    assert addr not in applied
    # randomized: p = 64
    import random

    rng = random.Random(1007)
    for _ in range(10_000):
        targets = [rng.randrange(4) if rng.random() < 0.5 else None for _ in range(64)]
        applied = priority_layer(targets, 4)
        for addr in range(4):
            writers = [proc for proc, a in enumerate(targets) if a == addr]
            if writers:
                assert applied[addr] == min(writers)
            else:
                assert addr not in applied
    print("\nACCEPTANCE 7 PASS - priority CRCW in step_machine: lowest index wins (exhaustive p<=5, 10000 random cases at p=64)")


def test_criterion_8_assumption_one_budget():
    if BUDGET["checked"] == 0:
        # standalone invocation: build a representative set
        for algo in ("parallel_search", "binary_search", "oets", "bubble_sort", "dcsc", "kosaraju"):
            for i in range(5):
                seed = sample_seed(1008, algo, 16, i)
                inst = generate_instance(algo, 16, seed)
                check_budget(run(algo, inst)[1])
    assert BUDGET["checked"] > 0
    assert BUDGET["violations"] == 0
    print(f"\nACCEPTANCE 8 PASS - op_count <= width+1 in every layer ({BUDGET['checked']} layers checked)")


def test_criterion_9_dataset_integrity():
    for algo in ("parallel_search", "binary_search", "oets", "bubble_sort", "dcsc", "kosaraju"):
        cfg = GenConfig(algo, (4, 16), 3, 1009)
        samples = list(build_samples(cfg))
        for sample in samples:
            assert validate_sample(sample) == []
            assert replay_sample(sample) == sample.outputs
        blob = serialize_ndjson(samples)
        assert parse_ndjson(blob) == samples
        assert serialize_ndjson(build_samples(cfg)) == blob
    print("\nACCEPTANCE 9 PASS - gen->validate clean, round-trip identity, byte-identical regeneration, hint replay reproduces outputs")


def test_criterion_10_exhaustive_worst_case_eps(capsys):
    import json

    from pramtraj.cli import cli_main

    true_min = {}
    checked = 0
    for algo in ("parallel_search", "binary_search", "oets", "bubble_sort"):
        n_list = [4, 5, 6]
        report = scaling_report(algo, n_list, 1, 1010, exhaustive=True)
        for rec in report.records:
            eps = [edge_efficiency(activity_summary(run(algo, inst)[1]))
                   for inst in exhaustive_instances(algo, rec.n)]
            true_min[(algo, rec.n)] = float(min(eps))
            assert rec.eps_min == true_min[(algo, rec.n)]
            checked += 1
    # the same minimum must surface through the CLI surface
    assert cli_main(["analyze", "--algo", "oets", "--n-list", "4,5,6",
                     "--samples", "1", "--seed", "1010", "--exhaustive"]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("{") and "summary" not in line:
            rec = json.loads(line)
            assert rec["eps_min"] == true_min[("oets", rec["n"])]
    print(f"\nACCEPTANCE 10 PASS - exhaustive eps_min equals the true minimum over the input space ({checked} (algo,n) cells, CLI cross-checked)")
