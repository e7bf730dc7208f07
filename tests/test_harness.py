import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pramtraj import harness
from pramtraj.algorithms import ALGORITHMS, spec_for
from pramtraj.algorithms.scc import gen_digraph
from pramtraj.algorithms.search import gen_search_instance
from pramtraj.algorithms.sorting import gen_permutation
from pramtraj.harness import (
    GenConfig,
    build_samples,
    exhaustive_instances,
    generate_instance,
    sample_seed,
    write_dataset,
)
from pramtraj.cli import cli_main
from pramtraj.machine import StepLimitExceeded
from pramtraj.trajectory import serialize_ndjson, validate_sample

from scc_oracle import tarjan_scc


class TestSeedMixing:
    def test_golden_values(self):
        # pinned: catches accidental changes to the documented mixing scheme
        assert sample_seed(0, "oets", 4, 0) == sample_seed(0, "oets", 4, 0)
        assert sample_seed(0, "oets", 4, 0) != sample_seed(0, "oets", 4, 1)
        assert sample_seed(0, "oets", 4, 0) != sample_seed(0, "bubble_sort", 4, 0)
        assert sample_seed(0, "oets", 4, 0) != sample_seed(0, "oets", 5, 0)
        assert sample_seed(0, "oets", 4, 0) != sample_seed(1, "oets", 4, 0)

    def test_64_bit_range(self):
        for idx in range(50):
            s = sample_seed(123, "dcsc", 16, idx)
            assert 0 <= s < 2**64

    def test_equals_hashlib_blake2b(self):
        # the seed hash comes from _blake2, without hashlib; every seed must
        # stay the value hashlib's blake2b gives
        import hashlib

        for master in (0, 1, 7, 2**31, 2**64 + 3):
            for algo in ALGORITHMS:
                for n in (1, 5, 16, 129):
                    for index in (0, 1, 99):
                        text = f"{master}|{algo}|{n}|{index}".encode("ascii")
                        digest = hashlib.blake2b(text, digest_size=8).digest()
                        assert sample_seed(master, algo, n, index) == int.from_bytes(digest, "big")

    def test_jobs_leave_openssl_unloaded(self, tmp_path):
        # hashlib would load _hashlib, OpenSSL's binding, into every process
        src = str(Path(harness.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "from pramtraj.cli import cli_main\n"
            "out = sys.argv[1]\n"
            "assert cli_main(['gen', '--algo', 'oets', '--n', '5', '--samples', '2', '--seed', '1', '--out', out]) == 0\n"
            "assert cli_main(['analyze', '--algo', 'binary_search', '--n-list', '4,8,16', '--samples', '2', '--seed', '1']) == 0\n"
            "sys.exit('_hashlib' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "d.ndjson")],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestSearchGenerator:
    def test_descending_distinct(self):
        for seed in range(30):
            inst = gen_search_instance(10, seed)
            assert all(a > b for a, b in zip(inst.items, inst.items[1:]))

    def test_deterministic(self):
        assert gen_search_instance(12, 7) == gen_search_instance(12, 7)

    def test_single_item(self):
        inst = gen_search_instance(1, 3)
        assert inst.n == 1

    def test_rank_histogram_covers_endpoints(self):
        ranks = set()
        for i in range(1000):
            inst = gen_search_instance(64, sample_seed(0, "parallel_search", 64, i))
            rank = next((k for k, a in enumerate(inst.items) if a <= inst.x), 64)
            ranks.add(rank)
        assert 0 in ranks and 64 in ranks


class TestPermutationGenerator:
    def test_deterministic_and_distinct(self):
        a = gen_permutation(9, 4)
        assert a == gen_permutation(9, 4)
        assert len(set(a.items)) == 9

    def test_all_orders_occur_at_n6(self):
        seen = set()
        for i in range(720 * 20):
            inst = gen_permutation(6, sample_seed(3, "oets", 6, i))
            seen.add(tuple(k for _, k in sorted(zip(inst.items, range(6)))))
        assert len(seen) == 720


class TestDigraphGenerator:
    def test_single_node_edgeless(self):
        assert gen_digraph(1, 3, 0).edges == frozenset()

    def test_degree_bounds(self):
        for seed in range(40):
            g = gen_digraph(12, 3, seed)
            for u in range(12):
                assert len(g.out_neighbors(u)) <= 3
                assert u not in g.out_neighbors(u)

    def test_tally_includes_extreme_shapes(self):
        strong = acyclic = 0
        for i in range(500):
            g = gen_digraph(16, 3, sample_seed(0, "dcsc", 16, i))
            comps = tarjan_scc(g)
            if len(comps) == 1:
                strong += 1
            if len(comps) == g.n:
                acyclic += 1
        assert strong >= 1 and acyclic >= 1


class TestExhaustiveInstances:
    def test_search_covers_all_ranks(self):
        for n in (1, 3, 5):
            insts = exhaustive_instances("parallel_search", n)
            ranks = set()
            for inst in insts:
                ranks.add(next((i for i, a in enumerate(inst.items) if a <= inst.x), n))
            assert ranks == set(range(n + 1))

    def test_sorting_covers_all_orders(self):
        insts = exhaustive_instances("oets", 4)
        assert len({inst.items for inst in insts}) == 24

    def test_size_cap(self):
        with pytest.raises(ValueError):
            exhaustive_instances("oets", 7)

    def test_scc_not_enumerable(self):
        with pytest.raises(ValueError):
            exhaustive_instances("dcsc", 4)


class TestPipeline:
    def test_generator_independence(self):
        big = list(build_samples(GenConfig("oets", (5,), 6, 40)))
        small = list(build_samples(GenConfig("oets", (5,), 2, 40)))
        assert big[:2] == small

    def test_datasets_validate_clean(self):
        for algo in ("parallel_search", "kosaraju"):
            cfg = GenConfig(algo, (4, 9), 3, 17)
            for sample in build_samples(cfg):
                assert validate_sample(sample) == []

    def test_write_dataset_streams(self, tmp_path):
        first, second = build_samples(GenConfig("oets", (6,), 2, 5))
        on_disk = []

        def draw():
            yield first
            on_disk.append(b"".join(p.read_bytes() for p in tmp_path.iterdir()))
            yield second

        out = tmp_path / "d.ndjson"
        assert write_dataset(out, draw(), "oets") == 2
        assert on_disk == [serialize_ndjson([first])]
        assert out.read_bytes() == serialize_ndjson([first, second])

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_every_line_is_rebuilt_from_its_own_provenance(self, tmp_path, algo):
        # a gen line is a function of its algo, n, seed.master and seed.index,
        # and its inputs the draw of seed.value, an SCC adjacency included
        out = tmp_path / "d.ndjson"
        assert cli_main(["gen", "--algo", algo, "--n-list", "1,2,3,4,5,6", "--samples", "3",
                         "--seed", "31", "--out", str(out)]) == 0
        lines = out.read_bytes().splitlines(keepends=True)
        assert len(lines) == 18
        for line in lines:
            obj = json.loads(line)
            n, seed = obj["n"], obj["seed"]
            *_, rebuilt = build_samples(GenConfig(obj["algo"], (n,), seed["index"] + 1, seed["master"]))
            assert serialize_ndjson([rebuilt]) == line
            inst = generate_instance(algo, n, seed["value"])
            assert obj["inputs"] == spec_for(algo).inputs(inst, obj["inputs"]["pos"])

    def test_byte_identical_rebuild(self):
        cfg = GenConfig("dcsc", (6,), 4, 99)
        a = serialize_ndjson(build_samples(cfg))
        b = serialize_ndjson(build_samples(cfg))
        assert a == b

    def test_a_sort_sample_peaks_near_its_line_size(self):
        # every swap_mask row is one of n + 1 shared rows, so a frame's mask
        # is n pointers, not n lists: this 5.6 MB line peaked at 36.5 MB when
        # each frame built its own rows
        import tracemalloc

        gc.collect()
        tracemalloc.start()
        try:
            (sample,) = build_samples(GenConfig("bubble_sort", (48,), 1, 1))
            line = serialize_ndjson([sample])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(line), (peak, len(line))

    def test_collector_off_while_a_trace_is_alive(self, monkeypatch):
        real_run, real_encode = harness.run, harness.encode_sample
        enabled = []

        def run(algo, inst):
            enabled.append(gc.isenabled())
            return real_run(algo, inst)

        def encode_sample(*args, **kwargs):
            enabled.append(gc.isenabled())
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(harness, "run", run)
        monkeypatch.setattr(harness, "encode_sample", encode_sample)
        assert len(list(build_samples(GenConfig("oets", (5,), 2, 3)))) == 2
        assert enabled == [False] * 4
        assert gc.isenabled()

    def test_collector_back_on_after_a_failed_run(self, monkeypatch):
        def run(algo, inst):
            raise StepLimitExceeded("halt predicate never fired")

        monkeypatch.setattr(harness, "run", run)
        with pytest.raises(StepLimitExceeded, match="index 0"):
            list(build_samples(GenConfig("oets", (5,), 2, 3)))
        assert gc.isenabled()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig("quicksort", (4,), 1, 0)
        with pytest.raises(ValueError):
            GenConfig("oets", (4,), 0, 0)
        with pytest.raises(ValueError):
            GenConfig("oets", (0,), 1, 0)
