"""Byte identity against pinned sha256 values.

The constants are the sha256 of the dataset, schema and report bytes of
each algorithm at small sizes, of its report at the benchmark's `analyze`
grid, of the `trace` output for one inline input, and of the dataset lines
of both SCC algorithms on every digraph with up to four nodes. A change to any of
them is a change of the dataset format or of the analysis or trace output,
and must be deliberate: recompute the constants and say so.
"""

import hashlib

import pytest

from pramtraj.algorithms import ALGORITHMS, run
from pramtraj.cli import cli_main
from pramtraj.efficiency import report_ndjson, scaling_report
from pramtraj.algorithms.scc import Digraph
from pramtraj.harness import GenConfig, build_samples
from pramtraj.algorithms import sample_seed
from pramtraj.trajectory import encode_sample, line_is_clean, serialize_ndjson, serialize_schema

# algo -> (dataset + schema, sampled report, exhaustive report or None)
GOLDEN = {
    "parallel_search": (
        "5c3edff4be4e025b4d6620c41c96c0089927c8eae6400addbaecfabc633e75f3",
        "e115dc2e67f01f539439aac73c5b3e5111307b317f7e8f4cc5d32e665ec24ce4",
        "5102ababd335a25d8d81b396399964e7765fb68c860d3efb07caa861c8227618",
    ),
    "binary_search": (
        "7340ec899e9eabd8e638d104e09f0876b27b5c8843c9073802fe686660c68aeb",
        "7b406d047a1512c2c5422d5bf12c75b2e740c1d8fc829ceec11732291b8f474d",
        "4134f237f02ce087cf0c5e35b6b27e24583820e488f55f9b9927af28a9b9af60",
    ),
    "oets": (
        "2021adefe5c5cb64172680d8c046849bc32f98ff54cbbaded0c91c42cf3181ce",
        "900ced9dd6b4f9ff2b3147c4761e1398b99295b4c94e9186d6256d21b9807506",
        "e1e223db448be1e38565f339906863b726aa742a64854826fa62160efa4c2c96",
    ),
    "bubble_sort": (
        "0875c9eea16d7cf3f643becdd1e26ba242704e2a0c51db56603daa8ec4143259",
        "160f813b8ca2cc802ff506be57736cc3c3fb4d0b8727653408ca09a7b3f8d4eb",
        "e3389adc65bdf57ed1d3377aeb8b5747302ea64968e08592eecd676a8f4bb03e",
    ),
    "dcsc": (
        "f9124a2fb6621a1102d414d03765eb8773c45baac340b22ceec306c04c98b204",
        "b33f4e3394241187125f6b49b721ec40144b127e9389e6b1228fc297703a896e",
        None,
    ),
    "kosaraju": (
        "0d4343a520491473015dad3444923cbb0bfe833194f575ee5fa0ec117199904e",
        "36e8a61f7bea54dea49ff64a97e49bb5cb5014e8f14eec104d50d6bb909d42b4",
        None,
    ),
}

# algo -> report of the benchmark's `analyze` job: sizes 8..128, 8 samples,
# seed 1. A run here has up to thousands of layers, so a figure rounded
# more than once, or in an order of float sums, shows here.
GRID_GOLDEN = {
    "parallel_search": "a39e001c092b25976e893a9243d19f631cd035cfbd8c8c172208797126f6d4b2",
    "binary_search": "6a5c124b30447224a0a50173dff3ced65f209de2944a176547940dcb586daac2",
    "oets": "f027f0d8dee9cfc6ba693d9565d910b91c150426b092f05d957ebdb2d832e152",
    "bubble_sort": "a0a4a1c6c9385d7c44770c982b94811f72ca0337facd9c06a79b1108e63b1cd9",
    "dcsc": "2129c422a997ff20e792801b646d6bb03254ec05510bc57146bf4e6d4766cc00",
    "kosaraju": "e5ed2ed7bc4b2397108f54a352a392a835da1c43dc6cb44241f233250cd6b61d",
}

# algo -> (inline input, `pramtraj trace` stdout)
TRACE_GOLDEN = {
    "parallel_search": (
        "10,8,6,4,2;7", "91eca1b0a36eae502109014551daad02104e5e63774377a90edcd5097438fa21"
    ),
    "binary_search": (
        "9,7,5,3,1;5", "6b20c71076e05c44bce84ca9f9513898715f770ca21eb7964c12447079aa216b"
    ),
    "oets": ("3,1,2", "b5b9096dd13cf7763d5f20974ebea24ab63c5f65c83e190361ce3c1d2b5800c1"),
    "bubble_sort": ("4,1,3,2", "214d0f5c191e82cc53b52ca24d6d63ded2c945060fae8f8171cbbc1989f61a15"),
    "dcsc": (
        "3:0->1,1->0,1->2", "892837c576070a0bdd5162b238287254bfb6231540cf446db74c851d1235ce13"
    ),
    "kosaraju": (
        "4:0->1,1->2,2->0,2->3", "1b4afa654553595933841267b477a754a3ae696f3a71dc3666ad049e60ac391d"
    ),
}

# algo -> the dataset lines of every digraph on n = 1..4 nodes, in order of
# n, then of the edge mask (see ``small_digraphs``)
SMALL_DIGRAPH_GOLDEN = {
    "dcsc": "d049974858dcd04f5fa92f5d72377dd67c51a108b93d9a761560b7d7e981cf00",
    "kosaraju": "68ecd83d0bac5ff006cee66e4b23c2ce90d1b51d17dd357b26bf50ccf1a85eec",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_algorithm_is_pinned():
    assert set(GOLDEN) == set(ALGORITHMS)


@pytest.mark.parametrize("algo", sorted(GOLDEN))
def test_dataset_and_schema_bytes(algo):
    data = serialize_ndjson(build_samples(GenConfig(algo, (4, 8), 2, 3)))
    assert sha256(data + serialize_schema(algo)) == GOLDEN[algo][0]


@pytest.mark.parametrize("algo", sorted(GOLDEN))
def test_report_bytes(algo):
    assert sha256(report_ndjson(scaling_report(algo, [4, 8, 16], 3, 5))) == GOLDEN[algo][1]
    if GOLDEN[algo][2] is not None:
        report = scaling_report(algo, [3, 4, 5], 1, 0, exhaustive=True)
        assert sha256(report_ndjson(report)) == GOLDEN[algo][2]


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_benchmark_grid_report_bytes(algo):
    report = scaling_report(algo, [8, 16, 32, 64, 128], 8, 1)
    assert sha256(report_ndjson(report)) == GRID_GOLDEN[algo]


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_trace_bytes(algo, capsys):
    text, digest = TRACE_GOLDEN[algo]
    assert cli_main(["trace", "--algo", algo, "--input", text]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == digest


def small_digraphs():
    """Every digraph on n = 1..4 nodes: the edges of ``mask`` are its set
    bits over the ordered pairs of distinct nodes."""
    for n in range(1, 5):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(pairs)):
            edges = frozenset(pair for k, pair in enumerate(pairs) if mask >> k & 1)
            yield n, mask, Digraph(n, edges)


@pytest.mark.parametrize("algo", sorted(SMALL_DIGRAPH_GOLDEN))
def test_every_small_digraph(algo):
    digest = hashlib.sha256()
    for n, mask, g in small_digraphs():
        out, trace = run(algo, g)
        seed = sample_seed(0, algo, n, mask)
        sample = encode_sample(algo, g, trace, out, seed=seed, master=0, index=mask)
        line = serialize_ndjson([sample])
        assert line_is_clean(line, algo), (n, mask)
        digest.update(line)
    assert digest.hexdigest() == SMALL_DIGRAPH_GOLDEN[algo]
