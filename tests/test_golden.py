"""Byte identity against pinned sha256 values.

The constants are the sha256 of the dataset, schema and report bytes of
each algorithm at small sizes, and of the `trace` output for one inline
input. A change to any of them is a change of the dataset format or of the
analysis or trace output, and must be deliberate: recompute the constants
and say so.
"""

import hashlib

import pytest

from pramtraj.algorithms import ALGORITHMS
from pramtraj.cli import cli_main
from pramtraj.efficiency import report_ndjson, scaling_report
from pramtraj.harness import GenConfig, build_samples
from pramtraj.trajectory import serialize_ndjson, serialize_schema

# algo -> (dataset + schema, sampled report, exhaustive report or None)
GOLDEN = {
    "parallel_search": (
        "5c3edff4be4e025b4d6620c41c96c0089927c8eae6400addbaecfabc633e75f3",
        "3dab8201b18d668219628d21f581b3a9ae4313dce4430e5f4655e516c36a4010",
        "27928a26d7e5848b688151c1c42f8cf3b902c8ddbe35e91742b1df168517cc43",
    ),
    "binary_search": (
        "7340ec899e9eabd8e638d104e09f0876b27b5c8843c9073802fe686660c68aeb",
        "b0dc1cba3a96bc62350114e05acbf55c969f4b30d6a2edd8a38bb5e798530cf3",
        "8dc55bf439c6a27c891bd68bfac46764d27fda7913a1a4cbb9a03e2c2126ff27",
    ),
    "oets": (
        "2021adefe5c5cb64172680d8c046849bc32f98ff54cbbaded0c91c42cf3181ce",
        "78dbf0b3b4ec79d38598c67072a506a6745d285bbfbbae59998eabb9daaa3e4e",
        "a2a65588b45449819a61fdf5bc7471ae94815e82915b78be92bae98c1c745765",
    ),
    "bubble_sort": (
        "0875c9eea16d7cf3f643becdd1e26ba242704e2a0c51db56603daa8ec4143259",
        "59c3908249116f406d8ec1682d1e6920b42b9f3cd820fad7a68e4b819a32201c",
        "aaf3830f162486b9ed8255c76d14016933ded4c6543e83e534384cc6cb2fdb7e",
    ),
    "dcsc": (
        "f9124a2fb6621a1102d414d03765eb8773c45baac340b22ceec306c04c98b204",
        "6953445d911a6827598f150f08967582decc3bbf84113297eb5d15ee81ecdeee",
        None,
    ),
    "kosaraju": (
        "0d4343a520491473015dad3444923cbb0bfe833194f575ee5fa0ec117199904e",
        "faa25ccda3a411b662a996d12f6eee28a9a0756451cfcd04e5ee61f84d9d6424",
        None,
    ),
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
def test_trace_bytes(algo, capsys):
    text, digest = TRACE_GOLDEN[algo]
    assert cli_main(["trace", "--algo", algo, "--input", text]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == digest
