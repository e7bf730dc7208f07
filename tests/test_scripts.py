"""Smoke runs of the scripts under scripts/, each as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pramtraj
from pramtraj.algorithms import ALGORITHMS
from pramtraj.cli import cli_main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd=None):
    src = str(Path(pramtraj.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=dict(os.environ, PYTHONPATH=src),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_make_datasets_writes_valid_datasets(tmp_path, capsys):
    done = run_script(
        "make_datasets.py", "--out-dir", str(tmp_path), "--n-list", "2,3", "--samples", "1"
    )
    assert done.returncode == 0, done.stderr
    paths = sorted(tmp_path.glob("*.ndjson"))
    assert [p.stem for p in paths] == sorted(ALGORITHMS)
    for path in paths:
        assert cli_main(["validate", "--in", str(path)]) == 0
        assert capsys.readouterr().out == "ok: 2 samples, zero violations\n"


def test_reproduce_classes_fits_every_algorithm(tmp_path):
    done = run_script("reproduce_classes.py", "--n-list", "4,8,16", "--samples", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    fitted = lines[lines.index("fitted classes") + 1 :]
    assert [line.split()[0] for line in fitted] == list(ALGORITHMS)


def test_traffic_coverage_enters_every_function_but_seven():
    # a function that only the tests call would be one more: the seven are
    # the console entry point, the cell error and UNDEF's repr and truth
    # value, which no valid run reaches, and SharedRow's write guard and copy
    # and pickle hooks, since no command edits, copies or pickles a shared
    # mask row
    done = run_script("traffic_coverage.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    never = lines[lines.index("functions no command enters:") + 1 :]
    assert {line.strip() for line in never} == {
        "cli.main",
        "machine._bad_cell",
        "machine._Undef.__repr__",
        "machine._Undef.__bool__",
        "algorithms.__init__.SharedRow._read_only",
        "algorithms.__init__.SharedRow._itself",
        "algorithms.__init__.SharedRow.__reduce_ex__",
    }
