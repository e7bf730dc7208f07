"""Byte identity of the CLI's outputs across the CPython interpreters the
package admits.

Determinism rests on CPython details: the ``_blake2`` built-in behind
``sample_seed``, float ``repr``, ``random.Random`` and the rounding of
integer division.  Each other CPython found here at or above
``requires-python`` (pyenv's versions, and ``python3.X`` on the PATH) runs
the jobs of ``interpreter_jobs.py`` with ``PYTHONPATH=src`` and must print
the same sha256 as the running interpreter.  The test skips when it finds
none.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
JOBS = Path(__file__).with_name("interpreter_jobs.py")
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
PROBE = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:3])"


def floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def other_interpreters() -> dict[tuple[int, ...], str]:
    """One executable per CPython version at or above the floor, other than
    the running one's.  A candidate that does not start is passed over, such
    as a pyenv shim of a version the shell has not selected."""
    least = floor()
    candidates = sorted(str(path) for path in Path.home().glob(".pyenv/versions/*/bin/python3"))
    candidates += [shutil.which(f"python3.{minor}") for minor in range(least[1], 20)]
    found = {}
    for exe in filter(None, candidates):
        try:
            probe = subprocess.run([exe, "-c", PROBE], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode != 0:
            continue
        impl, *version = probe.stdout.split()
        version = tuple(map(int, version))
        if impl == "CPython" and version[:2] >= least and version != tuple(sys.version_info[:3]):
            found.setdefault(version, exe)
    return found


def test_outputs_match_across_interpreters(tmp_path):
    others = other_interpreters()
    if not others:
        pytest.skip("no other CPython at or above requires-python")
    runs = {"running": sys.executable}
    runs.update({".".join(map(str, version)): exe for version, exe in others.items()})
    procs = {}
    for label, exe in runs.items():
        cwd = tmp_path / label
        cwd.mkdir()
        procs[label] = subprocess.Popen(
            [exe, str(JOBS)], cwd=cwd, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
    digests = {}
    for label, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, (label, err.decode(errors="replace"))
        digests[label] = json.loads(out)
    want = digests.pop("running")
    assert {code for code, _ in want.values()} == {0}, want
    for label, got in digests.items():
        assert got == want, label
