"""Each command imports only its own stages and the one algorithm module it
runs, and the registry's static table names the modules that define the
specs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pramtraj
from pramtraj.algorithms import ALGORITHMS, PAIRS, run, scc, search, sorting, spec_for
from pramtraj.cli import cli_main

SRC = Path(pramtraj.__file__).resolve().parents[1]

# each module's PAIR is (parallel, sequential), in registry order
MODULES = (search, sorting, scc)

# task family -> the module that defines its two specs, as sys.modules names it
HOMES = {"search": "pramtraj.algorithms.search", "sort": "pramtraj.algorithms.sorting",
         "scc": "pramtraj.algorithms.scc"}

# what every command loads: the package, the CLI, the registry and what it imports
BASE = {"pramtraj", "pramtraj.cli", "pramtraj.algorithms", "pramtraj.machine", "pramtraj.spec"}

# A validate job loads 1,949 (search), 2,007 (sort) or 2,224 (scc, with graphs)
# lines of src/pramtraj, of the 3,235 of all its modules.  An eager import of
# harness (121 lines), efficiency (260) or a second algorithm module (276 at
# least) would take the scc job past this bound.
VALIDATE_LINES = 2250

# runs one CLI job in a fresh interpreter, then prints its exit status and the
# source lines of each pramtraj module it loaded
PROBE = """
import contextlib, io, json, sys
from pathlib import Path
from pramtraj.cli import cli_main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli_main(sys.argv[1:])
lines = {name: len(Path(module.__file__).read_text().splitlines())
         for name, module in sys.modules.items() if name.partition(".")[0] == "pramtraj"}
print(json.dumps([code, lines]))
"""


def loaded(*argv: str) -> dict[str, int]:
    """The source lines of each pramtraj module that one CLI job loads."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    code, lines = json.loads(done.stdout)
    assert code == 0, argv
    return lines


def algorithm_modules(lines: dict[str, int]) -> set[str]:
    return {name for name in lines if name.startswith("pramtraj.algorithms.")}


def home_of(algo: str) -> set[str]:
    """The modules that the algorithm's spec needs: its home module, and the
    digraph records of the SCC pair."""
    family = spec_for(algo).family
    return {HOMES[family]} | ({"pramtraj.graphs"} if family == "scc" else set())


class TestCommandImports:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_validate_loads_its_algorithm_and_no_other_stage(self, tmp_path, capsys, algo):
        data = tmp_path / "d.ndjson"
        assert cli_main(["gen", "--algo", algo, "--n-list", "2,5", "--samples", "2", "--seed", "1",
                         "--out", str(data)]) == 0
        lines = loaded("validate", "--in", str(data))
        assert set(lines) == BASE | {"pramtraj.trajectory"} | home_of(algo)
        assert sum(lines.values()) <= VALIDATE_LINES, lines

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_gen_loads_one_algorithm_and_no_efficiency(self, tmp_path, algo):
        out = tmp_path / "d.ndjson"
        lines = loaded("gen", "--algo", algo, "--n", "3", "--samples", "1", "--out", str(out))
        assert set(lines) == BASE | {"pramtraj.trajectory", "pramtraj.harness"} | home_of(algo)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_analyze_loads_one_algorithm(self, algo):
        lines = loaded("analyze", "--algo", algo, "--n-list", "2,3,4", "--samples", "1")
        assert algorithm_modules(lines) == {HOMES[spec_for(algo).family]}
        assert "pramtraj.efficiency" in lines

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_compare_loads_one_algorithm(self, pair):
        lines = loaded("compare", "--pair", pair, "--n", "4", "--samples", "1")
        assert algorithm_modules(lines) == {HOMES[pair]}

    def test_help_loads_no_algorithm_and_no_stage(self):
        assert set(loaded("--help")) == BASE


class TestRegistry:
    def test_algorithms_are_the_pairs_of_the_modules_in_order(self):
        assert ALGORITHMS == tuple(spec.name for module in MODULES for spec in module.PAIR)

    def test_pairs_are_each_modules_sequential_and_parallel_names(self):
        assert PAIRS == {par.family: (seq.name, par.name) for par, seq in (m.PAIR for m in MODULES)}
        assert list(PAIRS) == [module.PAIR[0].family for module in MODULES]

    def test_each_home_module_defines_its_spec_under_the_name_in_capitals(self):
        for module in MODULES:
            assert module.__name__ == HOMES[module.PAIR[0].family]
            for spec in module.PAIR:
                assert getattr(module, spec.name.upper()) is spec
                assert spec_for(spec.name) is spec

    @pytest.mark.parametrize("name", ["nope", "OETS", "PAIR", "", "oets "])
    def test_an_unknown_name_is_a_value_error(self, name):
        with pytest.raises(ValueError, match="unknown algorithm"):
            spec_for(name)
        with pytest.raises(ValueError, match="unknown algorithm"):
            run(name, None)
