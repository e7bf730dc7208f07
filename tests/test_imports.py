"""Each command imports only its own stages and the one algorithm module it
runs, and the registry's static table names the modules that define the
specs."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import pramtraj
from pramtraj.algorithms import ALGORITHMS, PAIRS, TABLE, AlgorithmSpec, run, spec_for
from pramtraj.cli import cli_main

SRC = Path(pramtraj.__file__).resolve().parents[1]

# task family -> the module that defines its two specs, as sys.modules names it
HOMES = {"search": "pramtraj.algorithms.search", "sort": "pramtraj.algorithms.sorting",
         "scc": "pramtraj.algorithms.scc"}

# every pair module, imported by its file name under algorithms/
PAIR_MODULES = [
    import_module(f"pramtraj.algorithms.{path.stem}")
    for path in sorted((SRC / "pramtraj" / "algorithms").glob("*.py"))
    if path.stem != "__init__"
]

# what every command loads: the package, the CLI, the registry and what it imports
BASE = {"pramtraj", "pramtraj.cli", "pramtraj.algorithms", "pramtraj.machine"}

# what gen and validate load beside BASE and their algorithm's module: the
# dataset code and the canonical text it writes
DATASET = {"pramtraj.trajectory", "pramtraj.canonical"}

# what analyze and compare load beside BASE and their algorithm's module: the
# instance helpers, the metrics and the canonical text, and no dataset code
METRICS = {"pramtraj.harness", "pramtraj.efficiency", "pramtraj.canonical"}

# --help loads 963 lines of src/pramtraj, the BASE modules alone (1,026 when
# the registry imported a spec module beside it).  An eager import of an
# algorithm module (275 lines at least) or of a stage would pass this bound.
HELP_LINES = 1000

# A validate job loads 1,900 (search), 1,978 (sort) or 2,191 (scc) lines of
# src/pramtraj, of the 3,226 of all its modules.  An eager import of harness
# (154 lines), efficiency (250) or a second algorithm module (275 at least)
# would take the scc job past this bound.
VALIDATE_LINES = 2215

# An analyze job loads 1,739 (search), 1,817 (sort) or 2,030 (scc) lines of
# src/pramtraj, 2,299 to 2,569 when it compiled trajectory (650 lines) for
# dumps_canonical alone.  An eager import of trajectory (565 lines) or of a
# second algorithm module would take the scc job past this bound.
ANALYZE_LINES = 2033

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


def home_of(algo: str) -> set[str]:
    """The one module that the algorithm's spec needs: its home module."""
    return {HOMES[spec_for(algo).family]}


class TestCommandImports:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_validate_loads_its_algorithm_and_no_other_stage(self, tmp_path, capsys, algo):
        data = tmp_path / "d.ndjson"
        assert cli_main(["gen", "--algo", algo, "--n-list", "2,5", "--samples", "2", "--seed", "1",
                         "--out", str(data)]) == 0
        lines = loaded("validate", "--in", str(data))
        assert set(lines) == BASE | DATASET | home_of(algo)
        assert sum(lines.values()) <= VALIDATE_LINES, lines

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_gen_loads_one_algorithm_and_no_efficiency(self, tmp_path, algo):
        out = tmp_path / "d.ndjson"
        lines = loaded("gen", "--algo", algo, "--n", "3", "--samples", "1", "--out", str(out))
        assert set(lines) == BASE | DATASET | {"pramtraj.harness"} | home_of(algo)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_analyze_loads_one_algorithm(self, algo):
        lines = loaded("analyze", "--algo", algo, "--n-list", "2,3,4", "--samples", "1")
        assert set(lines) == BASE | METRICS | home_of(algo)
        assert sum(lines.values()) <= ANALYZE_LINES, lines

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_compare_loads_one_algorithm(self, pair):
        lines = loaded("compare", "--pair", pair, "--n", "4", "--samples", "1")
        assert set(lines) == BASE | METRICS | {HOMES[pair]}

    def test_help_loads_no_algorithm_and_no_stage(self):
        lines = loaded("--help")
        assert set(lines) == BASE
        assert sum(lines.values()) <= HELP_LINES, lines


def module_specs(module) -> dict[str, AlgorithmSpec]:
    """Each module-level AlgorithmSpec of a module, by its name there."""
    return {name: value for name, value in vars(module).items() if isinstance(value, AlgorithmSpec)}


class TestRegistry:
    def test_algorithms_are_the_pairs_of_the_modules_in_order(self):
        assert ALGORITHMS == tuple(name for _, par, seq in TABLE.values() for name in (par, seq))
        assert list(PAIRS) == list(TABLE)

    def test_pairs_are_each_modules_sequential_and_parallel_names(self):
        for family, (seq, par) in PAIRS.items():
            specs = module_specs(import_module(HOMES[family]))
            assert [spec.name for spec in specs.values()] == [par, seq]

    def test_each_home_module_defines_its_spec_under_the_name_in_capitals(self):
        for family, (home, *names) in TABLE.items():
            module = import_module(f"pramtraj.algorithms.{home}")
            assert module.__name__ == HOMES[family]
            for name in names:
                spec = getattr(module, name.upper())
                assert (spec.name, spec.family) == (name, family)
                assert spec_for(name) is spec

    def test_every_spec_of_a_pair_module_is_registered(self):
        assert [module.__name__ for module in PAIR_MODULES] == sorted(HOMES.values())
        for module in PAIR_MODULES:
            for name, spec in module_specs(module).items():
                assert name == spec.name.upper() and spec.name in ALGORITHMS, (module.__name__, name)
                assert spec_for(spec.name) is spec

    @pytest.mark.parametrize("name", ["nope", "OETS", "PAIR", "", "oets "])
    def test_an_unknown_name_is_a_value_error(self, name):
        with pytest.raises(ValueError, match="unknown algorithm"):
            spec_for(name)
        with pytest.raises(ValueError, match="unknown algorithm"):
            run(name, None)
