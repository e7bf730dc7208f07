import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from random import Random

import pytest

import pramtraj
from pramtraj import efficiency, harness
from pramtraj.algorithms.sorting import gen_permutation, predecessors_from_table
from pramtraj.cli import cli_main
from pramtraj.harness import sample_seed
from pramtraj.machine import (
    HOLD,
    UNDEF,
    CellTypeError,
    MachineState,
    Program,
    StepLimitExceeded,
    UndefinedValueError,
    complete_graph,
    run_machine,
)
from pramtraj.spec import increasing_unit_scalars
from pramtraj.trajectory import Sample, parse_ndjson, schema_path_for, serialize_ndjson, serialize_schema


def run_cli(args):
    return cli_main(args)


class TestGen:
    def test_deterministic_dataset(self, tmp_path, capsys):
        out_a = tmp_path / "a.ndjson"
        out_b = tmp_path / "b.ndjson"
        base = ["gen", "--algo", "parallel_search", "--n", "16", "--samples", "10", "--seed", "42"]
        assert run_cli(base + ["--out", str(out_a)]) == 0
        assert run_cli(base + ["--out", str(out_b)]) == 0
        data = out_a.read_bytes()
        assert data == out_b.read_bytes()
        assert len(data.splitlines()) == 10
        assert schema_path_for(out_a).exists()

    def test_gen_then_validate_clean(self, tmp_path, capsys):
        out = tmp_path / "d.ndjson"
        assert run_cli(["gen", "--algo", "dcsc", "--n-list", "4,8", "--samples", "3",
                        "--seed", "7", "--out", str(out)]) == 0
        assert run_cli(["validate", "--in", str(out)]) == 0
        captured = capsys.readouterr()
        assert "zero violations" in captured.out

    def test_validate_catches_corruption(self, tmp_path, capsys):
        out = tmp_path / "d.ndjson"
        run_cli(["gen", "--algo", "oets", "--n", "5", "--samples", "2", "--seed", "1",
                 "--out", str(out)])
        lines = out.read_text().splitlines()
        obj = json.loads(lines[0])
        obj["hints"][0]["values"]["parity"] = 2
        lines[0] = json.dumps(obj, sort_keys=True)
        out.write_text("\n".join(lines) + "\n")
        assert run_cli(["validate", "--in", str(out)]) == 1
        assert "mask domain" in capsys.readouterr().out

    def _validate_corrupted(self, tmp_path, capsys, edit):
        out = tmp_path / "d.ndjson"
        run_cli(["gen", "--algo", "parallel_search", "--n", "8", "--samples", "2",
                 "--seed", "0", "--out", str(out)])
        lines = out.read_text().splitlines()
        obj = json.loads(lines[0])
        edit(obj)
        lines[0] = json.dumps(obj, sort_keys=True)
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli(["validate", "--in", str(out)])
        return code, capsys.readouterr().out

    def test_validate_reports_boxed_position(self, tmp_path, capsys):
        def box(obj):
            obj["inputs"]["pos"][3] = [obj["inputs"]["pos"][3]]

        code, out = self._validate_corrupted(tmp_path, capsys, box)
        assert code == 1
        assert "line 1: inputs.pos: scalar must be finite" in out

    def test_validate_reports_hint_values_list(self, tmp_path, capsys):
        def listify(obj):
            obj["hints"][0]["values"] = [[1], [0]]

        code, out = self._validate_corrupted(tmp_path, capsys, listify)
        assert code == 1
        assert "line 1: hints[0]: values must be an object" in out

    def test_validate_reports_inputs_list(self, tmp_path, capsys):
        def listify(obj):
            obj["inputs"] = [[0.5], [0.25]]

        code, out = self._validate_corrupted(tmp_path, capsys, listify)
        assert code == 1
        assert "line 1: inputs: must be an object" in out

    def test_validate_replays_every_frame(self, tmp_path, capsys):
        out = tmp_path / "d.ndjson"
        run_cli(["gen", "--algo", "kosaraju", "--n", "6", "--samples", "2", "--seed", "0",
                 "--out", str(out)])
        lines = out.read_text().splitlines()
        obj = json.loads(lines[0])
        order = obj["hints"][3]["values"]["finish_order"]
        order[0] = (order[0] + 1) % 6
        lines[0] = json.dumps(obj, sort_keys=True)
        out.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(["validate", "--in", str(out)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "line 1: replay: frame 3: finish_order mismatch",
            "1 violations in 2 samples",
        ]

    def _validate_sample(self, tmp_path, capsys, algo, n, edit):
        """validate on a one-line dataset of ``algo``, the line edited in
        place and written back in the writer's spelling."""
        out = tmp_path / "d.ndjson"
        run_cli(["gen", "--algo", algo, "--n", str(n), "--samples", "1", "--seed", "0", "--out", str(out)])
        (sample,) = parse_ndjson(out.read_bytes())
        edit(sample)
        out.write_bytes(serialize_ndjson([sample]))
        capsys.readouterr()
        code = run_cli(["validate", "--in", str(out)])
        return code, capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("algo", ["oets", "bubble_sort"])
    def test_validate_catches_a_flipped_cached_row(self, tmp_path, capsys, algo):
        # an all-zero swap_mask row of the last frame is replaced by a copy
        # with one 1; the text of the unedited row is the one the writer's row
        # cache already holds
        def flip(sample):
            mask = sample.hints[-1].values["swap_mask"]
            row = next(r for r in range(len(mask)) if not any(mask[r]))
            mask[row] = flipped = list(mask[row])
            flipped[(row + 3) % len(mask)] = 1

        k = {"oets": 7, "bubble_sort": 27}[algo]
        assert self._validate_sample(tmp_path, capsys, algo, 8, flip) == (1, [
            f"line 1: replay: frame {k}: swap_mask mismatch",
            "1 violations in 1 samples",
        ])

    def test_validate_checks_pos_against_the_seed(self, tmp_path, capsys):
        def halve(sample):
            sample.inputs["pos"][0] /= 2

        assert self._validate_sample(tmp_path, capsys, "oets", 6, halve) == (1, [
            "line 1: inputs.pos: not drawn from seed.value",
            "1 violations in 1 samples",
        ])

    _PROVENANCE = "seed.value: not derived from seed.master, algo, n and seed.index"

    @pytest.mark.parametrize("edit, violation", [
        pytest.param(lambda o: o.__setitem__("seed", None), "seed: must be an object", id="seed-null"),
        pytest.param(lambda o: o["seed"].pop("value"),
                     "seed: expected ['index', 'master', 'value'], got ['index', 'master']", id="no-value"),
        pytest.param(lambda o: o["seed"].__setitem__("index", 99), _PROVENANCE, id="index-99"),
        pytest.param(lambda o: o["seed"].__setitem__("index", "x"), "seed.index: must be an int >= 0",
                     id="index-str"),
        pytest.param(lambda o: o["seed"].__setitem__("index", -1), "seed.index: must be an int >= 0",
                     id="index-negative"),
        pytest.param(lambda o: o["seed"].__setitem__("master", 1), _PROVENANCE, id="master-1"),
        pytest.param(lambda o: o["seed"].__setitem__("extra", 0),
                     "seed: expected ['index', 'master', 'value'], got ['extra', 'index', 'master', 'value']",
                     id="extra-key"),
        pytest.param(lambda o: o.__setitem__("activity", {"steps": o["activity"]["steps"]}),
                     "activity: expected ['m', 'steps', 'width'], got ['steps']", id="steps-only"),
        pytest.param(lambda o: o["activity"].__setitem__("m", -1), "activity.m: must be an int >= 0",
                     id="m-negative"),
        pytest.param(lambda o: o["activity"].__setitem__("steps", [{"x": 1}] * len(o["hints"])),
                     "activity.steps[0]: expected ['edges', 'nodes', 'ops'], got ['x']", id="step-keys"),
        pytest.param(lambda o: o["activity"]["steps"][2].__setitem__("ops", True),
                     "activity.steps[2].ops: must be an int >= 0", id="step-bool"),
    ])
    def test_validate_checks_the_seed_and_activity_blocks(self, tmp_path, capsys, edit, violation):
        out = tmp_path / "d.ndjson"
        run_cli(["gen", "--algo", "oets", "--n", "6", "--samples", "1", "--seed", "0", "--out", str(out)])
        obj = json.loads(out.read_bytes())
        edit(obj)
        out.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
        capsys.readouterr()
        assert run_cli(["validate", "--in", str(out)]) == 1
        assert capsys.readouterr().out.splitlines() == [f"line 1: {violation}", "1 violations in 1 samples"]

    def test_validate_reports_off_domain_adjacency(self, tmp_path, capsys):
        def half_edge(obj):
            obj["inputs"]["adj_directed"][0][1] = 0.5

        def self_loop(obj):
            obj["inputs"]["adj_directed"][2][2] = 1.0

        def open_closure(obj):
            row = obj["inputs"]["adj_undirected"][1]
            row[4] = 1 - row[4]

        expected = {
            half_edge: "inputs.adj_directed: cells must be 0.0 or 1.0",
            self_loop: "inputs.adj_directed: diagonal must be 0.0",
            open_closure: "inputs.adj_undirected: must be the symmetric closure of adj_directed",
        }
        for algo in ("dcsc", "kosaraju"):
            out = tmp_path / f"{algo}.ndjson"
            run_cli(["gen", "--algo", algo, "--n", "6", "--samples", "1", "--seed", "0",
                     "--out", str(out)])
            clean = out.read_text()
            for edit, message in expected.items():
                obj = json.loads(clean)
                edit(obj)
                out.write_text(json.dumps(obj, sort_keys=True) + "\n")
                capsys.readouterr()
                assert run_cli(["validate", "--in", str(out)]) == 1, (algo, edit.__name__)
                assert capsys.readouterr().out.splitlines() == [
                    f"line 1: {message}",
                    "1 violations in 1 samples",
                ], (algo, edit.__name__)

    def test_validate_odd_inputs_without_traceback(self, tmp_path, capsys):
        def diagonal(obj):
            obj["inputs"]["adj_directed"][2][2] = 1.0

        def half_edge(obj):
            obj["inputs"]["adj_directed"][0][1] = 0.5

        def ascending(obj):
            obj["inputs"]["items"].sort()

        def duplicates(obj):
            items = obj["inputs"]["items"]
            items[1] = items[4] = items[0]

        for algo, edit in (("dcsc", diagonal), ("kosaraju", diagonal), ("dcsc", half_edge),
                           ("kosaraju", half_edge), ("parallel_search", ascending),
                           ("binary_search", ascending), ("oets", duplicates),
                           ("bubble_sort", duplicates)):
            out = tmp_path / f"{algo}-{edit.__name__}.ndjson"
            run_cli(["gen", "--algo", algo, "--n", "6", "--samples", "3", "--seed", "0",
                     "--out", str(out)])
            objs = [json.loads(line) for line in out.read_text().splitlines()]
            for obj in objs:
                edit(obj)
            out.write_text("".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs))
            assert run_cli(["validate", "--in", str(out)]) in (0, 1), (algo, edit.__name__)

    def test_validate_rejects_boolean_size(self, tmp_path, capsys):
        # true == 1, but a JSON boolean is not a size
        out = tmp_path / "d.ndjson"
        run_cli(["gen", "--algo", "oets", "--n", "1", "--samples", "1", "--seed", "0",
                 "--out", str(out)])
        line = out.read_bytes()
        assert b'"n":1,' in line
        out.write_bytes(line.replace(b'"n":1,', b'"n":true,'))
        capsys.readouterr()
        assert run_cli(["validate", "--in", str(out)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "line 1: n must be a positive integer",
            "1 violations in 1 samples",
        ]

    def test_validate_rejects_edited_schema(self, tmp_path, capsys):
        out = tmp_path / "d.ndjson"
        run_cli(["gen", "--algo", "oets", "--n", "5", "--samples", "2", "--seed", "1",
                 "--out", str(out)])
        schema = schema_path_for(out)
        schema.write_text(schema.read_text().replace('"dtype":"mask"', '"dtype":"categorical"', 1))
        capsys.readouterr()
        assert run_cli(["validate", "--in", str(out)]) == 1
        assert capsys.readouterr().out == f"{schema}: schema does not match the registry's oets\n"


    def _validate_bytes(self, tmp_path, capsys, data, schema_edit=None):
        out = tmp_path / "d.ndjson"
        run_cli(["gen", "--algo", "oets", "--n", "5", "--samples", "3", "--seed", "2",
                 "--out", str(out)])
        lines = out.read_bytes().splitlines()
        out.write_bytes(data(lines))
        if schema_edit is not None:
            schema = schema_path_for(out)
            schema.write_bytes(schema_edit(schema.read_bytes()))
        capsys.readouterr()
        code = run_cli(["validate", "--in", str(out)])
        return code, capsys.readouterr().out.replace(str(out), "D")

    def test_validate_line_by_line_reports(self, tmp_path, capsys):
        retype = lambda schema: schema.replace(b'"dtype":"mask"', b'"dtype":"categorical"', 1)
        cases = [
            (lambda ls: b"\n".join(ls[:2] + [b"{oops"]) + b"\n", None, 1,
             "D: line 3: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"),
            (lambda ls: b"\n".join(ls[:1] + [b""] + ls[1:]) + b"\n", None, 1, "D: line 2: blank line\n"),
            (lambda ls: b"".join(line + b"\r\n" for line in ls), None, 0, "ok: 3 samples, zero violations\n"),
            (lambda ls: b"", None, 0, "ok: 0 samples, zero violations\n"),
            (lambda ls: b"\n".join(ls + [b"[1,"]) + b"\n", retype, 1,
             "D: line 4: Expecting value: line 1 column 4 (char 3)\n"),
            (lambda ls: b"\n".join(ls) + b"\n", retype, 1,
             f"{tmp_path / 'd.schema'}: schema does not match the registry's oets\n"),
            (lambda ls: b"\n".join(ls) + b"\n\n", None, 1, "D: line 4: blank line\n"),
            # a sidecar byte that is not UTF-8 is a format error of its line
            (lambda ls: b"\n".join(ls) + b"\n", lambda schema: b"\xff", 1,
             f"{tmp_path / 'd.schema'}: line 1: 'utf-8' codec can't decode byte 0xff in position 0: "
             "invalid start byte\n"),
            (lambda ls: b"\n".join(ls) + b"\n", lambda schema: b"{}\n{}\n\xff", 1,
             f"{tmp_path / 'd.schema'}: line 3: 'utf-8' codec can't decode byte 0xff in position 6: "
             "invalid start byte\n"),
            (lambda ls: b"\n".join([ls[0], ls[1].replace(b'"parity":0', b'"parity":2', 1), ls[2]]), None, 1,
             "line 2: hints[0].parity: mask domain\n1 violations in 3 samples\n"),
        ]
        for data, schema_edit, code, report in cases:
            assert self._validate_bytes(tmp_path, capsys, data, schema_edit) == (code, report)

    def test_validate_reports_undecodable_line(self, tmp_path, capsys):
        # a byte that is not UTF-8 is a format error of its line, not a bad argument
        def bad_byte(lines):
            lines[1] = lines[1][:30] + b"\xff" + lines[1][31:]
            return b"\n".join(lines) + b"\n"

        assert self._validate_bytes(tmp_path, capsys, bad_byte) == (
            1, "D: line 2: 'utf-8' codec can't decode byte 0xff in position 30: invalid start byte\n"
        )

    def test_validate_reports_deep_nesting(self, tmp_path, capsys):
        code, out = self._validate_bytes(tmp_path, capsys, lambda ls: ls[0] + b"\n" + b"[" * 100_000)
        assert (code, out.splitlines()[0].split(": maximum recursion depth")[0]) == (1, "D: line 2")

    def test_validate_reports_overlong_int(self, tmp_path, capsys):
        # an int too long for json to convert is a format error of its line
        def long_master(lines):
            head, _, tail = lines[0].partition(b'"master":2')
            return head + b'"master":' + b"7" * 5000 + tail + b"\n"

        code, out = self._validate_bytes(tmp_path, capsys, long_master)
        assert (code, out.split(" (4300 digits)")[0]) == (1, "D: line 1: Exceeds the limit")

    def test_validate_reports_deeply_nested_schema(self, tmp_path, capsys):
        keep = lambda ls: b"\n".join(ls) + b"\n"
        code, out = self._validate_bytes(tmp_path, capsys, keep, lambda schema: b"[" * 100_000)
        assert (code, out.split(": maximum recursion depth")[0]) == (1, f"{tmp_path / 'd.schema'}: line 1")

    def test_validate_memory_stays_flat(self, tmp_path):
        # the Python heap peak of validate is one sample's, not the file's
        peaks = []
        for samples in (1, 4):
            out = tmp_path / f"b{samples}.ndjson"
            run_cli(["gen", "--algo", "bubble_sort", "--n", "24", "--samples", str(samples),
                     "--seed", "1", "--out", str(out)])
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert run_cli(["validate", "--in", str(out)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks

    def test_validate_memory_is_bounded_by_a_frameless_line(self, tmp_path):
        # a sorting line with no frames and no layers is a few kB; its replay
        # would run to n(n-1)/2 (bubble_sort) or n (oets) frames of n x n
        # masks, but it stops one frame past the line's count
        for algo, n in (("bubble_sort", 60), ("oets", 200)):
            seed = sample_seed(0, algo, n, 0)
            inst = gen_permutation(n, seed)
            ranked = tuple(sorted(range(n), key=inst.items.__getitem__))
            sample = Sample(
                algo=algo,
                n=n,
                seed={"index": 0, "master": 0, "value": seed},
                inputs={"items": list(inst.items), "pos": increasing_unit_scalars(Random(seed), n)},
                hints=(),
                outputs={"pred": list(predecessors_from_table(ranked))},
                activity={"m": n * (n - 1), "steps": [], "width": n},
            )
            out = tmp_path / f"{algo}.ndjson"
            out.write_bytes(serialize_ndjson([sample]))
            schema_path_for(out).write_bytes(serialize_schema(algo))
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()) as report:
                    assert run_cli(["validate", "--in", str(out)]) == 1
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert "line 1: replay: 0 frames, the replay takes more" in report.getvalue(), algo
            assert peak < 5_000_000, (algo, peak)


class TestTrace:
    def test_oets_shows_two_swap_rounds(self, capsys):
        assert run_cli(["trace", "--algo", "oets", "--input", "3,1,2"]) == 0
        out = capsys.readouterr().out
        swap_lines = [l for l in out.splitlines() if "swaps=[(" in l]
        assert len(swap_lines) == 2
        assert "order=[1, 2, 3]" in out

    def test_search_inline(self, capsys):
        assert run_cli(["trace", "--algo", "parallel_search", "--input", "9,7,5,3,1;5"]) == 0
        out = capsys.readouterr().out
        assert "output: 2" in out
        assert "width=6 depth=2" in out

    def test_digraph_inline(self, capsys):
        assert run_cli(["trace", "--algo", "dcsc", "--input", "3:0->1,1->0,1->2"]) == 0
        out = capsys.readouterr().out
        assert "output: (0, 0, 2)" in out

    def test_malformed_inline_input(self, capsys):
        assert run_cli(["trace", "--algo", "oets", "--input", "3,x,2"]) == 2
        assert "bad --input" in capsys.readouterr().err

    def test_search_missing_query(self, capsys):
        assert run_cli(["trace", "--algo", "binary_search", "--input", "3,2,1"]) == 2

    @pytest.mark.parametrize(
        "algo, text, what",
        [
            ("oets", "1,nan,2", "items"),
            ("bubble_sort", "1e999,1", "items"),
            ("binary_search", "inf;1", "items"),
            ("parallel_search", "3,2,1;nan", "query"),
            ("binary_search", "3,2,1;-inf", "query"),
        ],
    )
    def test_non_finite_inline_input(self, capsys, algo, text, what):
        assert run_cli(["trace", "--algo", algo, "--input", text]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: bad --input for {algo}: ")
        assert what in err and "must be finite" in err


class TestAnalyze:
    def test_report_and_table(self, capsys):
        code = run_cli(["analyze", "--algo", "parallel_search", "--n-list", "4,8,16",
                        "--samples", "3", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        records = [json.loads(l) for l in lines if l.startswith("{")]
        assert any("summary" in r for r in records)
        assert any(r.get("n") == 8 for r in records)
        assert lines[-4].split()[0] == "algo"  # table header precedes 3 rows

    def test_deterministic_output(self, capsys):
        args = ["analyze", "--algo", "oets", "--n-list", "4,6,8", "--samples", "2", "--seed", "3"]
        run_cli(args)
        first = capsys.readouterr().out
        run_cli(args)
        assert capsys.readouterr().out == first

    def test_exhaustive_rejects_scc(self, capsys):
        code = run_cli(["analyze", "--algo", "dcsc", "--n-list", "3,4,5",
                        "--samples", "1", "--seed", "0", "--exhaustive"])
        assert code == 2

    def test_bad_n_list(self, capsys):
        assert run_cli(["analyze", "--algo", "oets", "--n-list", "4;8",
                        "--samples", "1", "--seed", "0"]) == 2


class TestCompare:
    def test_search_pair_separation(self, capsys):
        assert run_cli(["compare", "--pair", "search", "--n", "32",
                        "--samples", "50", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        # the analyze table: one row per algorithm, keyed by its first column
        rows = {line.split()[0]: line.split() for line in out.splitlines()[1:]}
        header = out.splitlines()[0].split()
        eta_i = header.index("eta")
        eps_i = header.index("eps_mean")
        assert float(rows["parallel_search"][eta_i]) > float(rows["binary_search"][eta_i])
        assert float(rows["parallel_search"][eps_i]) > float(rows["binary_search"][eps_i])

    def test_unknown_pair(self):
        assert run_cli(["compare", "--pair", "graphs", "--n", "8",
                        "--samples", "2", "--seed", "0"]) == 2


class TestErrors:
    def test_unknown_algorithm(self, capsys):
        assert run_cli(["gen", "--algo", "quicksort", "--n", "4", "--samples", "1",
                        "--seed", "0", "--out", "x"]) == 2

    def test_unreadable_path(self, capsys):
        assert run_cli(["validate", "--in", "/nonexistent/d.ndjson"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_failed_gen_names_sample_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        real_run = harness.run
        calls = []

        def run_then_fail(algo, inst):
            calls.append(algo)
            if len(calls) == 2:
                raise StepLimitExceeded("halt predicate never fired")
            return real_run(algo, inst)

        monkeypatch.setattr(harness, "run", run_then_fail)
        out = tmp_path / "d.ndjson"
        assert run_cli(["gen", "--algo", "oets", "--n", "6", "--samples", "3", "--seed", "9",
                        "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "(algo oets, n 6, master seed 9, index 1)" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["analyze", "--algo", "oets", "--n-list", "4,5,6"],
        ["compare", "--pair", "sort", "--n", "4"],
        ["analyze", "--algo", "oets", "--n-list", "4,5,6", "--exhaustive"],
    ])
    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_sample_count_must_be_positive(self, capsys, command, count):
        assert run_cli(command + ["--samples", count, "--seed", "0"]) == 2
        assert capsys.readouterr() == ("", "error: samples_per_n must be >= 1\n")

    @pytest.mark.parametrize("command", [
        ["gen", "--algo", "oets", "--n", "4", "--samples", "1"],
        ["gen", "--algo", "dcsc", "--n", "4", "--samples", "1"],
        ["analyze", "--algo", "oets", "--n-list", "4,5,6", "--samples", "1"],
        ["analyze", "--algo", "dcsc", "--n-list", "4,5,6", "--samples", "1"],
        ["compare", "--pair", "sort", "--n", "4", "--samples", "1"],
        ["compare", "--pair", "scc", "--n", "4", "--samples", "1"],
    ], ids=lambda argv: f"{argv[0]}-{argv[2]}")
    @pytest.mark.parametrize("degree", ["0", "-5"])
    def test_max_degree_must_be_positive(self, tmp_path, capsys, command, degree):
        out = ["--out", str(tmp_path / "d.ndjson")] if command[0] == "gen" else []
        assert run_cli(command + ["--max-degree", degree, "--seed", "0"] + out) == 2
        assert capsys.readouterr() == ("", "error: max_degree must be >= 1\n")
        assert list(tmp_path.iterdir()) == []

    def test_gen_rejects_a_repeated_size(self, tmp_path, capsys):
        out = tmp_path / "d.ndjson"
        assert run_cli(["gen", "--algo", "oets", "--n-list", "3,4,3", "--samples", "1",
                        "--seed", "0", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: n_list must not repeat a size\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("inputs, label", [
        (["--samples", "3", "--seed", "9"], "master seed 9, index 1"),
        (["--samples", "1", "--exhaustive"], "exhaustive index 1"),
    ])
    def test_failed_analyze_names_sample(self, monkeypatch, capsys, inputs, label):
        real_run = efficiency.run
        calls = []

        def run_then_fail(algo, inst, fold):
            calls.append(algo)
            if len(calls) == 2:
                raise StepLimitExceeded("halt predicate never fired")
            return real_run(algo, inst, fold)

        monkeypatch.setattr(efficiency, "run", run_then_fail)
        assert run_cli(["analyze", "--algo", "oets", "--n-list", "4,5,6"] + inputs) == 1
        assert capsys.readouterr() == (
            "", f"error: halt predicate never fired (algo oets, n 4, {label})\n"
        )

    @pytest.mark.parametrize("command", [
        ["gen", "--algo", "oets", "--n", "4", "--samples", "2", "--out", "d.ndjson"],
        ["analyze", "--algo", "oets", "--n-list", "4,5,6", "--samples", "2"],
    ], ids=lambda argv: argv[0])
    def test_any_machine_failure_names_sample(self, tmp_path, monkeypatch, capsys, command):
        # every machine error, not only a step limit, is relabelled with its
        # type kept, and is a machine failure (exit 1)
        def fail(*args, **kwargs):
            raise CellTypeError("cell UNDEF is not a scalar")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "run", fail)
        monkeypatch.setattr(efficiency, "run", fail)
        assert run_cli(command + ["--seed", "9"]) == 1
        assert capsys.readouterr() == (
            "", "error: cell UNDEF is not a scalar (algo oets, n 4, master seed 9, index 0)\n"
        )
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(CellTypeError, match=r"\(algo oets, n 4, master seed 9, index 0\)$"):
            list(harness.build_samples(harness.GenConfig("oets", (4,), 2, 9)))
        with pytest.raises(CellTypeError, match=r"\(algo oets, n 4, exhaustive index 0\)$"):
            efficiency.size_record("oets", 4, 1, 0, exhaustive=True)

    def test_failed_layer_is_named_before_the_sample(self, tmp_path, monkeypatch, capsys):
        # pid 1 reads UNDEF at clock 2, in the layer whose record would be step 3
        def fail(algo, inst):
            def step(ctx):
                if ctx.pid == 1 and ctx.clock == 2:
                    ctx.own(1, float)
                return HOLD

            initial = MachineState(((0.0, UNDEF),) * 3, (), 0)
            return run_machine(Program(algo, initial, step, complete_graph(3),
                                       lambda s: s.clock >= 5, 8, lambda s: s))

        monkeypatch.setattr(harness, "run", fail)
        out = tmp_path / "d.ndjson"
        assert run_cli(["gen", "--algo", "oets", "--n", "4", "--samples", "2", "--seed", "9",
                        "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: read of undefined cell where scalar expected"
                                           " (layer 3, node 1) (algo oets, n 4, master seed 9, index 0)\n")
        with pytest.raises(UndefinedValueError):
            list(harness.build_samples(harness.GenConfig("oets", (4,), 1, 9)))

    def test_dataset_cannot_be_its_own_sidecar(self, tmp_path, capsys):
        path = tmp_path / "d.schema"
        error = f"error: dataset {path} would be its own schema sidecar\n"
        assert run_cli(["gen", "--algo", "oets", "--n", "4", "--samples", "2", "--seed", "0",
                        "--out", str(path)]) == 2
        assert capsys.readouterr() == ("", error)
        assert list(tmp_path.iterdir()) == []
        path.write_bytes(serialize_schema("oets"))
        assert run_cli(["validate", "--in", str(path)]) == 2
        assert capsys.readouterr() == ("", error)

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]) == 2

    def test_missing_required(self):
        assert run_cli(["gen", "--algo", "oets"]) == 2


class TestEnvSeed:
    def test_pramtraj_seed_default(self, tmp_path, monkeypatch, capsys):
        out_env = tmp_path / "env.ndjson"
        out_flag = tmp_path / "flag.ndjson"
        monkeypatch.setenv("PRAMTRAJ_SEED", "4242")
        run_cli(["gen", "--algo", "oets", "--n", "5", "--samples", "2", "--out", str(out_env)])
        monkeypatch.delenv("PRAMTRAJ_SEED")
        run_cli(["gen", "--algo", "oets", "--n", "5", "--samples", "2", "--seed", "4242",
                 "--out", str(out_flag)])
        assert out_env.read_bytes() == out_flag.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--algo", "oets", "--n-list", "4,8,16", "--samples", "1"],
            ["gen", "--algo", "oets", "--n", "4", "--samples", "1", "--out", "never.ndjson"],
            ["compare", "--pair", "sort", "--n", "4", "--samples", "1"],
        ],
    )
    def test_bad_pramtraj_seed_is_named(self, monkeypatch, capsys, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PRAMTRAJ_SEED", "abc")
        assert run_cli(argv) == 2
        assert capsys.readouterr() == ("", "error: PRAMTRAJ_SEED must be an integer, got 'abc'\n")
        assert not (tmp_path / "never.ndjson").exists()


class TestStartup:
    def test_cli_import_leaves_numpy_out(self):
        src = str(Path(pramtraj.__file__).resolve().parents[1])
        code = "import sys, pramtraj.cli; sys.exit('numpy' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert done.returncode == 0

    def test_jobs_leave_dataclasses_and_inspect_out(self, tmp_path):
        # no job needs these, and each costs start-up on every run; a module
        # that a bare interpreter already loads here is not the program's
        src = str(Path(pramtraj.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        listed = "import sys; print(*sorted(sys.modules))"
        bare = subprocess.run([sys.executable, "-c", listed], env=env,
                              capture_output=True, text=True, timeout=60)
        code = (
            "import sys\n"
            "from pramtraj.cli import cli_main\n"
            "out = sys.argv[1]\n"
            "assert cli_main(['gen', '--algo', 'oets', '--n', '4', '--samples', '2', '--seed', '1',"
            " '--out', out]) == 0\n"
            "assert cli_main(['validate', '--in', out]) == 0\n"
            "assert cli_main(['analyze', '--algo', 'dcsc', '--n-list', '4,5,6', '--samples', '1',"
            " '--seed', '1']) == 0\n"
            f"{listed}\n"
        )
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "d.ndjson")], env=env,
                              capture_output=True, text=True, timeout=60)
        assert bare.returncode == 0 and done.returncode == 0, (bare.stderr, done.stderr)
        loaded = set(done.stdout.splitlines()[-1].split()) - set(bare.stdout.split())
        assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"}), loaded

    def test_analyze_leaves_numpy_out(self):
        src = str(Path(pramtraj.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "from pramtraj.cli import cli_main\n"
            "code = cli_main(['analyze', '--algo', 'dcsc', '--n-list', '4,8,16', '--samples', '2', '--seed', '1'])\n"
            "assert code == 0, code\n"
            "assert 'numpy' not in sys.modules\n"
        )
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert '"summary"' in done.stdout
