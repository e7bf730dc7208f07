"""The package names that the benchmark under perfbench/ patches and calls.

A traced benchmark run (``perfbench/run.py --trace 1``) wraps the functions
listed by ``perfbench/spans.py:patch_points`` and replays the clean samples
with ``trajectory.Sample.from_obj`` and ``trajectory.replay_sample``.  These
tests keep a refactor of ``src/`` from breaking either unnoticed.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from pramtraj import trajectory
from pramtraj.algorithms import ALGORITHMS, run, sample_seed
from pramtraj.cli import cli_main
from pramtraj.harness import generate_instance
from pramtraj.machine import fold_trace


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def test_every_patch_point_is_the_function_its_layer_names():
    for layer, module, attr, _ in spans.patch_points():
        home, name = layer.rsplit(".", 1)
        assert name == attr, layer
        assert getattr(module, attr) is getattr(importlib.import_module(f"pramtraj.{home}"), name), (
            layer,
            module.__name__,
        )


def test_traced_jobs_record_every_stage(tmp_path, capsys):
    out = tmp_path / "d.ndjson"
    with spans.Tracer() as tracer:
        assert cli_main(["gen", "--algo", "oets", "--n", "5", "--samples", "2", "--seed", "0",
                         "--out", str(out)]) == 0
    stats = spans.LayerStats(tracer.spans)
    # one encode_sample and one serialize_ndjson([sample]) call per sample
    assert stats.calls["trajectory.encode_sample.oets"] == 2
    assert stats.calls["trajectory.serialize_ndjson.oets"] == 2
    assert stats.a["trajectory.serialize_ndjson.oets"] == 2
    assert stats.b["trajectory.serialize_ndjson.oets"] == out.stat().st_size
    assert stats.calls["machine.step_machine"] > 0

    # a line in other separators takes the full path: parse, validate, replay
    line = json.dumps(json.loads(out.read_bytes().splitlines()[0]))
    out.write_text(line + "\n")
    with spans.Tracer() as tracer:
        assert cli_main(["validate", "--in", str(out)]) == 0
    stats = spans.LayerStats(tracer.spans)
    for name in ("parse_ndjson", "validate_sample", "replay_sample"):
        assert stats.calls[f"trajectory.{name}.oets"] == 1, name


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_traced_layers_match_the_written_activity(tmp_path, capsys, algo):
    # the benchmark's per-layer processor counts are the machine's: one
    # step_machine call per layer, and its active count is the layer's nodes
    out = tmp_path / "d.ndjson"
    with spans.Tracer() as tracer:
        assert cli_main(["gen", "--algo", algo, "--n-list", "3,6", "--samples", "2", "--seed", "0",
                         "--out", str(out)]) == 0
    stats = spans.LayerStats(tracer.spans)
    steps = [json.loads(line)["activity"]["steps"] for line in out.read_text().splitlines()]
    assert stats.calls["machine.step_machine"] == sum(map(len, steps)) > 0
    assert stats.b["machine.step_machine"] == sum(step["nodes"] for run in steps for step in run)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_every_run_goes_through_its_module_run_machine(tmp_path, capsys, algo):
    # the benchmark times machine.run_machine where each algorithm module
    # calls it: one call per sample, so two sizes of two samples make four
    out = tmp_path / "d.ndjson"
    with spans.Tracer() as tracer:
        assert cli_main(["gen", "--algo", algo, "--n-list", "3,6", "--samples", "2", "--seed", "0",
                         "--out", str(out)]) == 0
    assert spans.LayerStats(tracer.spans).calls["machine.run_machine"] == 4


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_traced_analyze_counts_the_layers_of_its_runs(capsys, algo):
    # analyze folds each run into its counts on one live state: still one
    # run_machine call per run and one step_machine call per layer, whose
    # active counts are the nodes that traces of the same instances record
    n_list, samples, seed = (3, 4, 6), 2, 0
    with spans.Tracer() as tracer:
        assert cli_main(["analyze", "--algo", algo, "--n-list", ",".join(map(str, n_list)),
                         "--samples", str(samples), "--seed", str(seed)]) == 0
    stats = spans.LayerStats(tracer.spans)
    traces = [run(algo, generate_instance(algo, n, sample_seed(seed, algo, n, index)), fold_trace)[1]
              for n in n_list for index in range(samples)]
    assert stats.calls["machine.run_machine"] == stats.calls[f"algorithms.run.{algo}"] == len(traces)
    assert stats.calls["machine.step_machine"] == sum(trace.depth for trace in traces) > 0
    assert stats.b["machine.step_machine"] == sum(len(r.active_nodes) for trace in traces for r in trace.activity)


def test_samples_replay_as_the_benchmark_replays_them(tmp_path, capsys):
    out = tmp_path / "d.ndjson"
    assert cli_main(["gen", "--algo", "kosaraju", "--n", "5", "--samples", "2", "--seed", "0",
                     "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        sample = trajectory.Sample.from_obj(json.loads(line))
        assert trajectory.replay_sample(sample) == sample.outputs
