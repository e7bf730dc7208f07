#!/usr/bin/env python3
"""pramtraj benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload gen|validate|analyze --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. With --trace 0 the workload's set-up runs
three times, then whole rounds of its `pramtraj` jobs run one process at a
time until S seconds have passed; each job is timed from its own rusage and
followed by one calibration process (calibrate.py), whose CPU time scales
every CPU figure of the run to a reference host speed.
With --trace 1 every workload runs a plain round, a traced round and a
plain round. A traced job is a process that calls `pramtraj.cli.cli_main`
with spans recorded (see spans.py); the per-layer metrics come from the
spans, the tracing overhead from the traced round against the plain ones.
The last line of stdout is the result as JSON.
Exit status 2 means the benchmark could not run (no pramtraj source here).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import Job, JobFailed, Result, WrongOutput  # noqa: E402

REPEATS = 3  # set-ups and `--help` start-ups per run; the median is reported
PRAMTRAJ = ["-m", "pramtraj"]
CALIBRATION = [str(HERE / "calibrate.py")]
# CPU seconds of one calibration process at the reference speed: about its
# median on the host of the reference figures (README)
CAL_REF_S = 0.42


def process_runner(workdir: Path, entry: list[str]):
    """Runs `python3 <entry> <argv>` processes one at a time, capturing their
    output in `workdir`; CPU and peak RSS come from each process's rusage."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PRAMTRAJ_SEED", None)

    def run(argv: list[str]) -> Result:
        with open(workdir / "stdout", "w+b") as out, open(workdir / "stderr", "w+b") as err:
            proc = subprocess.Popen([sys.executable, *entry, *argv], cwd=ROOT, env=env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Result(proc.returncode, out.read().decode("utf-8", "replace"),
                          err.read().decode("utf-8", "replace"),
                          usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    return run


def own_and_children_cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Tally:
    """Operations of a series of rounds, and per-round job totals."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.rounds: list[dict] = []

    def round(self, jobs: list[Job], run) -> dict:
        totals = {"cpu_s": 0.0, "samples": 0, "layers": 0, "rss_mb": 0.0}
        for job in jobs:
            self.attempted += 1
            result = run(job.argv)
            totals["cpu_s"] += result.cpu_s
            totals["rss_mb"] = max(totals["rss_mb"], result.rss_mb)
            try:
                samples, layers = job.check(result)
            except JobFailed as err:
                self.failed += 1
                print(f"failed: pramtraj {' '.join(job.argv[:3])}: {err}", file=sys.stderr)
                continue
            except (WrongOutput, KeyError, TypeError, ValueError) as err:
                self.wrong.append(f"pramtraj {' '.join(job.argv)}: {err!r}")
                continue
            totals["samples"] += samples
            totals["layers"] += layers
        self.rounds.append(totals)
        return totals

    def result(self, metrics: dict[str, float]) -> dict:
        for line in self.wrong:
            print(f"wrong output: {line}", file=sys.stderr)
        return {"correct": not self.wrong, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def end_to_end(workdir: Path, workload: str, seed: int, seconds: float) -> tuple[Tally, dict[str, float]]:
    setup = workloads.SETUP[workload]
    run_process = process_runner(workdir, PRAMTRAJ)
    run_calibration = process_runner(workdir, CALIBRATION)
    calibration_s = []

    def run_and_calibrate(argv: list[str]) -> Result:
        result = run_process(argv)
        calibration = run_calibration([])
        workloads.expect_exit(calibration, 0)
        calibration_s.append(calibration.cpu_s)
        return result

    setup_s = []
    for _ in range(REPEATS):
        before = own_and_children_cpu()
        jobs = setup(workdir, seed, run_process)
        setup_s.append(own_and_children_cpu() - before)
    # The host's speed drifts by ±20% over tens of seconds. The calibration
    # processes between a round's jobs drift with it, so a round's CPU
    # seconds times its scale are CPU seconds at the reference speed.
    scales = []
    tally = Tally()
    start = time.perf_counter()
    while True:
        mark = len(calibration_s)
        totals = tally.round(jobs, run_and_calibrate)
        scales.append(CAL_REF_S * (len(calibration_s) - mark) / sum(calibration_s[mark:]))
        print(f"round {len(tally.rounds)}: {totals['cpu_s']:.3f} s CPU, {totals['samples']} samples,"
              f" {totals['layers']} layers, peak {totals['rss_mb']:.0f} MB, scale {scales[-1]:.3f}")
        if time.perf_counter() - start >= seconds:
            break
    rounds, median = tally.rounds, statistics.median
    cpu = [r["cpu_s"] * scale for r, scale in zip(rounds, scales)]
    return tally, {
        "job_cpu_s": median(cpu),
        "samples_per_s": median(r["samples"] / c for r, c in zip(rounds, cpu)),
        "layers_per_s": median(r["layers"] / c for r, c in zip(rounds, cpu)),
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
        "setup_s": median(setup_s) * median(scales),
    }


def replay_reference(jobs: list[Job]) -> None:
    """Replays every sample of the clean validate files and compares the
    replayed outputs with the stored ones. Today's `validate` does not
    replay, so the traced run times replay here, as a reference figure."""
    from pramtraj import trajectory

    for job in jobs:
        path = Path(job.argv[-1])
        if not path.name.startswith("clean-"):
            continue
        with path.open(encoding="utf-8") as lines:
            for line in lines:
                sample = trajectory.Sample.from_obj(json.loads(line))
                if trajectory.replay_sample(sample) != sample.outputs:
                    raise WrongOutput(f"{path.name}: replay does not reproduce the outputs")


def traced(workdir: Path, seed: int) -> tuple[Tally, dict[str, float]]:
    sys.path.insert(0, str(ROOT / "src"))
    import spans as tracing

    run_process = process_runner(workdir, PRAMTRAJ)
    span_file = workdir / "spans.json"
    run_traced = process_runner(workdir, [str(HERE / "spans.py"), str(span_file)])
    startup = []
    for _ in range(REPEATS):
        result = run_process(["--help"])
        workloads.expect_exit(result, 0)
        startup.append(result.cpu_s)
    metrics = {"cli.startup_cpu_s": statistics.median(startup)}
    tally = Tally()
    by_workload = {}
    for workload, setup in workloads.SETUP.items():
        jobs = setup(workdir, seed, run_process)
        spans: list[tuple] = []

        def traced_job(argv: list[str]) -> Result:
            span_file.unlink(missing_ok=True)
            result = run_traced(argv)
            tracing.extend(spans, json.loads(span_file.read_text(encoding="utf-8")))
            return result

        # plain rounds on both sides of the traced one cancel a steady drift
        # of the box's speed
        before = tally.round(jobs, run_process)["cpu_s"]
        spanned = tally.round(jobs, traced_job)["cpu_s"]
        plain = (before + tally.round(jobs, run_process)["cpu_s"]) / 2
        if workload == "validate":
            with tracing.Tracer() as tracer:
                try:
                    replay_reference(jobs)
                except WrongOutput as err:
                    tally.wrong.append(str(err))
            tracing.extend(spans, tracer.spans)
        by_workload[workload] = spans
        metrics.update(tracing.layer_metrics(workload, spans, workloads.ALGOS))
        metrics[f"trace.{workload}.overhead_share"] = spanned / plain - 1
        print(f"{workload}: {plain:.3f} s CPU plain (mean of two rounds), {spanned:.3f} s traced,"
              f" {len(spans)} spans")
    tracing.write_spans(HERE / "out" / f"spans-{seed}.ndjson", by_workload)
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pramtraj" / "cli.py").is_file():
        print(f"error: no pramtraj source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            tally, values = traced(workdir, args.seed)
        else:
            tally, values = end_to_end(workdir, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(tally.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
