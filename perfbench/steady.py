#!/usr/bin/env python3
"""Steadiness check of the pramtraj benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--first-seed 1]

Runs `perfbench/run.py --trace 0` once per seed, `--runs` seeds per set and
workload of BENCHMARK.json, the sets one after another with fresh seeds.
For every workload and end-to-end metric it prints the median and quartiles
of each set and checks, against the bounds in BENCHMARK.json:
  - the spread (Q3 - Q1) / median of each set is within the bound;
  - each later set's median differs from the first set's, in either
    direction, by no more than the bound;
  - the share of failed operations is the same in every run.
Exit status 0 when every check holds, 1 otherwise. The runs are written to
perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(Q1, median, Q3, (Q3 - Q1) / median) as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[list[dict]]] = {w: [[] for _ in range(args.sets)] for w in names}
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for workload in names:
                result = run_once(workload, seed, spec["run_seconds"])
                runs[workload][s].append({"seed": seed, **result})
                print(f"set {s + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
            seed += 1
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(runs, indent=1), encoding="utf-8")

    ok = True
    for workload in names:
        sets = runs[workload]
        shares = {r["failed"] / r["attempted"] for runs_ in sets for r in runs_}
        wrong = sum(not r["correct"] for runs_ in sets for r in runs_)
        print(f"\n{workload}: failed share {sorted(shares)}, incorrect runs {wrong}")
        ok &= len(shares) == 1 and wrong == 0
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, runs_ in enumerate(sets):
                q1, med, q3, rel = spread([r["metrics"][name]["value"] for r in runs_])
                medians.append(med)
                steady = rel <= bound
                ok &= steady
                print(f"  {name:14s} set {s + 1}: median {med:.5g} {metric['unit']}"
                      f"  Q1 {q1:.5g}  Q3 {q3:.5g}  spread {rel:6.2%} of bound {bound:.0%}"
                      f"{'' if steady else '  TOO WIDE'}")
            for s, med in enumerate(medians[1:], start=2):
                drift = med / medians[0] - 1
                held = abs(drift) <= bound
                ok &= held
                print(f"  {name:14s} set {s} vs set 1: {drift:+.2%}{'' if held else '  OUT OF BOUND'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
