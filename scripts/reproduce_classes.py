#!/usr/bin/env python3
"""Empirical reproduction of the worst-case capacity/efficiency classes.

Runs the scaling analysis for all six algorithms across input sizes and
prints one table per algorithm plus a summary of fitted log-log slopes and
nearest asymptotic classes.
"""

import argparse

from pramtraj.algorithms import ALGORITHMS
from pramtraj.efficiency import render_table, scaling_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-list", default="8,16,32,64,128")
    parser.add_argument("--samples", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    n_list = [int(p) for p in args.n_list.split(",")]

    summary = []
    for algo in ALGORITHMS:
        report = scaling_report(algo, n_list, args.samples, args.seed)
        print(render_table(report))
        print()
        slope = report.slopes["capacity"]
        summary.append(
            f"{algo:16s} capacity slope {slope:5.2f} -> {report.classes['capacity']:8s}"
            f"  eta -> {report.classes['eta'] or '-':5s}  eps -> {report.classes['eps'] or '-'}"
        )
    print("fitted classes")
    for line in summary:
        print(" ", line)


if __name__ == "__main__":
    main()
