#!/usr/bin/env python3
"""Produce one hint-trajectory dataset per algorithm into a directory."""

import argparse
from pathlib import Path

from pramtraj.algorithms import ALGORITHMS
from pramtraj.harness import GenConfig, build_samples, write_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="datasets")
    parser.add_argument("--n-list", default="4,16")
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_list = tuple(int(p) for p in args.n_list.split(","))
    for algo in ALGORITHMS:
        cfg = GenConfig(algo, n_list, args.samples, args.seed)
        path = out_dir / f"{algo}.ndjson"
        count = write_dataset(path, build_samples(cfg), algo)
        print(f"{path}: {count} samples")


if __name__ == "__main__":
    main()
