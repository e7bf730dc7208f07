"""A fixed CPU load that does not use pramtraj: the benchmark's yardstick.

    python3 perfbench/calibrate.py

The end-to-end run starts this process after every `pramtraj` job. Like the
jobs it starts an interpreter, imports numpy and json, and spends the rest
in dict, str and list operations and a JSON dump. Its CPU time therefore
moves with the host's speed and with nothing else, and run.py reports CPU
times scaled to the speed at which this load takes CAL_REF_S seconds.
"""

import json

import numpy  # noqa: F401  (the jobs pay this import too)

counts: dict[int, int] = {}
digits = 0
for i in range(300_000):
    key = i % 977
    counts[key] = counts.get(key, 0) + i
    digits += len(str(key))
rows = [[j * 0.5 for j in range(64)] for _ in range(2000)]
text = json.dumps(rows)
