"""A fixed set of CLI jobs whose output bytes must not depend on the
interpreter: ``gen`` for every algorithm, one ``validate``, one ``trace``
and ``analyze`` of oets and dcsc, all in one process.

Run as ``PYTHONPATH=src python tests/interpreter_jobs.py`` in an empty
directory; it writes the datasets there and prints one JSON object, the
exit code and the sha256 of the stdout and written files of each job.
It needs the standard library only.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from pramtraj.algorithms import ALGORITHMS
from pramtraj.cli import cli_main

JOBS = {
    **{
        f"gen {algo}": ["gen", "--algo", algo, "--n-list", "3,6", "--samples", "2", "--seed", "4",
                        "--out", f"{algo}.ndjson"]
        for algo in ALGORITHMS
    },
    "validate dcsc": ["validate", "--in", "dcsc.ndjson"],
    "trace kosaraju": ["trace", "--algo", "kosaraju", "--input", "5:0->1,1->2,2->0,2->3,3->4,4->3"],
    "analyze oets": ["analyze", "--algo", "oets", "--n-list", "4,8,16", "--samples", "3", "--seed", "4"],
    "analyze dcsc": ["analyze", "--algo", "dcsc", "--n-list", "4,8,16", "--samples", "3", "--seed", "4"],
}


def main() -> None:
    digests = {}
    for name, argv in JOBS.items():
        before = set(Path().iterdir())
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(argv)
        digest = hashlib.sha256(stdout.getvalue().encode("utf-8"))
        for path in sorted(set(Path().iterdir()) - before):
            digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
        digests[name] = [code, digest.hexdigest()]
    print(json.dumps(digests, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
