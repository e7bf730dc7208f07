"""Command-line interface: gen / trace / analyze / validate / compare.

Exit codes: 0 success, 1 validation or machine failure, 2 bad arguments.
The master seed defaults to the PRAMTRAJ_SEED environment variable.

A command reads the names of ``harness``, ``trajectory`` and ``efficiency``
through this module (``_this.write_dataset``): ``__getattr__`` imports each
on first read and keeps it in the module, where ``setattr`` can replace it.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from pathlib import Path

from .algorithms import ALGORITHMS, PAIRS, run, spec_for
from .machine import MachineError

_this = sys.modules[__name__]

# the names the commands read through _this, by home module
_STAGES = {
    "harness": ("GenConfig", "build_samples", "write_dataset"),
    "trajectory": ("DatasetFormatError", "line_is_clean", "parse_ndjson", "parse_schema",
                   "schema_path_for", "serialize_schema", "validate_sample"),
    "efficiency": ("EfficiencyReport", "render_table", "report_ndjson", "scaling_report", "size_record"),
}


def __getattr__(name: str):
    for home, names in _STAGES.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f".{home}", __package__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class BadInput(Exception):
    """User-facing argument problem; maps to exit code 2."""


def _default_seed() -> int:
    text = os.environ.get("PRAMTRAJ_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise BadInput(f"PRAMTRAJ_SEED must be an integer, got {text!r}") from None


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise BadInput(f"bad --n-list {text!r}: expected comma-separated integers")
    if not values or any(v < 1 for v in values):
        raise BadInput(f"bad --n-list {text!r}: sizes must be positive")
    return values


def cmd_gen(args) -> int:
    n_list = (args.n,) if args.n is not None else _parse_n_list(args.n_list)
    cfg = _this.GenConfig(
        algo_id=args.algo,
        n_list=n_list,
        samples_per_n=args.samples,
        seed=args.seed if args.seed is not None else _default_seed(),
        max_degree=args.max_degree,
    )
    out = Path(args.out)
    try:
        count = _this.write_dataset(out, _this.build_samples(cfg), args.algo)
    except OSError as err:
        raise BadInput(f"cannot write {out}: {err}") from None
    print(f"wrote {count} samples to {out} (schema: {_this.schema_path_for(out)})")
    return 0


def cmd_trace(args) -> int:
    spec = spec_for(args.algo)
    try:
        inst = spec.parse_inline(args.input)
    except (ValueError, TypeError) as err:
        raise BadInput(f"bad --input for {args.algo}: {err}") from None
    output, trace = run(args.algo, inst)
    print(f"algo: {args.algo}")
    print(f"input: {args.input}")
    print(f"width={trace.width} depth={trace.depth}")
    states = trace.states
    for before, after, rec in zip(states, states[1:], trace.activity):
        nodes = sorted(rec.active_nodes)
        edges = sorted(rec.active_edges)
        note = spec.note(inst, before, after)
        print(
            f"step {rec.step}: active={nodes} edges={edges} ops={rec.op_count}"
            f" graph_op={rec.graph_op} | {note}"
        )
    print(f"output: {output}")
    return 0


def cmd_analyze(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    try:
        report = _this.scaling_report(
            args.algo,
            list(_parse_n_list(args.n_list)),
            args.samples,
            seed,
            max_degree=args.max_degree,
            exhaustive=args.exhaustive,
        )
    except ValueError as err:
        raise BadInput(str(err)) from None
    sys.stdout.write(_this.report_ndjson(report).decode("utf-8"))
    print(_this.render_table(report))
    return 0


def cmd_validate(args) -> int:
    path = Path(args.in_path)
    schema_path = _this.schema_path_for(path)
    try:
        with path.open("rb") as stream:
            schema_data = schema_path.read_bytes()
            code, report = _validate_lines(path, schema_path, schema_data, stream)
    except OSError as err:
        raise BadInput(f"cannot read {err.filename}: {err.strerror}") from None
    print("\n".join(report))
    return code


def _validate_lines(path: Path, schema_path: Path, schema_data: bytes, stream) -> tuple[int, list[str]]:
    """Exit status and report of ``validate``, reading the dataset one line
    at a time.

    A format error anywhere, in the sidecar or on any line, is the whole
    report; so is a sidecar that is not the registry's schema.  Otherwise
    every violation of every line, then the verdict.
    """
    try:
        algo, _ = _this.parse_schema(schema_data)
    except _this.DatasetFormatError as err:
        return 1, [f"{schema_path}: {err}"]
    # samples are checked against the registry's schema: the sidecar must be it
    registered = algo in ALGORITHMS and schema_data == _this.serialize_schema(algo)
    messages = []
    lineno = 0
    try:
        for chunk in stream:
            lineno, found = _chunk_messages(chunk, lineno, algo, registered)
            messages.extend(found)
            del chunk  # dropped before the next line is read
    except _this.DatasetFormatError as err:
        return 1, [f"{path}: {err}"]
    if not registered:
        return 1, [f"{schema_path}: schema does not match the registry's {algo}"]
    if messages:
        return 1, messages + [f"{len(messages)} violations in {lineno} samples"]
    return 0, [f"ok: {lineno} samples, zero violations"]


def _chunk_messages(chunk: bytes, lineno: int, algo: str, registered: bool) -> tuple[int, list[str]]:
    """The number of the last line of one "\\n"-terminated chunk of the
    dataset, which follows line ``lineno``, and the violations of its lines.
    A chunk is one line unless it holds another line break that
    str.splitlines honours, which splits a chunk as it splits the whole
    file; a line ``line_is_clean`` does not accept is parsed and checked
    whole."""
    if registered and _this.line_is_clean(chunk, algo):
        return lineno + 1, []
    samples = _this.parse_ndjson(chunk, lineno + 1)
    found = []
    for at, sample in enumerate(samples if registered else (), lineno + 1):
        if sample.algo != algo:
            found.append(f"line {at}: algorithm {sample.algo!r} does not match schema {algo!r}")
        else:
            found.extend(f"line {at}: {violation}" for violation in _this.validate_sample(sample))
    return lineno + len(samples), found


def cmd_compare(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    reports = [
        _this.EfficiencyReport(
            algo,
            (_this.size_record(algo, args.n, args.samples, seed, max_degree=args.max_degree),),
            {},
            {},
        )
        for algo in PAIRS[args.pair]
    ]
    print(_this.render_table(*reports))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pramtraj",
        description="Simulate parallel/sequential algorithm pairs, emit hint-trajectory "
        "datasets, and measure capacity and efficiency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a dataset + schema sidecar")
    gen.add_argument("--algo", required=True, choices=ALGORITHMS)
    size = gen.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int)
    size.add_argument("--n-list")
    gen.add_argument("--samples", type=int, required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--max-degree", type=int, default=3)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    trace = sub.add_parser("trace", help="print a step-by-step trace")
    trace.add_argument("--algo", required=True, choices=ALGORITHMS)
    trace.add_argument("--input", required=True)
    trace.set_defaults(func=cmd_trace)

    analyze = sub.add_parser("analyze", help="emit an efficiency report")
    analyze.add_argument("--algo", required=True, choices=ALGORITHMS)
    analyze.add_argument("--n-list", required=True)
    analyze.add_argument("--samples", type=int, required=True)
    analyze.add_argument("--seed", type=int, default=None)
    analyze.add_argument("--max-degree", type=int, default=3)
    analyze.add_argument("--exhaustive", action="store_true")
    analyze.set_defaults(func=cmd_analyze)

    validate = sub.add_parser("validate", help="validate a dataset file")
    validate.add_argument("--in", dest="in_path", required=True)
    validate.set_defaults(func=cmd_validate)

    compare = sub.add_parser("compare", help="sequential vs parallel metrics")
    compare.add_argument("--pair", required=True, choices=sorted(PAIRS))
    compare.add_argument("--n", type=int, required=True)
    compare.add_argument("--samples", type=int, required=True)
    compare.add_argument("--seed", type=int, default=None)
    compare.add_argument("--max-degree", type=int, default=3)
    compare.set_defaults(func=cmd_compare)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (BadInput, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MachineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
