#!/usr/bin/env python3
"""Which code of the package no CLI command reaches.

Runs a fixed traffic of CLI commands in this process under a ``sys.settrace``
line tracer: ``gen`` of all six algorithms, ``validate`` of each dataset as
written, with one hint cell flipped, and with a line that is not JSON,
``analyze`` sampled and ``--exhaustive``, a ``gen`` whose master seed comes
from ``PRAMTRAJ_SEED``, ``trace`` of one inline input per algorithm and
``compare`` of every pair.  Files go to a temporary directory, removed at the
end.  Then prints each function-body statement of ``src/pramtraj`` that no
command reached, and each function that no command entered, by its dotted
name within the package.  A statement or function that only the tests reach
shows up here.

Usage: ``PYTHONPATH=src python scripts/traffic_coverage.py``
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(importlib.util.find_spec("pramtraj").origin).parent

TRACE_INPUTS = {
    "search": "0.9,0.6,0.3,0.1;0.4",
    "sort": "0.3,0.1,0.4,0.2",
    "scc": "5:0->1,1->2,2->0,2->3,3->4",
}


def _header_lines(stmt: ast.stmt) -> range | None:
    """The lines of a statement that run when it is reached: a simple
    statement's own lines, a compound one's header; None for ``try``, whose
    header runs no code."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return range(min([stmt.lineno] + [d.lineno for d in stmt.decorator_list]), stmt.lineno + 1)
    if isinstance(stmt, (ast.If, ast.While)):
        return range(stmt.lineno, stmt.test.end_lineno + 1)
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return range(stmt.lineno, stmt.iter.end_lineno + 1)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return range(stmt.lineno, stmt.items[-1].context_expr.end_lineno + 1)
    if isinstance(stmt, ast.Try):
        return None
    return range(stmt.lineno, stmt.end_lineno + 1)


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)


def _child_bodies(stmt: ast.stmt):
    for field in ("body", "orelse", "finalbody"):
        yield from getattr(stmt, field, ())
    for handler in getattr(stmt, "handlers", ()):
        yield from handler.body


def functions(path: Path):
    """``(name, first line, statements)`` of every function of one
    module, methods and nested functions included; ``statements`` are the
    body's statements at any depth outside nested functions and classes."""
    tree = ast.parse(path.read_text())
    module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
    found = []

    def body_statements(body):
        for stmt in body:
            if _is_docstring(stmt):
                continue  # stored with the code, never run
            yield stmt
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from body_statements(_child_bodies(stmt))

    def visit(body, prefix):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{stmt.name}"
                statements = list(body_statements(stmt.body))
                found.append((name, _header_lines(stmt).start, statements))
                visit(statements, name)
            elif isinstance(stmt, ast.ClassDef):
                visit(stmt.body, f"{prefix}.{stmt.name}")
            else:
                visit(list(_child_bodies(stmt)), prefix)

    visit(tree.body, module)
    return found


def traffic(work: Path) -> None:
    """Every CLI command on small inputs; each command's output is dropped."""
    from pramtraj.algorithms import ALGORITHMS, PAIRS, spec_for
    from pramtraj.cli import cli_main
    from pramtraj.canonical import dumps_canonical
    from pramtraj.trajectory import schema_path_for

    def cli(*argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli_main(list(argv))

    for algo in ALGORITHMS:
        data = work / f"{algo}.ndjson"
        cli("gen", "--algo", algo, "--n-list", "1,2,5", "--samples", "2", "--seed", "7", "--out", str(data))
        cli("validate", "--in", str(data))
        lines = data.read_bytes().splitlines(keepends=True)
        obj = json.loads(lines[-1])
        # one cell of a node list of the last frame, 0 and 1 swapped
        frame = obj["hints"][-1]["values"]
        cells = next(value for _, value in sorted(frame.items()) if type(value) is list)
        if type(cells[0]) is list:
            cells = cells[0]
        cells[0] ^= 1
        corrupt = work / f"{algo}.corrupt.ndjson"
        corrupt.write_bytes(b"".join(lines[:-1]) + dumps_canonical(obj).encode() + b"\n")
        schema_path_for(corrupt).write_bytes(schema_path_for(data).read_bytes())
        cli("validate", "--in", str(corrupt))
        corrupt.write_bytes(lines[0] + b"{not json\n")
        cli("validate", "--in", str(corrupt))
        cli("analyze", "--algo", algo, "--n-list", "2,4,8", "--samples", "2", "--seed", "3")
        cli("analyze", "--algo", algo, "--n-list", "2,3,4", "--samples", "1", "--exhaustive")
        cli("trace", "--algo", algo, "--input", TRACE_INPUTS[spec_for(algo).family])
    os.environ["PRAMTRAJ_SEED"] = "11"
    cli("gen", "--algo", ALGORITHMS[0], "--n", "3", "--samples", "1", "--out", str(work / "env.ndjson"))
    for pair in PAIRS:
        cli("compare", "--pair", pair, "--n", "6", "--samples", "2", "--seed", "5")


def main() -> None:
    package = str(PACKAGE)
    entered: set[tuple[str, int, str]] = set()
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(package):
            return None
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        return local

    sys.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory() as work:
            traffic(Path(work))
    finally:
        sys.settrace(None)

    unreached, never_entered = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = str(path)
        source = path.read_text().splitlines()
        for name, first, statements in functions(path):
            if (filename, first, name.rpartition(".")[2]) not in entered:
                never_entered.append(name)
                continue
            for stmt in statements:
                lines = _header_lines(stmt)
                if lines is not None and not any((filename, line) in reached for line in lines):
                    where = path.relative_to(PACKAGE)
                    unreached.append(f"{where}:{stmt.lineno}: {source[stmt.lineno - 1].strip()}")
    print("statements no command reaches:")
    print("".join(f"  {line}\n" for line in unreached), end="")
    print("functions no command enters:")
    print("".join(f"  {name}\n" for name in never_entered), end="")


if __name__ == "__main__":
    main()
