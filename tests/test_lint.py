"""Static checks of the package sources that no installed linter makes."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pramtraj"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source: str, is_package: bool) -> list[str]:
    """The names ``source`` imports and never uses.  A package's
    ``__init__`` re-exports what it imports from inside the package, and
    ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (is_package and node.level):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names listed in __all__ are used by whoever imports the module
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), path.name == "__init__.py") == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import gc\n"
        "import os.path\n"
        "from collections.abc import Set\n"
        "from .machine import Trace\n"
        "os.path.join(gc)\n"
    )
    assert unused_imports(source, False) == ["line 4: Set", "line 5: Trace"]
    assert unused_imports(source, True) == ["line 4: Set"]
