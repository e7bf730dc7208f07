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


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


PACKAGE_MODULES = {module_name(p) for p in MODULES}
PAIR_MODULES = {module_name(p) for p in (SRC / "algorithms").glob("*.py") if p.name != "__init__.py"}

# what a pair module may import from the package: the machine and the registry
PAIR_IMPORTS = {"pramtraj.machine", "pramtraj.algorithms"}


def imported_modules(source: str, name: str, is_package: bool) -> set[str]:
    """The absolute names of the modules that ``source``, the module
    ``name``, imports: a relative import resolved, and ``from m import x``
    counted as an import of ``m.x`` too, since x may be a submodule."""
    package = name if is_package else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            base = ".".join(filter(None, (base, node.module)))
            found |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    return found


def layering_violations(source: str, name: str, is_package: bool) -> list[str]:
    """The imports of ``source`` that break the layering: a pair module
    imports from the package only the machine and the registry, and no other
    module imports a pair module (the registry reaches them by
    ``spec_for``)."""
    imported = imported_modules(source, name, is_package) & PACKAGE_MODULES
    if name in PAIR_MODULES:
        return sorted(imported - PAIR_IMPORTS - {name})
    return sorted(imported & PAIR_MODULES)


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_the_layers_import_downward(path):
    assert layering_violations(path.read_text(), module_name(path), path.name == "__init__.py") == []


def test_the_layering_check_finds_a_stray_import():
    assert PAIR_MODULES == {"pramtraj.algorithms.scc", "pramtraj.algorithms.search", "pramtraj.algorithms.sorting"}
    pair = "from ..machine import run_machine\nfrom . import AlgorithmSpec\nfrom ..trajectory import Sample\n"
    assert layering_violations(pair, "pramtraj.algorithms.sorting", False) == ["pramtraj.trajectory"]
    sibling = "from .scc import Digraph\n"
    assert layering_violations(sibling, "pramtraj.algorithms.sorting", False) == ["pramtraj.algorithms.scc"]
    stage = "import pramtraj.algorithms.search\nfrom .algorithms import spec_for\n"
    assert layering_violations(stage, "pramtraj.harness", False) == ["pramtraj.algorithms.search"]
    registry = "from . import sorting\n"
    assert layering_violations(registry, "pramtraj.algorithms", True) == ["pramtraj.algorithms.sorting"]
