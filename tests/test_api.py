"""The public API lists agree, and no module of the package imports a name
it never uses (no linter runs on the package, so this is the lint)."""
import ast
import importlib
from pathlib import Path

import pytest

import lpevac

LIBRARY_MODULES = ("numerics", "lp_geometry", "evacuation", "chord_arc", "lower_bound", "tables")
SOURCES = sorted(Path(lpevac.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"lpevac.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_all_is_the_union_of_the_modules():
    union = {"__version__"}
    for name in LIBRARY_MODULES:
        union.update(importlib.import_module(f"lpevac.{name}").__all__)
    assert len(lpevac.__all__) == len(set(lpevac.__all__))
    assert set(lpevac.__all__) == union
    assert [n for n in lpevac.__all__ if not hasattr(lpevac, n)] == []


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a name re-exported through __all__ is used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_sees_one():
    source = "import math\nfrom os import path, sep\n__all__ = ['sep']\nmath.pi\n"
    assert _unused_imports(source) == ["path (line 2)"]
