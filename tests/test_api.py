"""The public API lists agree, the package namespace is lazy, and no module
of the package imports a name it never uses (no linter runs on the package,
so this is the lint)."""
import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import lpevac

LIBRARY_MODULES = ("numerics", "lp_geometry", "evacuation", "chord_arc", "lower_bound", "tables")
SOURCES = sorted(Path(lpevac.__file__).parent.glob("*.py"))
SRC = Path(lpevac.__file__).parent.parent


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


def test_import_loads_no_submodule():
    # -S: no site module, so nothing the interpreter's site set-up preloads
    # hides or adds a module
    code = f"""
import sys
sys.path.insert(0, {str(SRC)!r})

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "lpevac")

import lpevac
print(loaded())
print(getattr(lpevac, "_speed", None), loaded())
print(lpevac.worst_case_cost(2.0), loaded())
from lpevac import lp_geometry
print(lp_geometry.__name__, "lpevac.lower_bound" in sys.modules)
"""
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "['lpevac']",
        "None ['lpevac']",
        "4.826445909962073 ['lpevac', 'lpevac.evacuation', 'lpevac.lp_geometry',"
        " 'lpevac.numerics', 'lpevac.tables']",
        "lpevac.lp_geometry False",
    ]


def test_first_access_binds_the_module_value():
    from lpevac import evacuation

    assert lpevac.worst_case_params is evacuation.worst_case_params
    assert vars(lpevac)["worst_case_params"] is evacuation.worst_case_params


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from lpevac import *", ns)
    assert [n for n in lpevac.__all__ if n not in ns] == []
    assert ns["CurveTable"] is importlib.import_module("lpevac.tables").CurveTable


def test_dir_lists_the_public_names():
    names = dir(lpevac)
    assert "__all__" in names
    assert [n for n in lpevac.__all__ if n not in names] == []


@pytest.mark.parametrize("name", ["_speed", "main", "QUARTER_PI", "no_such_name"])
def test_other_names_are_attribute_errors(name):
    assert getattr(lpevac, name, None) is None
    with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
        getattr(lpevac, name)


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
