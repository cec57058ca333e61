"""The public API lists agree, the package namespace is lazy, no module of
the package imports a name it never uses, and the package itself uses its
public API (no linter runs on the package, so this is the lint)."""
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


def _assigned(tree: ast.Module, name: str):
    """The expression assigned to ``name`` at module level, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    return None


def _all_names(tree: ast.Module) -> list[str]:
    value = _assigned(tree, "__all__")
    return ast.literal_eval(value) if value else []


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
    used.update(_all_names(tree))  # a name re-exported through __all__ is used
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_sees_one():
    source = "import math\nfrom os import path, sep\n__all__ = ['sep']\nmath.pi\n"
    assert _unused_imports(source) == ["path (line 2)"]


# Public names that no module of the package loads, each kept for the reason
# given; any other public name that only tests use is debt.
UNLOADED_ON_PURPOSE = {
    "point_at_arc_length",  # acceptance criterion 13 places points with it
    "worst_case_grid_oracle",  # the independent oracle of the closed-form worst case
}


def _unloaded_public_names(sources: dict[str, str], library) -> list[str]:
    """The names in each ``library`` module's __all__, and the public methods
    of those that are classes, that no module in ``sources`` (name -> source)
    loads, as a name or an attribute, outside their own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    loads = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, set()).add(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.attr, set()).add(node)
    unloaded = []
    for module in library:
        tree = trees[module]
        defs = {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        for name in _all_names(tree):
            items = [(name, defs.get(name))]
            if isinstance(defs.get(name), ast.ClassDef):
                items += [
                    (f"{name}.{node.name}", node)
                    for node in defs[name].body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                ]
            for qualname, definition in items:
                own = set(ast.walk(definition)) if definition else set()
                if not loads.get(qualname.rpartition(".")[2], set()) - own:
                    unloaded.append(qualname)
    return unloaded


def test_package_loads_its_public_api():
    sources = {path.stem: path.read_text() for path in SOURCES}
    unloaded = _unloaded_public_names(sources, LIBRARY_MODULES)
    # a listed exception that the package starts to load leaves the list too
    assert sorted(set(unloaded) ^ UNLOADED_ON_PURPOSE) == []


def test_public_api_check_sees_unloaded_names():
    lib = (
        "__all__ = ['used', 'recursive', 'Table', 'unused', 'LIMIT']\n"
        "LIMIT = 3\n"
        "def used(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def unused(): pass\n"
        "class Table:\n"
        "    def read(self): return self.write()\n"
        "    def write(self): pass\n"
        "    def _private(self): pass\n"
    )
    app = "from lib import used, Table, LIMIT\nused()\nTable()\n"
    assert _unloaded_public_names({"lib": lib, "app": app}, ["lib"]) == [
        "recursive",
        "Table.read",
        "unused",
        "LIMIT",
    ]


# Functions that one module of the package imports from another and that the
# benchmark tracer (perfbench/tracer.py) does not wrap, each for the reason
# given; the tracer books any other such function's time under its caller.
UNTRACED_ON_PURPOSE = {
    "chord_arc.min_chord_curve",  # not a tracer target yet (ROADMAP item A)
}
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _imported_functions(sources: dict[str, str]) -> set[str]:
    """The functions, as "module.name", that a module in ``sources`` (name ->
    source) takes from another with ``from .module import``, at module level
    or inside a function body."""
    functions = {
        name: {node.name for node in ast.parse(text).body if isinstance(node, ast.FunctionDef)}
        for name, text in sources.items()
    }
    found = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in functions:
                found.update(
                    f"{node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name in functions[node.module]
                )
    return found


def test_tracer_wraps_every_imported_function():
    # perfbench's own check reads module-level names only, and cli imports
    # the library inside its functions
    sources = {path.stem: path.read_text() for path in SOURCES}
    targets = _assigned(ast.parse(TRACER.read_text()), "TARGETS")
    untraced = _imported_functions(sources) - {ast.literal_eval(k) for k in targets.keys}
    # a listed exception that the tracer starts to wrap leaves the list too
    assert sorted(untraced ^ UNTRACED_ON_PURPOSE) == []


def test_imported_function_check_reads_function_bodies():
    lib = "LIMIT = 3\ndef top(): pass\ndef inner(): pass\nclass Table: pass\n"
    app = (
        "from .lib import top, LIMIT\n"
        "def main():\n"
        "    from .lib import inner, Table\n"
        "    from . import lib\n"
    )
    assert _imported_functions({"lib": lib, "app": app}) == {"lib.top", "lib.inner"}
