"""The result records: immutable NamedTuples with fixed fields, and the two
that validate on construction keep their errors."""
import math
import re
from pathlib import Path

import pytest

from lpevac import (
    AlgoParams,
    Branch,
    CriticalParams,
    CurveTable,
    Direction,
    DomainError,
    EvacOutcome,
    MonotonicityReport,
    OptimalityReport,
    Point2,
    Tolerance,
)

README = Path(__file__).resolve().parent.parent / "README.md"

# One valid instance per record, as (class, field names, positional values).
RECORDS = [
    (Tolerance, ("abs_tol", "rel_tol", "max_iter"), (1e-8, 1e-9, 30)),
    (AlgoParams, ("p", "phi"), (1.5, 0.25)),
    (
        EvacOutcome,
        ("tau", "finder_positions", "separation", "total_cost"),
        (2.0, (Point2(0.0, 1.0), Point2(0.0, -1.0)), 2.0, 5.0),
    ),
    (
        CriticalParams,
        ("branch", "aux_root", "exit_coord", "explored", "separation"),
        (Branch.DIAGONAL, 0.2, 0.5, 4.0, 1.8),
    ),
    (
        MonotonicityReport,
        ("direction", "max_violation", "passed"),
        (Direction.INCREASING, 0.0, True),
    ),
    (
        OptimalityReport,
        ("upper", "weak_lower", "generic_lower", "gap"),
        (4.8, 4.1, 4.8, 0.0),
    ),
    (CurveTable, ("columns", "rows", "metadata"), (("p",), [(1.0,)], {"k": "v"})),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=IDS)
class TestRecordContract:
    def test_fields_in_order(self, cls, fields, values):
        assert cls._fields == fields
        assert tuple(cls(*values)) == values

    def test_fields_are_read_only(self, cls, fields, values):
        record = cls(*values)
        for name, value in zip(fields, values):
            with pytest.raises(AttributeError):
                setattr(record, name, value)

    def test_positional_equals_keyword(self, cls, fields, values):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(fields, values)))
        assert by_position == by_keyword
        assert type(by_position) is type(by_keyword) is cls

    def test_repr_names_class_and_fields(self, cls, fields, values):
        text = repr(cls(*values))
        assert text.startswith(f"{cls.__name__}(")
        assert [name for name in fields if f"{name}=" not in text] == []


def test_defaults():
    assert Tolerance() == (1e-10, 1e-10, 60)
    assert AlgoParams(2.0) == AlgoParams(p=2.0, phi=0.0)


TOLERANCE_ERRORS = [
    (dict(abs_tol=0.0), "abs_tol must be positive, got 0.0"),
    (dict(abs_tol=-1e-3), "abs_tol must be positive, got -0.001"),
    (dict(abs_tol=math.nan), "abs_tol must be positive, got nan"),
    (dict(rel_tol=-1e-12), "rel_tol must be non-negative, got -1e-12"),
    (dict(max_iter=0), "max_iter must be >= 1, got 0"),
]


@pytest.mark.parametrize("kwargs,message", TOLERANCE_ERRORS)
def test_tolerance_errors(kwargs, message):
    positional = dict(abs_tol=1e-10, rel_tol=1e-10, max_iter=60)
    positional.update(kwargs)
    for build in (
        lambda: Tolerance(**kwargs),
        lambda: Tolerance(*positional.values()),
        lambda: Tolerance()._replace(**kwargs),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


ALGO_ERRORS = [
    ((0.5, 0.0), "norm parameter must be >= 1 (or inf), got 0.5"),
    ((math.nan, 0.0), "norm parameter must be >= 1 (or inf), got nan"),
    ((2.0, 1.0), "deployment angle must lie in [0, pi/4], got 1.0"),
    ((2.0, -0.1), "deployment angle must lie in [0, pi/4], got -0.1"),
    ((2.0, math.nan), "deployment angle must lie in [0, pi/4], got nan"),
    (("2", 0.0), "norm parameter must equal its float, got '2'"),
]


@pytest.mark.parametrize("args,message", ALGO_ERRORS)
def test_algo_params_errors(args, message):
    p, phi = args
    for build in (
        lambda: AlgoParams(p, phi),
        lambda: AlgoParams(p=p, phi=phi),
        lambda: AlgoParams(2.0, 0.0)._replace(p=p, phi=phi),
    ):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            build()


def test_algo_params_keeps_p_as_given():
    # validation does not normalize: p = 2 stays the int it was given
    assert type(AlgoParams(2).p) is int


def test_curve_table_metadata_is_required():
    with pytest.raises(TypeError):
        CurveTable(("p",), [])


def test_curve_tables_do_not_share_metadata():
    meta = {"command": "pi"}
    a = CurveTable.build(("p",), [(1.0,)], meta)
    b = CurveTable.build(("p",), [(1.0,)], meta)
    assert a == b
    assert a.metadata is not b.metadata and a.metadata is not meta
    a.metadata["extra"] = "1"
    assert "extra" not in b.metadata and "extra" not in meta


def test_readme_library_example_runs():
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["out"].total_cost == 6.0
