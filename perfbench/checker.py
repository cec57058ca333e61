"""Strict checks of ``lpevac`` output against the high-precision reference.

CSV is parsed as ``lpevac.tables.CurveTable`` documents it: ``# key=value``
metadata lines, one header line, then one line per row, every value printed
with 12 significant digits, '\\n' line ends.  JSON is parsed per RFC 8259:
``Infinity``, ``-Infinity`` and ``NaN`` are not JSON and are rejected, and
so are duplicate object keys.  The parsers are written here, not imported
from the program, so that a defect in the program cannot hide itself.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from reference import ReferenceTable
from workloads import Invocation

# Values more than this far from the reference fail an invocation, for
# p <= WELL_CONDITIONED_MAX_P.  Beyond it the error is recorded, not judged.
REL_TOL = 1e-9
WELL_CONDITIONED_MAX_P = 45.0
GAP_TOL = 1e-4

COLUMNS = {
    "pi": ("p", "pi_p"),
    "cost": (
        "p", "upper_cost", "weak_lower", "generic_lower", "gap", "e_p", "gamma_p",
        "explored_fraction",
    ),
}
VERIFY_CHECKS = (
    "min_chord_monotone",
    "tangential_chord_monotone",
    "min_chord_equals_critical_separation",
    "optimality_gap",
)

_NUMBER = re.compile(r"-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][+-]?\d+)?")


class CheckError(ValueError):
    """The output is not what the invocation must produce."""


@dataclass
class Outcome:
    """Result of checking one invocation: ``error`` is None iff it passed."""

    rows: int = 0
    max_rel_err: float = 0.0
    error: str | None = None
    rel_errs: list[float] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None


def _reject_constant(name: str):
    raise CheckError(f"invalid JSON token {name}")


def _unique_keys(pairs):
    obj = {}
    for k, v in pairs:
        if k in obj:
            raise CheckError(f"duplicate JSON key {k!r}")
        obj[k] = v
    return obj


def strict_json(text: str):
    """Parse RFC 8259 JSON: no NaN/Infinity tokens, no duplicate keys."""
    try:
        return json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckError(f"expected a number, got {value!r}")
    return float(value)


def parse_csv_table(text: str, columns: tuple[str, ...]) -> tuple[dict, list[tuple[float, ...]]]:
    if not text.endswith("\n") or "\r" in text:
        raise CheckError("CSV must end with a newline and use '\\n' line ends")
    lines = text[:-1].split("\n")
    metadata = {}
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        k, sep, v = lines[i][2:].partition("=")
        if not sep or not k:
            raise CheckError(f"bad metadata line {lines[i]!r}")
        metadata[k] = v
        i += 1
    if i == len(lines) or tuple(lines[i].split(",")) != columns:
        raise CheckError(f"header is not {','.join(columns)}")
    rows = []
    for line in lines[i + 1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise CheckError(f"row has {len(cells)} cells, expected {len(columns)}: {line!r}")
        row = []
        for cell in cells:
            if not _NUMBER.fullmatch(cell) or f"{float(cell):.12g}" != cell:
                raise CheckError(f"cell {cell!r} is not a 12-significant-digit number")
            row.append(float(cell))
        rows.append(tuple(row))
    return metadata, rows


def parse_json_table(text: str, columns: tuple[str, ...]) -> tuple[dict, list[tuple[float, ...]]]:
    doc = strict_json(text)
    if not isinstance(doc, dict) or set(doc) != {"metadata", "columns", "data"}:
        raise CheckError("JSON table needs exactly metadata, columns and data")
    if tuple(doc["columns"]) != columns or not isinstance(doc["data"], dict) or set(doc["data"]) != set(columns):
        raise CheckError(f"JSON table columns are not {columns}")
    series = [doc["data"][c] for c in columns]
    if not all(isinstance(s, list) and len(s) == len(series[0]) for s in series):
        raise CheckError("JSON table columns differ in length")
    rows = [tuple(_number(v) for v in row) for row in zip(*series)]
    if not isinstance(doc["metadata"], dict):
        raise CheckError("JSON table metadata is not an object")
    return doc["metadata"], rows


class Checker:
    """Checks invocations against a ``ReferenceTable``."""

    def __init__(self, refs: ReferenceTable):
        self.refs = refs

    def prepare(self, inv: Invocation) -> None:
        """Compute every reference value ``inv`` needs, before it is timed."""
        for p in inv.ps:
            if inv.command == "pi":
                self.refs.pi(p)
            elif 1.0 < p < math.inf:
                self.refs.critical(p)

    def check(self, inv: Invocation, exit_code: int, stdout: str) -> Outcome:
        out = Outcome()
        try:
            if exit_code != 0:
                raise CheckError(f"exit status {exit_code}, expected 0")
            if inv.command == "verify":
                self._verify(inv, stdout, out)
            else:
                self._table(inv, stdout, out)
        except CheckError as exc:
            out.error = str(exc)
        out.max_rel_err = max(out.rel_errs, default=0.0)
        return out

    def _compare(self, out: Outcome, p: float, name: str, got: float, ref: float) -> None:
        if not math.isfinite(got):
            raise CheckError(f"{name} at p={p} is not finite: {got}")
        err = abs(got - ref) / abs(ref)
        out.rel_errs.append(err)
        if err > REL_TOL and p <= WELL_CONDITIONED_MAX_P:
            raise CheckError(f"{name} at p={p}: {got!r} is {err:.3g} from reference {ref!r}")

    def _table(self, inv: Invocation, stdout: str, out: Outcome) -> None:
        columns = COLUMNS[inv.command]
        parse = parse_json_table if inv.fmt == "json" else parse_csv_table
        metadata, rows = parse(stdout, columns)
        if metadata.get("command") != inv.command or metadata.get("steps") != str(len(inv.ps)):
            raise CheckError(f"metadata {metadata} does not describe {' '.join(inv.argv)}")
        if len(rows) != len(inv.ps):
            raise CheckError(f"{len(rows)} rows, expected {len(inv.ps)}")
        for row, p in zip(rows, inv.ps):
            if row[0] != float(f"{p:.12g}"):
                raise CheckError(f"row p={row[0]!r}, expected {p!r}")
            if inv.command == "pi":
                self._compare(out, p, "pi_p", row[1], self.refs.pi(p))
                continue
            ref = self.refs.critical(p)
            _, _, weak, _, gap, e_p, gamma_p, _ = row
            self._compare(out, p, "weak_lower", weak, 1.0 + ref["pi"])
            self._compare(out, p, "e_p", e_p, ref["e"])
            self._compare(out, p, "gamma_p", gamma_p, ref["gamma"])
            if not abs(gap) <= GAP_TOL:
                raise CheckError(f"gap at p={p} is {gap!r}, above {GAP_TOL}")
        out.rows = len(rows)

    def _verify(self, inv: Invocation, stdout: str, out: Outcome) -> None:
        (p,) = inv.ps
        doc = strict_json(stdout)
        try:
            (result,) = doc["results"]
            checks = {c["name"]: c for c in result["checks"]}
            reported_p = result["p"]
            passed = doc["passed"] is True and result["passed"] is True
        except (KeyError, TypeError, ValueError):
            raise CheckError("verify report lacks results, checks or passed") from None
        if not (reported_p == p or (math.isinf(p) and reported_p == "inf")):
            raise CheckError(f"verify report is for p={reported_p!r}, expected {p!r}")
        if tuple(sorted(checks)) != tuple(sorted(VERIFY_CHECKS)):
            raise CheckError(f"verify checks are {sorted(checks)}")
        failed = [name for name, c in checks.items() if c.get("passed") is not True]
        if failed or not passed:
            raise CheckError(f"verify at p={p} did not pass: {failed}")
        if 1.0 < p < math.inf:
            # Both quantities are 0 in exact arithmetic: min_chord(e_p) equals
            # gamma_p, and the generic lower bound equals the worst-case cost.
            ref = self.refs.critical(p)
            chord = _number(checks["min_chord_equals_critical_separation"]["max_violation"])
            gap = _number(checks["optimality_gap"]["max_violation"])
            out.rel_errs += [chord / ref["gamma"], gap / ref["cost"]]
        out.rows = 1
