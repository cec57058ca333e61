"""Command-line front end.

Each subcommand is its ``cmd_*`` function: the parser's destinations but
``--format`` and ``--out`` are its parameters.  ``main`` alone writes what it
returns: a ``CurveTable`` as a CSV (default) or JSON curve table for
downstream plotting, a dict as one JSON document.  ``verify`` runs the
numerical monotonicity and optimality-gap certifications; the exit status is
1 if and only if a document's ``passed`` is false, 2 on a usage error, else 0.

Angles are radians; the literals "pi", "pi/4", "2pi/3", "5pi/4", ... parse
exactly.  The max norm is spelled "inf".

Every command runs in a fresh interpreter, so each command function imports
the library modules it calls, and ``--version`` and ``--help`` import none.
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__

if TYPE_CHECKING:
    from .tables import CurveTable

__all__ = [
    "main",
    "cmd_pi",
    "cmd_cost",
    "cmd_profile",
    "cmd_sigma",
    "cmd_lchord",
    "cmd_verify",
    "cmd_simulate",
    "cmd_params",
    "parse_angle",
    "parse_p",
]

_ANGLE_RE = r"^(-?)(\d+(?:\.\d+)?)?\*?pi(?:/(\d+(?:\.\d+)?))?$"
# Every row (or grid point) is built before any is written, so a command line
# may ask for at most this many.
MAX_STEPS = 100_000
MAX_GRID = 65_536
# verify's fixed pass thresholds, those of acceptance criteria 9-11
TOL = 1e-9  # the two monotonicity checks
GAP_TOL = 1e-4  # optimality_gap
CHORD_TOL = 1e-5  # min_chord_equals_critical_separation


class UsageError(argparse.ArgumentTypeError):
    """Bad command-line values; mapped to exit code 2.

    When an argument type function raises it, argparse prints its message.
    """


def parse_angle(text: str) -> float:
    s = text.strip().lower().replace(" ", "")
    m = re.match(_ANGLE_RE, s)
    if m:
        sign = -1.0 if m.group(1) else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        phi = sign * num * math.pi / den if den else math.inf
    else:
        try:
            phi = float(s)
        except ValueError:
            raise UsageError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(phi):
        raise UsageError(f"angle must be finite, got {text!r}")
    return phi


def parse_p(text: str) -> float:
    s = text.strip().lower()
    if s in ("inf", "infinity", "oo"):
        return math.inf
    try:
        p = float(s)
    except ValueError:
        raise UsageError(f"cannot parse norm parameter {text!r}") from None
    if math.isnan(p) or p < 1.0:
        raise UsageError(f"norm parameter must be >= 1 or inf, got {text!r}")
    return p


def _at_most(limit: int):
    """The argparse type of a size option: an int no larger than ``limit``."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise UsageError(f"invalid int value: {text!r}") from None
        if n > limit:
            raise UsageError(f"must be at most {limit}, got {text}")
        return n

    return parse


def _p_grid(p_min: float, p_max: float, steps: int) -> list[float]:
    if math.isinf(p_min) or math.isinf(p_max):
        raise UsageError("range commands need finite p bounds")
    if not 1.0 <= p_min <= p_max:
        raise UsageError(f"need 1 <= p_min <= p_max, got [{p_min}, {p_max}]")
    if steps < 1:
        raise UsageError(f"need at least 1 step, got {steps}")
    if p_min == p_max:
        return [p_min]
    if steps < 2:
        raise UsageError(f"need at least 2 steps for a range, got {steps}")
    return _grid(p_min, p_max, steps)


def _grid(lo: float, hi: float, n: int) -> list[float]:
    h = (hi - lo) / (n - 1)
    return [lo + i * h for i in range(n - 1)] + [hi]


def _meta(command: str, **kwargs) -> dict[str, str]:
    meta = {"tool": f"lpevac {__version__}", "command": command}
    for k, v in kwargs.items():
        meta[k] = str(v)
    return meta


def cmd_pi(p_min: float, p_max: float, steps: int) -> CurveTable:
    from .lp_geometry import half_perimeter
    from .tables import CurveTable

    rows = [(p, half_perimeter(p)) for p in _p_grid(p_min, p_max, steps)]
    return CurveTable.build(
        ("p", "pi_p"), rows, _meta("pi", p_min=p_min, p_max=p_max, steps=steps)
    )


def cmd_cost(p_min: float, p_max: float, steps: int) -> CurveTable:
    from .evacuation import worst_case_params
    from .lower_bound import optimality_report
    from .lp_geometry import half_perimeter
    from .tables import CurveTable

    rows = []
    for p in _p_grid(p_min, p_max, steps):
        cp = worst_case_params(p)
        rep = optimality_report(p)
        frac = cp.explored / (2.0 * half_perimeter(p))
        rows.append(
            (
                p,
                rep.upper,
                rep.weak_lower,
                rep.generic_lower,
                rep.gap,
                cp.explored,
                cp.separation,
                frac,
            )
        )
    columns = (
        "p",
        "upper_cost",
        "weak_lower",
        "generic_lower",
        "gap",
        "e_p",
        "gamma_p",
        "explored_fraction",
    )
    return CurveTable.build(
        columns, rows, _meta("cost", p_min=p_min, p_max=p_max, steps=steps)
    )


def cmd_profile(p: float, phi: float, steps: int) -> CurveTable:
    from .evacuation import AlgoParams, separation
    from .lp_geometry import _chart
    from .tables import CurveTable

    if steps < 2:
        raise UsageError(f"need at least 2 steps, got {steps}")
    params = AlgoParams(p, phi)
    # tau runs to the chart's pi_p, on which the robots are placed, so that
    # they meet at the last row
    rows = []
    for tau in _grid(0.0, 4.0 * _chart(p).eighth, steps):
        d = separation(params, tau)
        rows.append((tau, d, 1.0 + tau + d))
    return CurveTable.build(
        ("tau", "delta", "evac_time"),
        rows,
        _meta("profile", p=p, phi=phi, steps=steps),
    )


def cmd_sigma(p: float, steps: int, arc_len: Optional[float] = None) -> CurveTable:
    from .chord_arc import tangential_chord_profile
    from .evacuation import worst_case_params
    from .tables import CurveTable

    if steps < 2:
        raise UsageError(f"need at least 2 steps, got {steps}")
    if arc_len is None:
        arc_len = worst_case_params(p).explored
    return CurveTable.build(
        ("theta", "sigma"),
        tangential_chord_profile(p, arc_len, steps),
        _meta("sigma", p=p, steps=steps, arc_len=arc_len),
    )


def cmd_lchord(p: float, steps: int) -> CurveTable:
    from .chord_arc import min_chord_curve
    from .tables import CurveTable

    if steps < 2:
        raise UsageError(f"need at least 2 steps, got {steps}")
    rows = min_chord_curve(p, steps)
    return CurveTable.build(("u", "L"), rows, _meta("lchord", p=p, steps=steps))


def cmd_verify(p_list: Sequence[float], grid: int = 512) -> dict:
    """Run the certification suite for each p; ``passed`` iff all checks pass."""
    from .chord_arc import (
        min_chord,
        verify_min_chord_monotone,
        verify_tangential_chord_monotone,
    )
    from .evacuation import worst_case_params
    from .lower_bound import optimality_report

    if not p_list:
        raise UsageError("verify needs at least one p value")
    results = []
    all_passed = True
    for p in p_list:
        cp = worst_case_params(p)  # validates p
        rep_l = verify_min_chord_monotone(p, grid, TOL)
        rep_s = verify_tangential_chord_monotone(p, grid, TOL, cp.explored)
        gap = abs(optimality_report(p).gap)
        chord_gap = abs(min_chord(p, cp.explored) - cp.separation)
        checks = [
            _check("min_chord_monotone", rep_l.max_violation, TOL),
            _check(
                "tangential_chord_monotone",
                rep_s.max_violation,
                TOL,
                direction=rep_s.direction.value,
            ),
            _check("min_chord_equals_critical_separation", chord_gap, CHORD_TOL),
            _check("optimality_gap", gap, GAP_TOL),
        ]
        p_passed = all(c["passed"] for c in checks)
        all_passed = all_passed and p_passed
        results.append(
            {
                "p": _jsonable(p),
                "passed": p_passed,
                "checks": checks,
            }
        )
    return {
        "metadata": _meta("verify", grid=grid, tol=TOL, gap_tol=GAP_TOL, chord_tol=CHORD_TOL),
        "results": results,
        "passed": all_passed,
    }


def _check(name: str, violation: float, tol: float, **extra) -> dict:
    # passed as each MonotonicityReport computes it: a NaN violation fails
    return {
        "name": name,
        "passed": violation <= tol,
        "max_violation": _jsonable(violation),
        "tolerance": tol,
        **extra,
    }


def _jsonable(x):
    # RFC 8259 JSON has no NaN or Infinity: write "nan", "inf" or "-inf"
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


def cmd_simulate(p: float, phi: float, exit_phi: float) -> dict:
    from .evacuation import AlgoParams, simulate_exit
    from .lp_geometry import unit_circle_point

    params = AlgoParams(p, phi)
    exit_point = unit_circle_point(p, exit_phi)
    outcome = simulate_exit(params, exit_point)
    return {
        "p": _jsonable(p),
        "phi": phi,
        "exit_phi": exit_point.phi,
        "exit": list(exit_point.point),
        "tau": outcome.tau,
        "finder_positions": [list(pt) for pt in outcome.finder_positions],
        "separation": outcome.separation,
        "total_cost": outcome.total_cost,
    }


def cmd_params(p: float) -> dict:
    from .evacuation import worst_case_cost, worst_case_params
    from .lower_bound import weak_lower_bound

    cp = worst_case_params(p)
    return {
        "p": _jsonable(p),
        "branch": cp.branch.value,
        "aux_root": cp.aux_root,
        "exit_coord": cp.exit_coord,
        "explored": cp.explored,
        "separation": cp.separation,
        "worst_case_cost": worst_case_cost(p),
        "weak_lower_bound": weak_lower_bound(p),
    }


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpevac",
        description="Two-robot wireless evacuation from unit disks of l_p norms",
    )
    parser.add_argument(
        "--version", action="version", version=f"lpevac {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output file (default stdout)")

    sp = sub.add_parser("pi", help="half-perimeter curve over a p range")
    sp.add_argument("p_min", type=parse_p)
    sp.add_argument("p_max", type=parse_p)
    sp.add_argument("--steps", type=_at_most(MAX_STEPS), default=512)
    add_output_flags(sp)
    sp.set_defaults(run=cmd_pi)

    sp = sub.add_parser("cost", help="worst-case cost and bounds over a p range")
    sp.add_argument("p_min", type=parse_p)
    sp.add_argument("p_max", type=parse_p)
    sp.add_argument("--steps", type=_at_most(MAX_STEPS), default=64)
    add_output_flags(sp)
    sp.set_defaults(run=cmd_cost)

    sp = sub.add_parser("profile", help="evacuation time profile over search time")
    sp.add_argument("p", type=parse_p)
    sp.add_argument("--phi", type=parse_angle, default=0.0)
    sp.add_argument("--steps", type=_at_most(MAX_STEPS), default=512)
    add_output_flags(sp)
    sp.set_defaults(run=cmd_profile)

    sp = sub.add_parser("sigma", help="chord vs tangential angle at fixed arc length")
    sp.add_argument("p", type=parse_p)
    sp.add_argument("--steps", type=_at_most(MAX_STEPS), default=512)
    sp.add_argument("--arc-len", type=float, default=None)
    add_output_flags(sp)
    sp.set_defaults(run=cmd_sigma)

    sp = sub.add_parser("lchord", help="minimum chord vs arc length")
    sp.add_argument("p", type=parse_p)
    sp.add_argument("--steps", type=_at_most(MAX_STEPS), default=128)
    add_output_flags(sp)
    sp.set_defaults(run=cmd_lchord)

    sp = sub.add_parser("verify", help="run the numerical certification suite")
    sp.add_argument("p_list", type=parse_p, nargs="+")
    sp.add_argument("--grid", type=_at_most(MAX_GRID), default=512)
    sp.add_argument("--out", default=None)
    sp.set_defaults(run=cmd_verify)

    sp = sub.add_parser("simulate", help="simulate one exit placement")
    sp.add_argument("p", type=parse_p)
    sp.add_argument("phi", type=parse_angle)
    sp.add_argument("exit_phi", type=parse_angle)
    sp.add_argument("--out", default=None)
    sp.set_defaults(run=cmd_simulate)

    sp = sub.add_parser("params", help="worst-case critical quantities at one p")
    sp.add_argument("p", type=parse_p)
    sp.add_argument("--out", default=None)
    sp.set_defaults(run=cmd_params)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = vars(build_parser().parse_args(argv))
    del args["command"]
    run, out, fmt = args.pop("run"), args.pop("out"), args.pop("format", None)
    from .lp_geometry import DomainError

    try:
        result = run(**args)
        if isinstance(result, dict):
            import json  # on demand: a CSV command never loads json

            text = json.dumps(result, indent=2) + "\n"
        else:
            text = result.to_json() if fmt == "json" else result.to_csv()
        _write_out(text, out)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if isinstance(result, dict) and result.get("passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
