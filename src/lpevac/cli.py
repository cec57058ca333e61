"""Command-line front end.

Subcommands expose every computation and emit CSV (default) or JSON curve
tables suitable for downstream plotting; ``verify`` runs the numerical
monotonicity and optimality-gap certifications and sets the exit code for
CI use (0 all pass, 1 a check failed, 2 usage error).

Angles are radians; the literals "pi", "pi/4", "2pi/3", "5pi/4", ... parse
exactly.  The max norm is spelled "inf".
"""
from __future__ import annotations

import argparse
import math
import re
import sys
from typing import Optional, Sequence

from . import __version__
from .chord_arc import (
    min_chord,
    min_chord_curve,
    tangential_chord_profile,
    verify_min_chord_monotone,
    verify_tangential_chord_monotone,
)
from .evacuation import (
    AlgoParams,
    EvacOutcome,
    separation,
    simulate_exit,
    worst_case_cost,
    worst_case_params,
)
from .lower_bound import optimality_report, weak_lower_bound
from .lp_geometry import (
    QUARTER_PI,
    DomainError,
    half_perimeter,
    unit_circle_point,
    validate_p,
)
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

_ANGLE_RE = re.compile(r"^(-?)(\d+(?:\.\d+)?)?\*?pi(?:/(\d+(?:\.\d+)?))?$")


class UsageError(argparse.ArgumentTypeError):
    """Bad command-line values; mapped to exit code 2.

    When an argument type function raises it, argparse prints its message.
    """


def parse_angle(text: str) -> float:
    s = text.strip().lower().replace(" ", "")
    m = _ANGLE_RE.match(s)
    if m:
        sign = -1.0 if m.group(1) else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        return sign * num * math.pi / den
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


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise UsageError(f"cannot parse tolerance {text!r}") from None
    if not 0.0 <= tol < math.inf:  # also rejects nan
        raise UsageError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def _p_grid(p_min: float, p_max: float, steps: int) -> list[float]:
    if math.isinf(p_min) or math.isinf(p_max):
        raise UsageError("range commands need finite p bounds")
    if not 1.0 <= p_min <= p_max:
        raise UsageError(f"need 1 <= p_min <= p_max, got [{p_min}, {p_max}]")
    if p_min == p_max:
        return [p_min]
    if steps < 2:
        raise UsageError(f"need at least 2 steps for a range, got {steps}")
    h = (p_max - p_min) / (steps - 1)
    return [p_min + i * h for i in range(steps - 1)] + [p_max]


def _meta(command: str, **kwargs) -> dict[str, str]:
    meta = {"tool": f"lpevac {__version__}", "command": command}
    for k, v in kwargs.items():
        meta[k] = str(v)
    return meta


def cmd_pi(p_min: float, p_max: float, steps: int) -> CurveTable:
    rows = [(p, half_perimeter(p)) for p in _p_grid(p_min, p_max, steps)]
    return CurveTable.build(
        ("p", "pi_p"), rows, _meta("pi", p_min=p_min, p_max=p_max, steps=steps)
    )


def cmd_cost(p_min: float, p_max: float, steps: int) -> CurveTable:
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
    if steps < 2:
        raise UsageError(f"need at least 2 steps, got {steps}")
    if not (abs(phi) <= 1e-12 or abs(phi - QUARTER_PI) <= 1e-12):
        raise UsageError("profile supports deployment angles 0 and pi/4 only")
    params = AlgoParams(p, phi)
    hp = half_perimeter(p)
    rows = []
    for i in range(steps):
        tau = hp * i / (steps - 1)
        d = separation(params, tau)
        rows.append((tau, d, 1.0 + tau + d))
    return CurveTable.build(
        ("tau", "delta", "evac_time"),
        rows,
        _meta("profile", p=p, phi=phi, steps=steps),
    )


def cmd_sigma(p: float, steps: int, arc_len: Optional[float] = None) -> CurveTable:
    if steps < 2:
        raise UsageError(f"need at least 2 steps, got {steps}")
    if arc_len is None:
        arc_len = worst_case_params(p).explored
    rows = [
        (s.theta, s.chord) for s in tangential_chord_profile(p, arc_len, steps)
    ]
    return CurveTable.build(
        ("theta", "sigma"), rows, _meta("sigma", p=p, steps=steps, arc_len=arc_len)
    )


def cmd_lchord(p: float, steps: int) -> CurveTable:
    if steps < 2:
        raise UsageError(f"need at least 2 steps, got {steps}")
    rows = min_chord_curve(p, steps)
    return CurveTable.build(("u", "L"), rows, _meta("lchord", p=p, steps=steps))


def cmd_verify(
    p_list: Sequence[float],
    grid: int = 512,
    tol: float = 1e-9,
    gap_tol: float = 1e-4,
    chord_tol: float = 1e-5,
) -> tuple[int, dict]:
    """Run the certification suite for each p; exit status 0 iff all pass."""
    if not p_list:
        raise UsageError("verify needs at least one p value")
    results = []
    all_passed = True
    for p in p_list:
        validate_p(p)
        checks = []
        rep_l = verify_min_chord_monotone(p, grid, tol)
        checks.append(
            {
                "name": "min_chord_monotone",
                "passed": rep_l.passed,
                "max_violation": _jsonable(rep_l.max_violation),
                "tolerance": tol,
            }
        )
        rep_s = verify_tangential_chord_monotone(p, grid, tol)
        checks.append(
            {
                "name": "tangential_chord_monotone",
                "passed": rep_s.passed,
                "max_violation": _jsonable(rep_s.max_violation),
                "tolerance": tol,
                "direction": rep_s.direction.value,
            }
        )
        cp = worst_case_params(p)
        rep_o = optimality_report(p)
        chord_gap = abs(min_chord(p, cp.explored) - cp.separation)
        checks.append(
            {
                "name": "min_chord_equals_critical_separation",
                "passed": chord_gap <= chord_tol,
                "max_violation": _jsonable(chord_gap),
                "tolerance": chord_tol,
            }
        )
        checks.append(
            {
                "name": "optimality_gap",
                "passed": abs(rep_o.gap) <= gap_tol,
                "max_violation": _jsonable(abs(rep_o.gap)),
                "tolerance": gap_tol,
            }
        )
        p_passed = all(c["passed"] for c in checks)
        all_passed = all_passed and p_passed
        results.append(
            {
                "p": _jsonable(p),
                "passed": p_passed,
                "checks": checks,
            }
        )
    report = {
        "metadata": _meta("verify", grid=grid, tol=tol, gap_tol=gap_tol, chord_tol=chord_tol),
        "results": results,
        "passed": all_passed,
    }
    return (0 if all_passed else 1), report


def _jsonable(x):
    # RFC 8259 JSON has no NaN or Infinity: write "nan", "inf" or "-inf"
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return x


def _outcome_dict(outcome: EvacOutcome) -> dict:
    return {
        "exit_phi": outcome.exit.phi,
        "exit": [outcome.exit.point.x, outcome.exit.point.y],
        "tau": outcome.tau,
        "finder_positions": [list(pt) for pt in outcome.finder_positions],
        "separation": outcome.separation,
        "total_cost": outcome.total_cost,
    }


def cmd_simulate(p: float, phi: float, exit_phi: float) -> dict:
    params = AlgoParams(p, phi)
    outcome = simulate_exit(params, unit_circle_point(p, exit_phi))
    doc = {"p": _jsonable(p), "phi": phi}
    doc.update(_outcome_dict(outcome))
    return doc


def cmd_params(p: float) -> dict:
    cp = worst_case_params(p)
    return {
        "p": _jsonable(cp.p),
        "branch": cp.branch.value,
        "aux_root": cp.aux_root,
        "exit_coord": cp.exit_coord,
        "explored": cp.explored,
        "separation": cp.separation,
        "worst_case_cost": worst_case_cost(p),
        "weak_lower_bound": weak_lower_bound(p),
    }


def _emit_table(table: CurveTable, args) -> None:
    text = table.to_json() if args.format == "json" else table.to_csv()
    _write_out(text, args.out)


def _write_json(doc: dict, out: Optional[str]) -> None:
    import json  # on demand: a CSV command never loads json

    _write_out(json.dumps(doc, indent=2) + "\n", out)


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
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
    sp.add_argument("--steps", type=int, default=512)
    add_output_flags(sp)
    sp.set_defaults(handler=lambda a: _emit_table(cmd_pi(a.p_min, a.p_max, a.steps), a))

    sp = sub.add_parser("cost", help="worst-case cost and bounds over a p range")
    sp.add_argument("p_min", type=parse_p)
    sp.add_argument("p_max", type=parse_p)
    sp.add_argument("--steps", type=int, default=64)
    add_output_flags(sp)
    sp.set_defaults(
        handler=lambda a: _emit_table(cmd_cost(a.p_min, a.p_max, a.steps), a)
    )

    sp = sub.add_parser("profile", help="evacuation time profile over search time")
    sp.add_argument("p", type=parse_p)
    sp.add_argument("--phi", type=parse_angle, default=0.0)
    sp.add_argument("--steps", type=int, default=512)
    add_output_flags(sp)
    sp.set_defaults(
        handler=lambda a: _emit_table(cmd_profile(a.p, a.phi, a.steps), a)
    )

    sp = sub.add_parser("sigma", help="chord vs tangential angle at fixed arc length")
    sp.add_argument("p", type=parse_p)
    sp.add_argument("--steps", type=int, default=512)
    sp.add_argument("--arc-len", type=float, default=None)
    add_output_flags(sp)
    sp.set_defaults(
        handler=lambda a: _emit_table(cmd_sigma(a.p, a.steps, a.arc_len), a)
    )

    sp = sub.add_parser("lchord", help="minimum chord vs arc length")
    sp.add_argument("p", type=parse_p)
    sp.add_argument("--steps", type=int, default=128)
    add_output_flags(sp)
    sp.set_defaults(handler=lambda a: _emit_table(cmd_lchord(a.p, a.steps), a))

    sp = sub.add_parser("verify", help="run the numerical certification suite")
    sp.add_argument("p_list", type=parse_p, nargs="+")
    sp.add_argument("--grid", type=int, default=512)
    sp.add_argument("--tol", type=_parse_tol, default=1e-9)
    sp.add_argument("--gap-tol", type=_parse_tol, default=1e-4)
    sp.add_argument("--chord-tol", type=_parse_tol, default=1e-5)
    sp.add_argument("--out", default=None)

    def run_verify(a):
        code, report = cmd_verify(a.p_list, a.grid, a.tol, a.gap_tol, a.chord_tol)
        _write_json(report, a.out)
        return code

    sp.set_defaults(handler=run_verify)

    sp = sub.add_parser("simulate", help="simulate one exit placement")
    sp.add_argument("p", type=parse_p)
    sp.add_argument("phi", type=parse_angle)
    sp.add_argument("exit_phi", type=parse_angle)
    sp.add_argument("--out", default=None)
    sp.set_defaults(
        handler=lambda a: _write_json(cmd_simulate(a.p, a.phi, a.exit_phi), a.out)
    )

    sp = sub.add_parser("params", help="worst-case critical quantities at one p")
    sp.add_argument("p", type=parse_p)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=lambda a: _write_json(cmd_params(a.p), a.out))

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return int(code) if code else 0


if __name__ == "__main__":
    sys.exit(main())
