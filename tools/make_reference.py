"""Write the high-precision reference fixture ``tests/data/reference.json``.

For each p of ``P_VALUES`` the fixture holds pi_p, the worst-case explored
measure e_p, the separation gamma_p and the worst-case cost, evaluated with
mpmath at 20 significant digits by the benchmark's reference formulas
(``perfbench/reference.py``), which are independent of the program.  It also
holds the chart arc length H(x) at ``ARC_POINTS`` interior points x of the
folded chart segment [0, 2^(-1/p)], as ``[x, H(x)]`` pairs, and, as
``[p, w]`` pairs, the root w of w^p + 1 = 2 (1 - w)^p of the diagonal
deployment for the p >= 2 of ``P_VALUES`` and the large p of
``AUX_ROOT_EXTRA_P``, and, as ``[p, s]`` pairs under ``axis_exit``, the
axis deployment's exit coordinate s for the p of ``AXIS_EXIT_P``, down to
p = 1 + 2^-52, and, as ``[p, pi_p]`` pairs under ``pi_grid``, pi_p at the
33 p of ``lpevac pi 1 2 --steps 33``.  The tier-1 tests read only the JSON,
so they need no mpmath.

Run from anywhere with ``python3 tools/make_reference.py``; it takes about a
second and rewrites the fixture in place.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import mpmath as mp  # noqa: E402
from reference import DPS, _arc, critical_ref, pi_ref  # noqa: E402

P_VALUES = (1.001, 1.0625, 1.5, 2.0, 3.0, 10.0, 45.0, 50.5, 100.0, 200.0, 500.0, 1000.0, 10000.0)
ARC_POINTS = 7  # x = fold * k / 8, k = 1 .. 7
AUX_ROOT_EXTRA_P = (1e9, 1e12, 1e15)
AXIS_EXIT_P = (1.0 + 2.0**-52, 1.0 + 1e-15, 1.0 + 1e-12, 1.0 + 1e-9, 1.000001, 1.001, 1.0625, 1.5, 1.9, 2.0)
PI_GRID_P = tuple(1.0 + k / 32 for k in range(33))  # the p of `pi 1 2 --steps 33`
OUT = ROOT / "tests" / "data" / "reference.json"


def aux_root(p: float) -> float:
    """Root w of w^p + 1 = 2 (1 - w)^p for p >= 2, solved for t = w p / ln 2.

    The root lies between ln 2 / (2 p) and ln 2 / p, so t is bracketed by
    (1/2, 1) and the solver's stop is relative in w.  The working precision
    is 2 * DPS digits, so forming 1 - w keeps DPS digits of w up to
    p = 1e20.
    """
    with mp.workdps(2 * DPS):
        p = mp.mpf(p)
        scale = mp.log(2) / p

        def f(t):
            w = t * scale
            return mp.power(w, p) + 1 - 2 * mp.power(1 - w, p)

        lo, hi = mp.mpf("0.5"), mp.mpf(1)
        if not f(lo) < 0 < f(hi):
            raise ArithmeticError(f"aux root at p={p} is not bracketed by (1/2, 1) ln 2 / p")
        return float(mp.findroot(f, (lo, hi), solver="anderson") * scale)


def axis_exit(p: float) -> float:
    """Exit coordinate s = ((2^p - 1)^(1/(p-1)) + 1)^(-1/p) for 1 < p <= 2.

    The power 1/(p - 1) multiplies the relative error of 2^p - 1 by up to
    2^52 at p = 1 + 2^-52, so the working precision is 3 * DPS digits.
    """
    with mp.workdps(3 * DPS):
        p = mp.mpf(p)
        return float(mp.power(mp.power(mp.power(2, p) - 1, 1 / (p - 1)) + 1, -1 / p))


def build() -> dict:
    rows = []
    for p in P_VALUES:
        row = {"p": p, **critical_ref(p)}
        if row["pi"] != pi_ref(p):
            raise ArithmeticError(f"pi_p at p={p}: {row['pi']} vs {pi_ref(p)}")
        fold = 2.0 ** (-1.0 / p)
        xs = [fold * k / (ARC_POINTS + 1) for k in range(1, ARC_POINTS + 1)]
        with mp.workdps(DPS):
            row["arc"] = [[x, float(_arc(mp.mpf(p), mp.mpf(x)))] for x in xs]
        rows.append(row)
    aux = [[p, aux_root(p)] for p in P_VALUES + AUX_ROOT_EXTRA_P if p >= 2.0]
    axis = [[p, axis_exit(p)] for p in AXIS_EXIT_P]
    return {
        "source": "perfbench/reference.py (mpmath)",
        "dps": DPS,
        "values": rows,
        "aux_root": aux,
        "axis_exit": axis,
        "pi_grid": [[p, pi_ref(p)] for p in PI_GRID_P],
    }


def main() -> None:
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)} ({len(P_VALUES)} values of p)")


if __name__ == "__main__":
    main()
