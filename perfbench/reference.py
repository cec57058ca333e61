"""High-precision reference values, computed with mpmath.

Everything here is derived from the definitions of the paper, evaluated at
20 significant digits, independently of the program under test:

* ``pi_ref(p)``        the half perimeter pi_p = 4 * H(2^(-1/p)), where H(x)
                       is the l_p arc length of the chart (-z, (1-z^p)^(1/p))
                       from z = 0 to z = x;
* ``critical_ref(p)``  the worst-case explored measure e_p, the searcher
                       separation gamma_p and the worst-case cost, from the
                       closed forms of the axis (p <= 2) and diagonal (p > 2)
                       deployments.

The range workloads draw their p values from two fixed lattices (see
``workloads``), so their references are computed once per checkout and kept
in a JSON cache; the first run of the benchmark in a checkout builds it, in
its own process (a process pool would leave its resource tracker running
after the benchmark exits).
"""
from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path

import mpmath as mp

DPS = 20
# Reject a quadrature whose own error estimate exceeds this relative bound.
_QUAD_REL_ERR = mp.mpf("1e-17")

# Lattices of the range workloads, as exact fractions so that the decimal
# argv strings and the cache keys are exact.  LOW covers [1, 45] in steps of
# 1/32 (pi, cost); HIGH covers (45, 1000] in steps of 1/2 (pi only).
LOW_STEP = Fraction(1, 32)
LOW_COUNT = 44 * 32 + 1  # 1, 1 + 1/32, ..., 45
HIGH_STEP = Fraction(1, 2)
HIGH_COUNT = 955 * 2  # 45.5, 46, ..., 1000

# Bump when the reference formulas change; the lattices are checked as well.
CACHE_VERSION = 1


def low_p(j: int) -> Fraction:
    return 1 + j * LOW_STEP


def high_p(j: int) -> Fraction:
    return 45 + (j + 1) * HIGH_STEP


def key(p) -> str:
    """Cache key of a p value: its 12-significant-digit form, as tables print it."""
    return f"{float(p):.12g}"


def _mpf(p):
    if isinstance(p, Fraction):
        return mp.mpf(p.numerator) / p.denominator
    return mp.mpf(p)


def _speed(p, z):
    # l_p speed of the chart at z in [0, 1): (z^(p^2-p) (1-z^p)^(1-p) + 1)^(1/p)
    if z == 0:
        return mp.mpf(1)
    zp = mp.power(z, p)
    return mp.power(mp.power(z, p * p - p) * mp.power(1 - zp, 1 - p) + 1, 1 / p)


def _arc(p, x):
    """H(x) for 0 <= x <= 2^(-1/p), finite p > 1."""
    if x == 0:
        return mp.mpf(0)
    # The speed rises from ~1 to 2^(1/p) within ~1/(2 p^2) of the fold
    # 2^(-1/p); a break point there keeps the quadrature converging fast.
    fold = mp.power(2, -1 / p)
    knee = fold * mp.exp(-40 / (p * p))
    pts = [0, knee, x] if p > 4 and knee < x else [0, x]
    val, err = mp.quad(lambda z: _speed(p, z), pts, error=True)
    if not err <= _QUAD_REL_ERR * abs(val):
        raise ArithmeticError(f"reference quadrature at p={p} did not converge: {err}")
    return val


def pi_ref(p) -> float:
    """pi_p, half the l_p perimeter of the l_p unit circle."""
    with mp.workdps(DPS):
        p = _mpf(p)
        if p == 1 or mp.isinf(p):
            return 4.0
        return float(4 * _arc(p, mp.power(2, -1 / p)))


def critical_ref(p) -> dict[str, float]:
    """pi_p, e_p, gamma_p and the worst-case cost, for finite p > 1."""
    with mp.workdps(DPS):
        p = _mpf(p)
        if not 1 < p < mp.inf:
            raise ValueError(f"critical values need finite p > 1, got {p}")
        half = 4 * _arc(p, mp.power(2, -1 / p))
        if p <= 2:
            s = mp.power(mp.power(mp.power(2, p) - 1, 1 / (p - 1)) + 1, -1 / p)
            explored = half + 2 * _arc(p, s)
            sep = 2 * mp.power(1 - mp.power(s, p), 1 / p)
        else:
            w = mp.findroot(
                lambda w: mp.power(w, p) + 1 - 2 * mp.power(1 - w, p),
                (mp.mpf(0), mp.mpf("0.5")),
                solver="anderson",
            )
            wq = mp.power(w, p / (p - 1))
            s = mp.power(wq + 1, -1 / p)
            s_dual = mp.power(wq / (1 + wq), 1 / p)
            explored = mp.mpf(3) / 2 * half - 2 * _arc(p, s_dual)
            sep = mp.power(2, 1 / p) * (s_dual + s)
        cost = 1 + explored / 2 + sep
        if p > 2:
            cost = max(cost, 1 + half)
        return {"pi": float(half), "e": float(explored), "gamma": float(sep), "cost": float(cost)}


def _lattice_entry(item: tuple[str, bool]) -> tuple[str, dict]:
    text, with_critical = item
    p = Fraction(text)
    entry = critical_ref(p) if with_critical and p > 1 else {"pi": pi_ref(p)}
    return key(p), entry


def _lattice_items() -> list[tuple[str, bool]]:
    items = [(str(low_p(j)), True) for j in range(LOW_COUNT)]
    items += [(str(high_p(j)), False) for j in range(HIGH_COUNT)]
    return items


class ReferenceTable:
    """References keyed by ``key(p)``; lattice values are cached on disk."""

    def __init__(self, path: Path):
        self.path = path
        self.values: dict[str, dict] = {}

    def load_or_build(self) -> None:
        items = _lattice_items()
        stamp = {"version": CACHE_VERSION, "dps": DPS, "lattice": [items[0][0], items[-1][0], len(items)]}
        try:
            doc = json.loads(self.path.read_text())
        except FileNotFoundError:
            doc = None
        if doc and doc.get("stamp") == stamp:
            self.values = doc["values"]
            return
        self.values = dict(map(_lattice_entry, items))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"stamp": stamp, "values": self.values}))
        os.replace(tmp, self.path)

    def pi(self, p: float) -> float:
        entry = self.values.get(key(p))
        if entry is None:
            entry = self.values[key(p)] = {"pi": pi_ref(p)}
        return entry["pi"]

    def critical(self, p: float) -> dict[str, float]:
        entry = self.values.get(key(p))
        if entry is None or "e" not in entry:
            entry = self.values[key(p)] = critical_ref(p)
        return entry
