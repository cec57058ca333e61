"""Self-contained 1-D numerical kernels.

Three primitives with explicit tolerance contracts, used by
``lp_geometry`` and ``evacuation``:

* ``integrate_adaptive``  globally adaptive Gauss-Kronrod (G7, K15) quadrature
                          from optional break points,
* ``find_root_bracketed`` Brent's method with guaranteed bisection fallback,
* ``maximize_1d``         dense grid scan refined by golden-section search.

The Gauss-Kronrod nodes and weights are QUADPACK's ``qk15`` constants,
given to 33 digits so that the rule is exact to rounding on polynomials of
degree up to 22 (K15) and 13 (G7).  ``integrate_adaptive`` takes a panel
integrand: one call receives the 15 abscissae of one GK15 panel and returns
their values, so an integrand pays its per-call set-up once per panel, not
once per node.  The other two take a scalar function.  All routines are pure
functions of their inputs and hold no shared mutable state, so they are safe
to call concurrently.
"""
from __future__ import annotations

import heapq
import math
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence

__all__ = [
    "Tolerance",
    "IntegrationError",
    "BracketError",
    "integrate_adaptive",
    "find_root_bracketed",
    "maximize_1d",
]

_EPS = 2.220446049250313e-16


class _ToleranceFields(NamedTuple):
    abs_tol: float
    rel_tol: float
    max_iter: int


class Tolerance(_ToleranceFields):
    """Shared tolerance contract.

    abs_tol   absolute tolerance, must be > 0
    rel_tol   relative tolerance, must be >= 0
    max_iter  iteration / subdivision-depth budget, must be >= 1

    integrate_adaptive reads all three; find_root_bracketed and maximize_1d
    read abs_tol and max_iter, their exact step budget, and ignore rel_tol.
    """

    __slots__ = ()

    def __new__(
        cls, abs_tol: float = 1e-10, rel_tol: float = 1e-10, max_iter: int = 60
    ) -> "Tolerance":
        if not abs_tol > 0.0:
            raise ValueError(f"abs_tol must be positive, got {abs_tol}")
        if rel_tol < 0.0:
            raise ValueError(f"rel_tol must be non-negative, got {rel_tol}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        return super().__new__(cls, abs_tol, rel_tol, max_iter)

    @classmethod
    def _make(cls, iterable) -> "Tolerance":
        # _replace builds through _make: validate there too
        return cls(*iterable)


class IntegrationError(RuntimeError):
    """Quadrature did not converge; the message names the best estimate and bound."""


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1] (qk15,
# see the module docstring).  Only the non-negative abscissae are listed,
# the centre last; the Gauss nodes sit at the odd positions, the centre
# among them.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# The 15 signed nodes from -1 to 1 with their K15 weights; the G7 nodes
# are every other one of them, from the second on, with the G7 weights.
_NODES = tuple(-x for x in _XGK[:7]) + _XGK[::-1]
_K15 = _WGK[:7] + _WGK[::-1]
_G7 = _WG[:3] + _WG[::-1]


def _gk15(f: Callable[[list[float]], Sequence[float]], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel, one call of f: returns (K15 estimate, |K15 - G7|)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = f([c + h * x for x in _NODES])
    resk = sum(map(mul, _K15, fv))
    resg = sum(map(mul, _G7, fv[1::2]))
    return resk * h, abs(resk - resg) * abs(h)


def integrate_adaptive(
    f: Callable[[list[float]], Sequence[float]],
    a: float,
    b: float,
    tol: Tolerance,
    points: Iterable[float] = (),
) -> float:
    """Integrate f over [a, b] to max(abs_tol, rel_tol * |I|).

    ``f`` is a panel integrand: it is called once per GK15 panel with the
    list of that panel's 15 abscissae, in ``_NODES`` order from its left end
    to its right, and returns a sequence of the integrand's values there, in
    the same order.  ``lambda xs: [g(x) for x in xs]`` integrates a scalar g.

    Globally adaptive: the panel with the largest error estimate is bisected
    until the summed error estimate meets the target.  A panel may be split
    at most ``tol.max_iter`` times; exhausting that budget while the target
    is still unmet raises :class:`IntegrationError`, whose message names the
    best estimate and its error bound.

    ``points`` are break points, as in QUADPACK's ``qagp``: [a, b] is first
    cut at the distinct points strictly inside it, one panel per piece, and
    all pieces share the one error target.  Points outside (a, b) are
    ignored, so ``points=()`` integrates from the single panel [a, b].
    """
    if not a <= b:
        raise ValueError(f"integration bounds out of order: [{a}, {b}]")
    if a == b:
        return 0.0

    cuts = [a, *sorted({x for x in points if a < x < b}), b]
    # heap entries: (-err, a, b, est, err, depth)
    heap = []
    for lo, hi in zip(cuts, cuts[1:]):
        est, err = _gk15(f, lo, hi)
        heap.append((-err, lo, hi, est, err, 0))
    total_est = sum(entry[3] for entry in heap)
    total_err = sum(entry[4] for entry in heap)
    heapq.heapify(heap)
    while total_err > max(tol.abs_tol, tol.rel_tol * abs(total_est)):
        _, a0, b0, est0, err0, depth = heapq.heappop(heap)
        mid = 0.5 * (a0 + b0)
        if depth >= tol.max_iter or mid <= a0 or mid >= b0:
            raise IntegrationError(
                f"no convergence after {depth} subdivision levels on "
                f"[{a0}, {b0}] (estimate {total_est}, bound {total_err})"
            )
        e1, r1 = _gk15(f, a0, mid)
        e2, r2 = _gk15(f, mid, b0)
        total_est += e1 + e2 - est0
        total_err += r1 + r2 - err0
        heapq.heappush(heap, (-r1, a0, mid, e1, r1, depth + 1))
        heapq.heappush(heap, (-r2, mid, b0, e2, r2, depth + 1))
    return total_est


def find_root_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance,
) -> float:
    """Find a root of f in [lo, hi] given f(lo) * f(hi) <= 0.

    Brent's method (inverse quadratic / secant steps guarded by bisection).
    Returns the root once |f(root)| <= abs_tol or the bracket around it is
    below abs_tol wide; raises RuntimeError if neither holds after
    ``tol.max_iter`` one-evaluation steps.
    """
    if not lo <= hi:
        raise ValueError(f"bracket out of order: [{lo}, {hi}]")
    fa = f(lo)
    fb = f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={fa}, {fb}")

    a, b, c = lo, hi, lo
    fc = fa
    d = e = b - a
    for step in range(tol.max_iter + 1):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol.abs_tol
        mid = 0.5 * (c - b)
        if fb == 0.0 or abs(fb) <= tol.abs_tol or abs(mid) <= tol1:
            break
        if step == tol.max_iter:
            raise RuntimeError(f"no root within abs_tol after {step} steps, between {b} and {c}")
        if abs(e) < tol1 or abs(fa) <= abs(fb):
            d = e = mid
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * mid * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * mid * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s = e
            e = d
            if 2.0 * p < 3.0 * mid * q - abs(tol1 * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = mid
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        elif mid > 0.0:
            b += tol1
        else:
            b -= tol1
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return b


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def maximize_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance,
    n_grid: int = 4096,
) -> tuple[float, float]:
    """Maximize f on [lo, hi]: dense grid scan plus golden-section refinement.

    Returns (x*, f(x*)) with f(x*) >= the maximum over the initial grid; the
    global maximum is guaranteed only up to the grid resolution.  Golden
    section stops at width abs_tol or after ``tol.max_iter`` more evaluations
    and returns its best point either way: the grid bound holds at any budget.
    """
    if not lo <= hi:
        raise ValueError(f"bounds out of order: [{lo}, {hi}]")
    if n_grid < 2:
        raise ValueError(f"need at least 2 grid cells, got {n_grid}")
    if lo == hi:
        return lo, f(lo)
    step = (hi - lo) / n_grid
    xs = [lo + i * step for i in range(n_grid)] + [hi]
    vals = [f(x) for x in xs]
    ibest = max(range(n_grid + 1), key=vals.__getitem__)
    gx, gv = xs[ibest], vals[ibest]

    a = xs[ibest - 1] if ibest > 0 else lo
    b = xs[ibest + 1] if ibest < n_grid else hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(tol.max_iter):
        if b - a <= tol.abs_tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
    best_x, best_v = gx, gv
    for x, v in ((x1, f1), (x2, f2)):
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v
