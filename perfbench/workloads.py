"""Seeded workloads: the ``lpevac`` argv lists a run sends, in cycles.

A workload is an endless sequence of cycles drawn from ``random.Random(seed)``;
the same seed always gives the same argv lists.  A run executes whole cycles,
so each cycle's mix (one range reaching p = 1000 per perimeter cycle) is
present in every run in the same proportion.

The range workloads take their p values from the lattices of ``reference``
(1/32 apart on [1, 45], 1/2 apart on (45, 1000]); every p they send has a
cached high-precision reference value.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import reference

WHY = {
    "certify": (
        "verify <p> --grid 256, one p per process: min_chord and point placement "
        "take >90% of the time on one chart per p; a verify inf in every cycle of "
        "four keeps its invalid JSON visible"
    ),
    "cost_sweep": (
        "cost a b --steps 32 over seeded p spread over [1.03, 45]: a new chart per "
        "p is ~75% of the time and the unbounded chart cache sets peak memory"
    ),
    "perimeter_sweep": (
        "pi a b in csv and json, one range per cycle reaching p = 1000: adaptive "
        "quadrature is ~92% of the time, no chart is built; p > 50 rows carry "
        "the known quadrature error"
    ),
}

VERIFY_GRID = 256
COST_STEPS = 32
PI_LOW_STEPS = 1024


@dataclass(frozen=True)
class Invocation:
    """One ``lpevac`` command line and what its output must hold.

    ``ps`` is the p grid a range command must print (exact lattice values),
    or the single p a ``verify`` certifies; ``fmt`` is "csv", "json" or, for
    ``verify``, "report".  ``known_defect`` is the check error a documented
    defect of the program produces on this invocation.
    """

    argv: tuple[str, ...]
    command: str
    fmt: str
    ps: tuple[float, ...]
    known_defect: str | None = None


def _num(x: Fraction | float) -> str:
    """Shortest decimal text of a lattice value (exact for 1/32 and 1/2 steps)."""
    return repr(float(x))


def _range(command: str, lo: Fraction, step: Fraction, steps: int, fmt: str) -> Invocation:
    hi = lo + (steps - 1) * step
    argv = (command, _num(lo), _num(hi), "--steps", str(steps))
    if fmt == "json":
        argv += ("--format", "json")
    ps = tuple(float(lo + i * step) for i in range(steps))
    return Invocation(argv, command, fmt, ps)


def _verify(p: float) -> Invocation:
    argv = ("verify", "inf" if math.isinf(p) else f"{p:.6f}", "--grid", str(VERIFY_GRID))
    # verify writes p = inf as the token Infinity, which is not JSON.
    defect = "invalid JSON token Infinity" if math.isinf(p) else None
    return Invocation(argv, "verify", "report", (float(argv[1]),), defect)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _certify_cycles(rng: random.Random) -> Iterator[list[Invocation]]:
    # Every cycle starts with p = inf, the known defect, so that the share of
    # failed invocations is the same however many cycles a run makes.  The
    # other three take one p from each of [1.001, 2), [2, 6] and (6, 45]: a
    # verify of p < 2 takes about 20% longer than one of p > 6, so every
    # cycle holds the same mix of costs.  The first cycle holds the fixed
    # points: p = 1.001, the lower end of the well-conditioned range, where
    # the checks of verify are tightest and max_rel_err is largest, and
    # p = 2, which has its own tolerance branch.
    yield [_verify(p) for p in (math.inf, 1.001, 2.0, _log_uniform(rng, 6.0, 45.0))]
    while True:
        ps = (rng.uniform(1.05, 2.0), _log_uniform(rng, 2.0, 6.0), _log_uniform(rng, 6.0, 45.0))
        yield [_verify(p) for p in (math.inf, *ps)]


def _cost_cycle(rng: random.Random) -> list[Invocation]:
    # A chart costs about 15% more near p = 1 and p = 45 than in between, so
    # every range spans at least 7/8 of [1.03, 45]: each invocation then
    # costs about the same, whatever the seed.
    last = reference.LOW_COUNT - 1  # lattice index of p = 45
    widest = last // (COST_STEPS - 1)
    stride = rng.randint(widest - widest // 8, widest)
    start = rng.randint(1, last - stride * (COST_STEPS - 1))
    return [_range("cost", reference.low_p(start), stride * reference.LOW_STEP, COST_STEPS, "csv")]


def _perimeter_cycle(rng: random.Random) -> list[Invocation]:
    # The long range starts at or below p = 50, just under the jump of the
    # quadrature error near p = 50.2, and ends at p = 1000.
    first = rng.randint(0, 9)  # p = 45.5 ... 50
    high = _range(
        "pi", reference.high_p(first), reference.HIGH_STEP,
        reference.HIGH_COUNT - first, rng.choice(("csv", "json")),
    )
    # The cost of a row grows with p (0.1 ms at p = 3, 0.3 ms at p = 44, and
    # 0.5 ms below p = 2), so each cycle takes one range from each third of
    # the possible starts: every cycle then costs about the same.
    lows = []
    width = (reference.LOW_COUNT - PI_LOW_STEPS + 1) / 3
    for third, fmt in enumerate(("csv", "json", "csv")):
        start = rng.randrange(round(third * width), round((third + 1) * width))
        lows.append(_range("pi", reference.low_p(start), reference.LOW_STEP, PI_LOW_STEPS, fmt))
    return [high] + lows


def _repeat(make):
    def cycles(rng: random.Random) -> Iterator[list[Invocation]]:
        while True:
            yield make(rng)

    return cycles


_CYCLES = {
    "certify": _certify_cycles,
    "cost_sweep": _repeat(_cost_cycle),
    "perimeter_sweep": _repeat(_perimeter_cycle),
}


def cycles(workload: str, seed: int) -> Iterator[list[Invocation]]:
    """Endless seeded cycles of a workload."""
    return _CYCLES[workload](random.Random(f"{workload}:{seed}"))
