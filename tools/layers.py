"""Time the layers of ``lpevac verify <p> --grid <grid>`` in process.

Each repetition makes two real ``cli.cmd_verify([p], grid)`` calls.  The first runs the lemma
check's rows in this process alone (one share), and these functions of ``lpevac.chord_arc`` are
wrapped by timers while it runs, so every layer is the program's own work and the layers add up to
the total:

    placement   _quarter_turn_lattice, the arc-length lattice of the lemma check
    rows        _lattice_chords, every chord row of the lemma check
    drop_scan   _largest_drop outside the layers below: each row's scan and the curve's
    curve       min_chord_curve
    tangential  verify_tangential_chord_monotone, its own drop scan included
    report      the rest of cmd_verify: chart build, worst-case params, the two gaps, the record
    total       cmd_verify
    cpu         CPU time of this process (user + system) over cmd_verify

A call made inside another timed layer counts toward the outer layer only.  The second call runs
unwrapped, as ``lpevac verify`` does, with the rows split between this process and a forked child
where ``chord_arc._share_count()`` allows it ("shares" in the output).  The second calls run after
all first calls, which the page faults that follow a fork would slow:

    forked_total         cmd_verify
    forked_cpu_self      CPU time of this process over it
    forked_cpu_children  CPU time of the child, reaped within cmd_verify

Each call runs cold: the one-entry chart and perimeter caches are emptied first, as a process that
last served another p leaves them.  Rounds go over the p in the order given.  Prints JSON: for each
p and row, [q1, median, q3] in ms over the repetitions.

    python3 tools/layers.py [--grid 256] [--reps 15] P [P ...]

The package is imported from this checkout's ``src``.  To time another tree, copy this file into
its ``tools/``; a tree without ``_share_count`` gets only the one-share rows.
"""
import argparse
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lpevac import chord_arc, cli, lp_geometry  # noqa: E402

FORKED_ROWS = ("forked_total", "forked_cpu_self", "forked_cpu_children")
LAYERS = {
    "placement": "_quarter_turn_lattice",
    "rows": "_lattice_chords",
    "drop_scan": "_largest_drop",
    "curve": "min_chord_curve",
    "tangential": "verify_tangential_chord_monotone",
}


def _timed_layers(spent: dict) -> dict:
    # The timer wrappers of LAYERS, by function name.
    busy = False

    def timed(layer, fn):
        def wrapper(*args, **kwargs):
            nonlocal busy
            if busy:
                return fn(*args, **kwargs)
            busy = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[layer] += perf_counter() - start
                busy = False

        return wrapper

    return {name: timed(layer, getattr(chord_arc, name)) for layer, name in LAYERS.items()}


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _cold_verify(p: float, grid: int) -> tuple[float, float, float]:
    # Wall, own CPU and reaped children's CPU time of one cmd_verify, in s.
    lp_geometry._CHART_CACHE.clear()
    lp_geometry._PERIMETER_CACHE.clear()
    cpu, children = _cpu_s(resource.RUSAGE_SELF), _cpu_s(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    cli.cmd_verify([p], grid)
    wall = perf_counter() - start
    cpu = _cpu_s(resource.RUSAGE_SELF) - cpu
    return wall, cpu, _cpu_s(resource.RUSAGE_CHILDREN) - children


def _layered_verify(p: float, grid: int, spent: dict, timers: dict) -> dict:
    # The one-share call, with the layers timed.
    originals = {name: getattr(chord_arc, name) for name in timers}
    share_count = getattr(chord_arc, "_share_count", None)
    for layer in spent:
        spent[layer] = 0.0
    try:
        for name, timer in timers.items():
            setattr(chord_arc, name, timer)
        chord_arc._share_count = lambda: 1
        total, cpu, _ = _cold_verify(p, grid)
    finally:
        for name, fn in originals.items():
            setattr(chord_arc, name, fn)
        if share_count is None:
            del chord_arc._share_count
        else:
            chord_arc._share_count = share_count
    times = dict(spent, report=total - sum(spent.values()), total=total, cpu=cpu)
    return {row: 1e3 * t for row, t in times.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("p", nargs="+", help="norm parameters, e.g. 1.5 2 inf")
    parser.add_argument("--grid", type=int, default=256)
    parser.add_argument("--reps", type=int, default=15)
    args = parser.parse_args(argv)
    if args.reps < 2:
        parser.error("--reps must be at least 2 for quartiles")
    spent = dict.fromkeys(LAYERS, 0.0)
    timers = _timed_layers(spent)
    runs = {text: [] for text in args.p}
    for _ in range(args.reps):
        for text in args.p:
            runs[text].append(_layered_verify(float(text), args.grid, spent, timers))
    # After a fork this process takes a page fault at the first write to each
    # page it shared with the child, so every one-share call runs first.
    if hasattr(chord_arc, "_share_count"):
        for rep in range(args.reps):
            for text in args.p:
                forked = _cold_verify(float(text), args.grid)
                runs[text][rep].update(zip(FORKED_ROWS, (1e3 * t for t in forked)))
    ms = {
        text: {
            layer: [round(q, 3) for q in statistics.quantiles([run[layer] for run in rs], n=4)]
            for layer in rs[0]
        }
        for text, rs in runs.items()
    }
    shares = chord_arc._share_count() if hasattr(chord_arc, "_share_count") else 1
    record = {
        "grid": args.grid,
        "reps": args.reps,
        "shares": shares,
        "python": platform.python_version(),
        "ms": ms,
    }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
