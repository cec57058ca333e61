"""Time the layers of ``lpevac verify <p> --grid <grid>`` in process.

Each repetition is one real ``cli.cmd_verify([p], grid)`` call.  While it runs, these functions of
``lpevac.chord_arc`` are wrapped by timers, so every layer is the program's own work:

    placement   _quarter_turn_lattice, the arc-length lattice of the lemma check
    rows        _lattice_chords, every chord row of the lemma check
    drop_scan   _largest_drop outside the layers below: each row's scan and the curve's
    curve       min_chord_curve
    tangential  verify_tangential_chord_monotone, its own drop scan included
    report      the rest of cmd_verify: chart build, worst-case params, the two gaps, the record
    total       cmd_verify

A call made inside another timed layer counts toward the outer layer only.  Each repetition runs
cold: the one-entry chart and perimeter caches are emptied first, as a process that last served
another p leaves them.  Rounds go over the p in the order given.  Prints JSON: for each p and
layer, [q1, median, q3] in ms over the repetitions.

    python3 tools/layers.py [--grid 256] [--reps 15] P [P ...]

The package is imported from this checkout's ``src``.  To time another tree, copy this file into
its ``tools/``.
"""
import argparse
import json
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lpevac import chord_arc, cli, lp_geometry  # noqa: E402

LAYERS = {
    "placement": "_quarter_turn_lattice",
    "rows": "_lattice_chords",
    "drop_scan": "_largest_drop",
    "curve": "min_chord_curve",
    "tangential": "verify_tangential_chord_monotone",
}


def _wrap_layers(spent: dict) -> None:
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

    for layer, name in LAYERS.items():
        setattr(chord_arc, name, timed(layer, getattr(chord_arc, name)))


def _verify_once(p: float, grid: int, spent: dict) -> dict:
    lp_geometry._CHART_CACHE.clear()
    lp_geometry._PERIMETER_CACHE.clear()
    for layer in spent:
        spent[layer] = 0.0
    start = perf_counter()
    cli.cmd_verify([p], grid)
    total = perf_counter() - start
    times = dict(spent, report=total - sum(spent.values()), total=total)
    return {layer: 1e3 * t for layer, t in times.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("p", nargs="+", help="norm parameters, e.g. 1.5 2 inf")
    parser.add_argument("--grid", type=int, default=256)
    parser.add_argument("--reps", type=int, default=15)
    args = parser.parse_args(argv)
    if args.reps < 2:
        parser.error("--reps must be at least 2 for quartiles")
    spent = dict.fromkeys(LAYERS, 0.0)
    _wrap_layers(spent)
    runs = {text: [] for text in args.p}
    for _ in range(args.reps):
        for text in args.p:
            runs[text].append(_verify_once(float(text), args.grid, spent))
    ms = {
        text: {
            layer: [round(q, 3) for q in statistics.quantiles([run[layer] for run in rs], n=4)]
            for layer in rs[0]
        }
        for text, rs in runs.items()
    }
    record = {"grid": args.grid, "reps": args.reps, "python": platform.python_version(), "ms": ms}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
