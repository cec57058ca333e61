"""Benchmark of the ``lpevac`` command line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

A closed loop with one client: each ``lpevac`` command line of the seeded
workload runs in a fresh Python process (cold caches, as a user runs it), the
next one starts when it has ended, and every output is checked against an
mpmath reference.  A first pass runs whole workload cycles until its share of
``--seconds`` is used; further passes repeat its command lines (see REPEATS).
Reported times are wall times scaled to a fixed host speed (see REFERENCE);
each invocation record keeps its raw wall time.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` every command line runs twice, untraced and then
under ``traced_cli.py``, and the last line holds the per-layer metrics and
the tracing overhead.  The lines before it record the machine, the argv of
every invocation (a run is replayed by its seed, or by hand from these), and
each invocation's time, memory and check result.

``correct`` is false when an invocation fails in any way other than the
documented defect its workload expects (``Invocation.known_defect``); such
an expected failure still counts in ``failed``.

The program is run from ``src/`` of the checkout this file sits in.  The
first run in a checkout builds the reference cache (about 90 s on one Intel
Xeon core); later runs load it.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from checker import Checker
from reference import ReferenceTable
from workloads import WHY, cycles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE_DIR = ROOT / ".perfbench_cache"

# What the installed ``lpevac`` console script runs, plus an exit hook that
# writes the process's peak resident memory (VmHWM, in KiB) to the file named
# by $PERFBENCH_PEAK.  VmHWM counts only the program after its exec; the
# ru_maxrss of a child also counts the image it replaced, which for a child
# forked from this benchmark is the benchmark itself.
BOOTSTRAP = """\
import atexit, os, sys

def _peak():
    with open("/proc/self/status") as status, open(os.environ["PERFBENCH_PEAK"], "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))

atexit.register(_peak)
from lpevac.cli import main
sys.exit(main())
"""
SETUP_RUNS = 11
# A fixed job that does not touch the program: a fresh interpreter imports
# standard modules and fills float lists the size of a chart.  The speed of a
# shared host swings by 20% and more within seconds as other tenants load
# it, and even the medians of 30-second windows differ by as much.  A loop
# timed inside the benchmark process does not follow these swings; this job,
# run every REFERENCE_EVERY_S of a run, follows them well enough to take the
# spread of ten runs' times from 0.13-0.21 to under 0.08 on a 2-vCPU Intel
# Xeon guest.  So every reported time is scaled to the host speed at which
# the job takes REFERENCE_S:
# wall time * REFERENCE_S / (median time of the LOCAL_REFERENCES runs of
# REFERENCE just before the invocation and as many just after it).
REFERENCE = """\
import argparse, csv, dataclasses, io, json, math
xs = [0.0] * 2049
for k in range(6):
    p = 1.5 + 3.5 * k
    for i in range(2049):
        z = i / 2048
        xs[i] = math.pow(z ** p * math.pow(1.0 + z, 1.0 - p) + 1.0, 1.0 / p) + 1e-9 * xs[i - 1]
print(json.dumps(sum(xs)))
"""
REFERENCE_S = 0.11  # median on an Intel Xeon vCPU of a shared host
REFERENCE_EVERY_S = 0.75
LOCAL_REFERENCES = 3
INVOCATION_TIMEOUT_S = 60.0
# No invocation starts once the run has taken this long, whatever --seconds
# says, and none runs past RUN_KILL_S, so that a much slower program still
# ends within three minutes.
RUN_DEADLINE_S = 120.0
RUN_KILL_S = 155.0
# Each command line runs this many times, far apart in the run, and counts
# with the mean of its scaled times.  A verify takes seconds and runs once.
REPEATS = {"certify": 1, "cost_sweep": 3, "perimeter_sweep": 3}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
    }


def child_env(workdir: Path | None = None) -> dict:
    env = dict(os.environ)
    if workdir is not None:
        env["PERFBENCH_PEAK"] = str(workdir / "peak_kib")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Spawned:
    wall_s: float
    exit_code: int
    rss_mb: float | None  # None unless the process ran BOOTSTRAP to its exit
    stdout: str
    stderr: str


def spawn(cmd: list[str], workdir: Path, timeout: float = INVOCATION_TIMEOUT_S) -> Spawned:
    """Run one process to its end; time it and read its peak resident memory."""
    out_path, err_path, peak_path = workdir / "stdout", workdir / "stderr", workdir / "peak_kib"
    peak_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(workdir), cwd=ROOT)
        # wait(timeout=...) polls in sleeps of up to 50 ms, which would round
        # every wall time up by as much; a timer kills a process that overruns.
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
            # On an interrupt or a SIGTERM of the benchmark, the child must
            # not outlive it.
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return Spawned(
        wall,
        proc.returncode,
        int(peak_path.read_text()) / 1024.0 if peak_path.is_file() else None,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def preflight(workdir: Path) -> None:
    """Fail unless the checkout's own ``lpevac`` is the one that runs."""
    if not (SRC / "lpevac" / "cli.py").is_file():
        raise SystemExit(f"error: no program to measure: {SRC / 'lpevac' / 'cli.py'} is missing")
    probe = spawn([sys.executable, "-c", "import lpevac.cli as c; print(c.__file__)"], workdir)
    found = Path(probe.stdout.strip() or ".").resolve()
    if probe.exit_code != 0 or SRC.resolve() not in found.parents:
        raise SystemExit(f"error: lpevac.cli resolves to {found}, not under {SRC}: {probe.stderr}")


class Session:
    """The processes of one benchmark run and their records."""

    def __init__(self, workdir: Path, checker, seconds: float, trace: bool):
        self.workdir = workdir
        self.checker = checker
        self.records: list[dict] = []
        self.setup_times: list[float] = []
        self.reference_times: list[float] = []
        # A traced run reports no setup time and no scaled times, so it
        # takes no setup or reference samples.
        self.setup_every = math.inf if trace else seconds / SETUP_RUNS
        self.reference_every = math.inf if trace else REFERENCE_EVERY_S
        self.last_setup = -math.inf
        self.traced_walls: list[tuple[float, float]] = []
        self.aggregate: dict | None = None
        self.taken = 0.0
        self.started = time.perf_counter()
        self.kill_at = math.inf

    def start(self) -> None:
        self.started = time.perf_counter()
        self.kill_at = self.started + RUN_KILL_S

    def timeout(self) -> float:
        return max(1.0, min(INVOCATION_TIMEOUT_S, self.kill_at - time.perf_counter()))

    def setup(self) -> None:
        """Time a fresh ``lpevac --version``: import and parser build."""
        run = spawn([sys.executable, "-c", BOOTSTRAP, "--version"], self.workdir)
        if run.exit_code != 0 or not run.stdout.startswith("lpevac "):
            raise SystemExit(f"error: lpevac --version failed: {run.stderr}")
        self.setup_times.append(run.wall_s)
        self.last_setup = time.perf_counter()

    def keep_pace(self) -> None:
        """Run REFERENCE until it has run once per REFERENCE_EVERY_S of the run."""
        now = time.perf_counter()
        while len(self.reference_times) < (now - self.started) / self.reference_every and now < self.kill_at:
            self.reference_times.append(spawn([sys.executable, "-c", REFERENCE], self.workdir).wall_s)
            now = time.perf_counter()

    def plain(self, key, inv) -> Spawned:
        # Setup samples are spread over the run, so that they see the same
        # host load as the invocations.
        if time.perf_counter() - self.last_setup >= self.setup_every:
            self.setup()
        self.keep_pace()
        spawned = spawn([sys.executable, "-c", BOOTSTRAP, *inv.argv], self.workdir, self.timeout())
        self.record(key, inv, spawned, traced=False)
        return spawned

    def traced(self, key, inv, plain: Spawned) -> None:
        trace_path = self.workdir / "trace.json"
        spawned = spawn(
            [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), *inv.argv], self.workdir, self.timeout()
        )
        self.record(key, inv, spawned, traced=True)
        if not trace_path.is_file():
            raise SystemExit(f"error: traced run wrote no trace: {spawned.stderr}")
        self.aggregate = merge(self.aggregate, json.loads(trace_path.read_text()))
        trace_path.unlink()
        self.traced_walls.append((plain.wall_s, spawned.wall_s))

    def record(self, key, inv, spawned: Spawned, traced: bool) -> None:
        outcome = self.checker.check(inv, spawned.exit_code, spawned.stdout)
        rec = {
            "key": key,
            "argv": list(inv.argv),
            "traced": traced,
            "wall_s": spawned.wall_s,
            "reference_index": len(self.reference_times),
            "rss_mb": spawned.rss_mb,
            "exit": spawned.exit_code,
            "ok": outcome.ok,
            "rows": outcome.rows,
            "max_rel_err": outcome.max_rel_err,
            "error": outcome.error,
            "known_defect": bool(outcome.error and inv.known_defect and inv.known_defect in outcome.error),
        }
        emit({"invocation": rec})
        self.records.append(rec)
        self.taken += spawned.wall_s


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    CACHE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=CACHE_DIR) as tmp:
        workdir = Path(tmp)
        preflight(workdir)
        refs = ReferenceTable(CACHE_DIR / "reference.json")
        refs.load_or_build()
        session = Session(workdir, Checker(refs), seconds, trace)
        session.setup()  # writes the bytecode caches; not counted
        session.setup_times.clear()
        emit({"run": {"workload": workload, "why": WHY[workload], "seed": seed,
                      "seconds": seconds, "trace": int(trace), "machine": machine()}})

        # The first pass draws new cycles until its share of --seconds is
        # used, to the nearest whole cycle, so that runs at about the same
        # host speed make the same number of cycles; later passes repeat its
        # command lines in the same order, so that the repeats of one command
        # line are far apart in time.
        repeats = 1 if trace else REPEATS[workload]
        done = []
        session.start()

        def late() -> bool:
            return time.perf_counter() - session.started >= RUN_DEADLINE_S

        for number, cycle in enumerate(cycles(workload, seed)):
            for inv in cycle:
                session.checker.prepare(inv)
            for position, inv in enumerate(cycle):
                if late():
                    break
                plain = session.plain((number, position), inv)
                if trace:
                    session.traced((number, position), inv, plain)
                done.append(((number, position), inv))
            if (session.taken * (number + 1.5) / (number + 1)) * repeats >= seconds or late():
                break
        for _ in range(repeats - 1):
            for key, inv in done:
                if not late():
                    session.plain(key, inv)
        while len(session.setup_times) < SETUP_RUNS and not trace:
            session.setup()
        session.keep_pace()

    records = session.records
    plain = [r for r in records if not r["traced"]]
    result = {
        "correct": all(r["ok"] or r["known_defect"] for r in records),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
    }
    emit({"reference_s": session.reference_times})
    if trace:
        metrics = tracer.layer_metrics(session.aggregate, len(session.traced_walls))
        metrics["trace.overhead_ratio"] = (
            sum(t for _, t in session.traced_walls) / sum(p for p, _ in session.traced_walls), "ratio"
        )
        self_s = session.aggregate["self_s"]
        emit({
            "unwrapped_cross_module_names": session.aggregate["unwrapped"],
            "self_time_share": {
                name: t / sum(self_s.values()) for name, t in sorted(self_s.items(), key=lambda kv: -kv[1])[:6]
            },
        })
    else:
        metrics = end_to_end(plain, statistics.median(session.setup_times), session.reference_times)
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:<14.6g} {unit}  (n={len(done)} invocations x {repeats})")
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return result


def end_to_end(
    plain: list[dict], setup_s: float, references: list[float] = (REFERENCE_S,)
) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from the records of the untraced invocations.

    ``references`` are the times of REFERENCE in the run, in order; an
    invocation's ``reference_index`` is how many of them ran before it.
    Its time is scaled by the median of those nearest it (see REFERENCE), and
    setup_s by the median of all of them.  The time of a command line is the
    mean of its repeats; its rows count when every repeat passed its checks.
    The peak memory is the largest that an invocation reported of itself
    (BOOTSTRAP).
    """
    times, rows = {}, {}
    for r in plain:
        i = r.get("reference_index", 0)
        local = statistics.median(references[max(0, i - LOCAL_REFERENCES) : i + LOCAL_REFERENCES])
        times.setdefault(r["key"], []).append(r["wall_s"] * REFERENCE_S / local)
        rows[r["key"]] = min(r["rows"] if r["ok"] else 0, rows.get(r["key"], math.inf))
    walls = [statistics.fmean(t) for t in times.values()]
    return {
        "setup_s": (setup_s * REFERENCE_S / statistics.median(references), "s"),
        "rows_per_s": (sum(rows.values()) / sum(walls), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_p90_s": (statistics.quantiles(walls, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in plain if r["rss_mb"] is not None), "MB"),
        "ok_ratio": (sum(r["ok"] for r in plain) / len(plain), "ratio"),
        "max_rel_err": (max(r["max_rel_err"] for r in plain), "ratio"),
    }


def merge(total: dict | None, part: dict) -> dict:
    if total is None:
        return part
    for field in ("calls", "errors", "self_s", "incl_s", "within", "bytes"):
        for k, v in part[field].items():
            total[field][k] = total[field].get(k, 0) + v
    total["cache_entries"] += part["cache_entries"]
    return total


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so that spawn() ends its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
