"""Tests of the benchmark's own code: python3 -m pytest perfbench/tests"""
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

import reference
import run
import tracer
import workloads
from checker import Checker, CheckError, parse_csv_table, strict_json
from reference import ReferenceTable


def _argv(workload, seed, n):
    return [inv.argv for cycle in itertools.islice(workloads.cycles(workload, seed), n) for inv in cycle]


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_same_seed_gives_same_argv(workload):
    assert _argv(workload, 7, 4) == _argv(workload, 7, 4)
    assert _argv(workload, 7, 4) != _argv(workload, 8, 4)


def test_generated_inputs_stay_in_their_ranges():
    first, *rest = itertools.islice(workloads.cycles("certify", 3), 20)
    assert [inv.ps[0] for inv in first[:3]] == [math.inf, 1.001, 2.0]
    for cycle in [first] + rest:
        # exactly one known failure per cycle, whatever the run length
        assert [inv.known_defect is not None for inv in cycle] == [True, False, False, False]
        assert cycle[0].ps[0] == math.inf
        assert 6.0 <= cycle[3].ps[0] <= 45.0
    for cycle in rest:
        assert 1.05 <= cycle[1].ps[0] < 2.0 <= cycle[2].ps[0] <= 6.0
    for cycle in itertools.islice(workloads.cycles("cost_sweep", 3), 20):
        (inv,) = cycle
        assert 1.001 <= inv.ps[0] and inv.ps[-1] <= 45.0 and len(set(inv.ps)) == len(inv.ps)
    for cycle in itertools.islice(workloads.cycles("perimeter_sweep", 3), 20):
        assert cycle[0].ps[0] <= 50.0 and cycle[0].ps[-1] == 1000.0
        assert all(1.0 <= inv.ps[0] and inv.ps[-1] <= 45.0 for inv in cycle[1:])
        assert {inv.fmt for inv in cycle[1:]} == {"csv", "json"}


def test_range_argv_reproduces_the_cli_grid():
    # lpevac builds p_min + i * (p_max - p_min) / (steps - 1); on the lattice
    # this is exact, so the expected grid is the lattice itself.
    for cycle in itertools.islice(workloads.cycles("perimeter_sweep", 5), 5):
        for inv in cycle:
            lo, hi, steps = float(inv.argv[1]), float(inv.argv[2]), int(inv.argv[4])
            h = (hi - lo) / (steps - 1)
            assert [lo + i * h for i in range(steps - 1)] + [hi] == list(inv.ps)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_nested_children():
    t = tracer.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 4, 5, 10]))
    t.open("a")        # 0
    t.open("b")        # 1
    t.open("c")        # 2
    t.close()          # 3: c = 1
    t.close()          # 4: b = 3, self 2
    t.open("c")        # 4
    t.close()          # 5: c = 1
    t.close()          # 10: a = 10, self 10 - 3 - 1
    s = t.summary()
    assert s["self_s"] == {"a": 6, "b": 2, "c": 2}
    assert s["incl_s"] == {"a": 10, "b": 3, "c": 2}
    assert s["calls"] == {"a": 1, "b": 1, "c": 2}


def test_recursive_span_counts_inclusive_time_once():
    t = tracer.Tracer(clock=FakeClock([0, 1, 2, 4]))
    t.open("a")
    t.open("a")
    t.close()
    t.close()
    s = t.summary()
    assert s["incl_s"] == {"a": 4}
    assert s["self_s"] == {"a": 4}


def test_missing_target_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", {"lp_geometry._no_such_function": tracer.SPAN})
    with pytest.raises(tracer.MissingTarget):
        tracer.install(tracer.Tracer())


def test_traced_cli_wraps_every_cross_module_function(tmp_path):
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "traced_cli.py"), str(out), "cost", "2", "3", "--steps", "2"],
        env=run.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["unwrapped"] == []
    assert doc["calls"]["cli.main"] == 1
    assert doc["calls"]["lp_geometry._Chart.__init__"] == 2
    assert doc["cache_entries"] >= 2
    m = tracer.layer_metrics(doc, 1)
    assert m["lp_geometry.chart_builds"] == (2, "count")
    assert m["chord_arc.min_chord_calls"][0] == 2
    assert m["tables.bytes_out"][0] == len(proc.stdout.encode())


def test_command_line_counts_with_its_mean_repeat():
    recs = [
        {"key": (0, 0), "wall_s": 2.0, "rss_mb": 20.0, "ok": True, "rows": 4, "max_rel_err": 1e-12},
        {"key": (0, 0), "wall_s": 1.0, "rss_mb": 21.0, "ok": True, "rows": 4, "max_rel_err": 1e-12},
        {"key": (0, 1), "wall_s": 3.5, "rss_mb": 20.0, "ok": False, "rows": 0, "max_rel_err": 0.0},
    ]
    m = run.end_to_end(recs, 0.1)
    assert m["op_p50_s"][0] == 2.5 and m["rows_per_s"][0] == 0.8
    assert m["peak_rss_mb"][0] == 21.0 and m["ok_ratio"][0] == pytest.approx(2 / 3)


def test_p90_rule():
    # inclusive rule: the value at rank 0.9 * (n - 1), interpolated
    recs = [
        {"key": (0, i), "wall_s": float(t), "rss_mb": 20.0, "ok": True, "rows": 1, "max_rel_err": 0.0}
        for i, t in enumerate([10, 1, 9, 2, 8, 3, 7, 4, 6, 5])
    ]
    assert run.end_to_end(recs, 0.1)["op_p90_s"][0] == pytest.approx(9.1)


def test_times_scale_with_the_nearest_reference_jobs():
    ref = run.REFERENCE_S
    # the host is twice as slow around the first invocation as around the second
    references = [2 * ref, 2 * ref, 2 * ref, ref, ref, ref, ref, ref, ref]
    recs = [
        {"key": (0, 0), "wall_s": 4.0, "reference_index": 2, "rss_mb": 20.0, "ok": True, "rows": 4, "max_rel_err": 0.0},
        {"key": (0, 1), "wall_s": 2.0, "reference_index": 7, "rss_mb": 20.0, "ok": True, "rows": 4, "max_rel_err": 0.0},
    ]
    m = run.end_to_end(recs, 0.2, references)
    assert m["op_p50_s"][0] == pytest.approx(2.0) and m["rows_per_s"][0] == pytest.approx(2.0)
    assert m["setup_s"][0] == pytest.approx(0.2)


def test_peak_memory_is_the_program_own(tmp_path):
    # The benchmark process holds 64 MiB; a child forked from it must not
    # report that as its own peak.
    ballast = b"x" * (64 << 20)
    spawned = run.spawn([sys.executable, "-c", run.BOOTSTRAP, "--version"], tmp_path)
    assert spawned.exit_code == 0 and spawned.stdout.startswith("lpevac ")
    assert 5.0 < spawned.rss_mb < 40.0
    assert len(ballast) == 64 << 20


PI_2, PI_3 = math.pi, 3.259767993058995


def _pi_checker():
    refs = ReferenceTable(None)
    refs.values = {"2": {"pi": PI_2}, "3": {"pi": PI_3}}
    inv = workloads._range("pi", Fraction(2), Fraction(1), 2, "csv")
    return Checker(refs), inv


def _pi_csv(second="3.25976799306"):
    return (
        "# tool=lpevac 0.1.0\n# command=pi\n# p_min=2.0\n# p_max=3.0\n# steps=2\n"
        f"p,pi_p\n2,3.14159265359\n3,{second}\n"
    )


def test_checker_accepts_correct_csv():
    checker, inv = _pi_checker()
    outcome = checker.check(inv, 0, _pi_csv())
    assert outcome.ok and outcome.rows == 2
    assert 0 < outcome.max_rel_err < 1e-11


def test_checker_rejects_perturbed_csv_value():
    checker, inv = _pi_checker()
    outcome = checker.check(inv, 0, _pi_csv("3.25976809306"))
    assert not outcome.ok and "pi_p at p=3.0" in outcome.error


def test_checker_rejects_malformed_csv():
    with pytest.raises(CheckError):
        parse_csv_table("p,pi_p\n2,3.141592653589793\n", ("p", "pi_p"))  # 16 digits
    with pytest.raises(CheckError):
        parse_csv_table("p,pi_p\n2,inf\n", ("p", "pi_p"))
    with pytest.raises(CheckError):
        parse_csv_table("p,pi_p\r\n2,3\r\n", ("p", "pi_p"))


def test_checker_rejects_wrong_exit_status():
    checker, inv = _pi_checker()
    outcome = checker.check(inv, 1, _pi_csv())
    assert not outcome.ok and "exit status 1" in outcome.error


def test_checker_rejects_infinity_token():
    with pytest.raises(CheckError, match="Infinity"):
        strict_json('{"p": Infinity}')
    with pytest.raises(CheckError, match="NaN"):
        strict_json('[NaN]')
    with pytest.raises(CheckError, match="duplicate"):
        strict_json('{"a": 1, "a": 2}')
    inv = workloads._verify(math.inf)
    outcome = Checker(ReferenceTable(None)).check(inv, 0, '{"results": [{"p": Infinity}]}')
    assert not outcome.ok and inv.known_defect in outcome.error


def test_reference_matches_closed_forms():
    assert reference.pi_ref(2) == pytest.approx(math.pi, rel=1e-15)
    # pi_p = pi_q for conjugate exponents 1/p + 1/q = 1
    assert reference.pi_ref(Fraction(3, 2)) == pytest.approx(reference.pi_ref(3), rel=1e-15)
    assert reference.pi_ref(Fraction(1001, 1000)) == pytest.approx(reference.pi_ref(1001), rel=1e-15)
    crit = reference.critical_ref(2)
    assert crit["cost"] == pytest.approx(1 + math.sqrt(3) + 2 * math.pi / 3, rel=1e-15)
    assert crit["gamma"] == pytest.approx(math.sqrt(3), rel=1e-15)


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
    empty = {"calls": {}, "errors": {}, "self_s": {}, "incl_s": {}, "within": {}, "bytes": {}, "cache_entries": 0}
    layer = tracer.layer_metrics(empty, 1)
    layer["trace.overhead_ratio"] = (0.0, "ratio")
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [(k, u) for k, (_, u) in layer.items()]
    recs = [
        {"key": (0, i), "wall_s": 1.0, "rss_mb": 20.0, "ok": True, "rows": 3, "max_rel_err": 1e-12}
        for i in range(2)
    ]
    e2e = run.end_to_end(recs, 0.1)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
