import argparse
import ast
import csv
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from lpevac.cli import (
    MAX_GRID,
    MAX_STEPS,
    UsageError,
    _at_most,
    _grid,
    build_parser,
    cmd_cost,
    cmd_lchord,
    cmd_pi,
    cmd_profile,
    cmd_sigma,
    cmd_simulate,
    cmd_verify,
    main,
    parse_angle,
    parse_p,
)
from lpevac.chord_arc import _uniform, tangential_chord_profile
from lpevac.evacuation import AlgoParams, separation
from lpevac.lp_geometry import QUARTER_PI, DomainError, _chart, half_perimeter, unit_circle_point
from lpevac.tables import CurveTable, quantize


def _exit_code(argv):
    # main's return value, or the code argparse exits with on a bad value
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def _read_table(text, fmt):
    """Read a table command's output as its format promises.  CSV: '# key=value'
    metadata lines first, then one header, then rows of the header's arity
    whose cells are unchanged when reformatted with 12 significant digits.
    JSON: RFC 8259 (no NaN or Infinity), metadata, columns and one list per
    column, every value a float unchanged by that rounding."""
    if fmt == "json":
        doc = json.loads(text, parse_constant=_reject_constant)
        assert list(doc) == ["metadata", "columns", "data"]
        assert list(doc["data"]) == doc["columns"]
        series = list(doc["data"].values())
        assert all(len(column) == len(series[0]) for column in series)
        metadata, header, rows = doc["metadata"], doc["columns"], list(zip(*series))
        assert all(type(v) is float and quantize(v) == v for row in rows for v in row)
    else:
        assert text.endswith("\n") and "\r" not in text
        lines = text[:-1].split("\n")
        n_meta = next(i for i, line in enumerate(lines) if not line.startswith("# "))
        metadata = dict(line[2:].split("=", 1) for line in lines[:n_meta])
        header, *cells = csv.reader(lines[n_meta:], quoting=csv.QUOTE_NONE, strict=True)
        assert all(f"{float(c):.12g}" == c for row in cells for c in row)
        rows = [tuple(float(c) for c in row) for row in cells]
        assert all(math.isfinite(v) for row in rows for v in row)
    assert all(len(row) == len(header) for row in rows)
    return CurveTable(tuple(header), rows, metadata)


LIMITS = {"--steps": MAX_STEPS, "--grid": MAX_GRID}


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", math.pi),
            ("pi/2", math.pi / 2),
            ("pi/4", math.pi / 4),
            ("2pi/3", 2 * math.pi / 3),
            ("5pi/4", 5 * math.pi / 4),
            ("-pi/2", -math.pi / 2),
            ("0.75", 0.75),
            ("0", 0.0),
        ],
    )
    def test_angles(self, text, expected):
        assert parse_angle(text) == expected

    def test_p_inf(self):
        assert parse_p("inf") == math.inf

    @pytest.mark.parametrize("limit", [MAX_STEPS, MAX_GRID])
    def test_size_limit_is_inclusive(self, limit):
        assert _at_most(limit)(str(limit)) == limit
        with pytest.raises(UsageError, match=f"must be at most {limit}, got {limit + 1}"):
            _at_most(limit)(str(limit + 1))

    def test_p_rejects_below_one(self):
        with pytest.raises(UsageError):
            parse_p("0.5")
        with pytest.raises(UsageError):
            parse_angle("one half")


class TestQuantize:
    def test_idempotent(self):
        x = math.pi
        q = quantize(x)
        assert quantize(q) == q
        assert float(f"{q:.12g}") == q


class TestTables:
    def test_csv_round_trip(self):
        t = cmd_pi(1.0, 3.0, 5)
        assert _read_table(t.to_csv(), "csv") == t

    def test_json_round_trip(self):
        t = cmd_pi(1.0, 2.0, 3)
        assert _read_table(t.to_json(), "json") == t

    @pytest.mark.parametrize(
        "text,fmt",
        [
            ("# command=pi\n\np,pi_p\n1,4\n", "csv"),  # blank line
            ("#command=pi\np,pi_p\n1,4\n", "csv"),  # no space after '#'
            ("p,pi_p\n# command=pi\n1,4\n", "csv"),  # metadata after the header
            ("p,pi_p\n1,4,5\n", "csv"),  # arity
            ("p,pi_p\n1.0,4\n", "csv"),  # not the 12-digit form
            ('p,pi_p\n"1",4\n', "csv"),  # quoted cell
            ("p,pi_p\n1,nan\n", "csv"),
            ("p,pi_p\n1,4", "csv"),  # no final newline
            ('{"metadata": {}, "columns": ["p"], "data": {"p": [NaN]}}', "json"),
            ('{"metadata": {}, "columns": ["p"], "data": {"p": [Infinity]}}', "json"),
            ('{"metadata": {}, "columns": ["p"], "data": {"p": [1]}}', "json"),  # int
            ('{"metadata": {}, "columns": ["p"], "data": {"p": [0.1234567890123]}}', "json"),
            ('{"metadata": {}, "columns": ["p", "q"], "data": {"p": [1.0], "q": []}}', "json"),
        ],
    )
    def test_reader_rejects_what_the_format_does_not_promise(self, text, fmt):
        with pytest.raises((AssertionError, ValueError)):
            _read_table(text, fmt)

    def test_regeneration_bit_identical(self):
        a = cmd_cost(1.2, 2.0, 4).to_csv()
        b = cmd_cost(1.2, 2.0, 4).to_csv()
        assert a == b

    def test_row_arity_checked(self):
        with pytest.raises(ValueError):
            CurveTable.build(("a", "b"), [(1.0,)], {})


# Each table command at a given p: its argv (q = 2p) and the table it must write
TABLE_COMMANDS = {
    "pi": ("pi {p} {q} --steps 3", lambda p: cmd_pi(p, 2 * p, 3)),
    "cost": ("cost {p} {q} --steps 2", lambda p: cmd_cost(p, 2 * p, 2)),
    "profile-0": ("profile {p} --phi 0 --steps 9", lambda p: cmd_profile(p, 0.0, 9)),
    "profile-pi/4": (
        "profile {p} --phi pi/4 --steps 9",
        lambda p: cmd_profile(p, math.pi / 4, 9),
    ),
    "sigma": ("sigma {p} --steps 9", lambda p: cmd_sigma(p, 9)),
    "lchord": ("lchord {p} --steps 9", lambda p: cmd_lchord(p, 9)),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 1e17])
@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_table_output_reads_strictly(command, p, fmt, capsys):
    template, build = TABLE_COMMANDS[command]
    argv = template.format(p=p, q=2 * p).split() + ["--format", fmt]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    table = build(p)
    read = _read_table(outputs[0], fmt)
    assert read.metadata["command"] == argv[0]
    assert read == table  # header, metadata and every row


class TestCmdPi:
    def test_single_point_at_one(self):
        t = cmd_pi(1.0, 1.0, 1)
        assert t.rows == [(1.0, 4.0)]

    def test_includes_euclidean(self):
        t = cmd_pi(1.0, 3.0, 5)
        row = dict(zip(t.column("p"), t.column("pi_p")))
        assert row[2.0] == pytest.approx(math.pi, abs=1e-9)

    def test_every_printed_digit_below_two(self):
        # Each 12-digit row equals the rounded mpmath pi_p; at p = 1.03125 the
        # quadrature once printed 3.91690563642 for 3.91690563641.
        fixture = json.loads((Path(__file__).parent / "data" / "reference.json").read_text())
        expected = [(quantize(p), quantize(pi)) for p, pi in fixture["pi_grid"]]
        assert cmd_pi(1.0, 2.0, 33).rows == expected

    def test_minimum_at_two(self):
        t = cmd_pi(1.2, 4.0, 29)
        ps = t.column("p")
        vals = t.column("pi_p")
        assert ps[vals.index(min(vals))] == pytest.approx(2.0, abs=0.11)

    def test_bad_range(self):
        with pytest.raises(UsageError):
            cmd_pi(3.0, 1.0, 5)
        with pytest.raises(UsageError):
            cmd_pi(1.0, 2.0, 1)
        with pytest.raises(UsageError):
            cmd_pi(2.0, 2.0, 0)


class TestCmdCost:
    def test_euclidean_row(self):
        t = cmd_cost(2.0, 2.0, 1)
        row = dict(zip(t.columns, t.rows[0]))
        assert row["upper_cost"] == pytest.approx(4.826445909962067, abs=1e-5)
        assert row["explored_fraction"] == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert abs(row["gap"]) <= 1e-4


class TestCmdProfile:
    def test_l1_plateau(self):
        t = cmd_profile(1.0, 0.0, 33)
        for tau, _, cost in t.rows:
            if 2.0 <= tau <= 4.0:
                assert cost == pytest.approx(5.0, abs=1e-9)
        assert t.rows[0][2] == pytest.approx(1.0, abs=1e-12)

    def test_euclidean_max(self):
        t = cmd_profile(2.0, 0.0, 257)
        assert max(t.column("evac_time")) == pytest.approx(4.826445909962067, abs=1e-4)

    def test_any_phi_in_range(self):
        hp = 4.0 * _chart(2.0).eighth
        h = hp / 15
        taus = [i * h for i in range(15)] + [hp]
        expected = [quantize(separation(AlgoParams(2.0, 0.3), tau)) for tau in taus]
        assert cmd_profile(2.0, 0.3, 16).column("delta") == expected

    def test_rejects_other_phi(self):
        with pytest.raises(DomainError, match="deployment angle must lie in"):
            cmd_profile(2.0, 1.0, 16)

    @pytest.mark.parametrize("p", [1.0, 1.001, 1.5, 2.0, 3.0, 45.0, math.inf])
    @pytest.mark.parametrize(
        "phi", [0.0, QUARTER_PI / 2, QUARTER_PI], ids=["0", "pi/8", "pi/4"]
    )
    def test_robots_meet_at_the_last_row(self, p, phi):
        # tau runs to the chart's pi_p, the arc length the robots are placed
        # by; the quadrature pi_p differs from it by up to 1e-13, and
        # pi_p * i / (steps - 1) at i = steps - 1 misses it by an ulp for
        # some steps
        pi_p = quantize(4.0 * _chart(p).eighth)
        for steps in range(2, 65):
            tau, delta, _ = cmd_profile(p, phi, steps).rows[-1]
            assert (steps, tau, delta) == (steps, pi_p, 0.0)

    @pytest.mark.parametrize("n", [2, 3, 9, 512])
    def test_grid_is_the_chord_layers_uniform_grid(self, n):
        # profile samples tau, and min_chord_curve and tangential_chord_profile
        # their arguments, by one rule kept in two modules
        for hi in (4.0 * _chart(1.5).eighth, 4.0 * _chart(45.0).eighth, QUARTER_PI):
            assert [x.hex() for x in _uniform(n, hi)] == [x.hex() for x in _grid(0.0, hi, n)]


class TestCmdSigma:
    def test_euclidean_constant(self):
        t = cmd_sigma(2.0, 65)
        vals = t.column("sigma")
        assert max(vals) - min(vals) <= 1e-6
        assert vals[0] == pytest.approx(math.sqrt(3.0), abs=1e-6)

    def test_directions(self):
        inc = cmd_sigma(1.5, 65).column("sigma")
        assert all(a <= b + 1e-9 for a, b in zip(inc, inc[1:]))
        dec = cmd_sigma(3.0, 65).column("sigma")
        assert all(a >= b - 1e-9 for a, b in zip(dec, dec[1:]))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_arc_len_option(self, fmt, capsys):
        argv = ["sigma", "3", "--arc-len", "2.5", "--steps", "9", "--format", fmt]
        assert main(argv) == 0
        table = _read_table(capsys.readouterr().out, fmt)
        expected = [(quantize(t), quantize(s)) for t, s in tangential_chord_profile(3, 2.5, 9)]
        assert table.rows == expected
        assert table.metadata["arc_len"] == "2.5"

    @pytest.mark.parametrize("arc_len", ["0", "nan"])
    def test_arc_len_outside_the_circle_exit_two(self, arc_len, capsys):
        assert main(["sigma", "3", "--arc-len", arc_len, "--steps", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"error: arc length {float(arc_len)} outside (0, 2*pi_p)"
        ]


class TestCmdLchord:
    def test_euclidean_curve(self):
        t = cmd_lchord(2.0, 17)
        for u, val in t.rows:
            assert val == pytest.approx(2.0 * math.sin(u / 2.0), abs=1e-6)

    @pytest.mark.parametrize("p", [1.001, 1.5, 3.0, 45.0])
    def test_arc_lengths_reach_chart_pi_p(self, p):
        # the u column runs to the chart's pi_p = 4E, which agrees with the
        # quadrature pi_p far below the table's 12 digits for p <= 45
        chart_pi_p = 4.0 * _chart(p).eighth
        assert chart_pi_p == pytest.approx(half_perimeter(p), rel=0.0, abs=1e-12)
        us = cmd_lchord(p, 9).column("u")
        assert us == [quantize(chart_pi_p * j / 8) for j in range(9)]


class TestCmdVerify:
    def test_passes_for_good_p(self):
        code, report = cmd_verify([1.5, 3.0], grid=96)
        assert code == 0 and report["passed"]
        meta = report["metadata"]
        assert (meta["tol"], meta["gap_tol"], meta["chord_tol"]) == ("1e-09", "0.0001", "1e-05")

    def test_euclidean_near_constant_profile(self):
        code, report = cmd_verify([2.0], grid=96)
        assert code == 0
        checks = {c["name"]: c for c in report["results"][0]["checks"]}
        assert checks["tangential_chord_monotone"]["passed"]
        assert checks["tangential_chord_monotone"]["max_violation"] <= 1e-6

    def test_euclidean_profile_checked_at_common_tolerance(self):
        # p = 2 gets the same tolerance as every other p; its profile's
        # range is rounding (7.5e-15 at grid 256)
        code, report = cmd_verify([2.0], 256)
        assert code == 0
        checks = {c["name"]: c for c in report["results"][0]["checks"]}
        check = checks["tangential_chord_monotone"]
        assert check["tolerance"] == 1e-9 and check["passed"]

    def test_impossible_tolerance_fails(self, monkeypatch):
        # The thresholds are fixed, so widen the gap past its threshold.
        import lpevac.lower_bound as lower_bound

        report_gap = lower_bound.optimality_report
        monkeypatch.setattr(
            lower_bound,
            "optimality_report",
            lambda p: report_gap(p)._replace(gap=1e-3),
        )
        code, report = cmd_verify([1.5], grid=96)
        assert code == 1 and not report["passed"]
        failed = [c["name"] for c in report["results"][0]["checks"] if not c["passed"]]
        assert failed == ["optimality_gap"]

    def test_empty_list_is_usage_error(self):
        with pytest.raises(UsageError):
            cmd_verify([])


class TestCmdSimulate:
    def test_known_cost_six(self):
        doc = cmd_simulate(1.0, math.pi / 4, math.pi)
        assert doc["total_cost"] == pytest.approx(6.0, abs=1e-9)

    def test_exit_at_deployment(self):
        doc = cmd_simulate(3.0, 0.0, 0.0)
        assert doc["total_cost"] == pytest.approx(1.0, abs=1e-9)

    def test_square_plateau(self):
        doc = cmd_simulate(math.inf, math.pi / 4, 5 * math.pi / 4)
        assert doc["total_cost"] == pytest.approx(5.0, abs=1e-9)

    def test_exit_angle_above_two_pi_is_reduced(self):
        # exit_phi is the angle reduced mod 2 pi, and exit its point of C_p
        doc = cmd_simulate(1.5, math.pi / 8, 7 * math.pi / 3)
        assert doc["exit_phi"] == pytest.approx(math.pi / 3, abs=1e-15)
        assert doc["exit"] == list(unit_circle_point(1.5, doc["exit_phi"]).point)


def _verify_poisoned_fails_with_nan(p, check, target, where, bad, monkeypatch, capsys):
    # verify with chord_arc's target wrapped to put bad at index where of
    # each list of chords (or of (theta, chord) pairs) it returns: the
    # check fails, writes "nan" as its violation, and the JSON stays strict
    import lpevac.chord_arc as chord_arc

    original = getattr(chord_arc, target)

    def poisoned(*args):
        values = original(*args)
        if target == "_lattice_chords":
            values[where] = bad
        else:
            values[where] = (values[where][0], bad)
        return values

    monkeypatch.setattr(chord_arc, target, poisoned)
    assert main(["verify", p, "--grid", "64"]) == 1
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    failed = doc["results"][0]["checks"][check]
    assert failed["max_violation"] == "nan" and failed["passed"] is False
    assert doc["passed"] is False


class TestMainEntry:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "lpevac" in capsys.readouterr().out

    def test_pi_csv_stdout(self, capsys):
        assert main(["pi", "1", "2", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        table = _read_table(out, "csv")
        assert table.column("p") == [1.0, 1.5, 2.0]
        assert table.metadata["command"] == "pi"

    def test_json_format(self, capsys):
        assert main(["pi", "1", "2", "--steps", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"] == ["p", "pi_p"]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "pi.csv"
        assert main(["pi", "1", "2", "--steps", "3", "--out", str(target)]) == 0
        assert _read_table(target.read_text(), "csv").column("p") == [1.0, 1.5, 2.0]

    @pytest.mark.parametrize("argv", [["verify", "2", "--grid", "64"], ["pi", "2", "3", "--steps", "2"]])
    def test_unwritable_out_is_usage_error(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "missing" / "x")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write")
        assert captured.err.count("\n") == 1

    def test_params_inf(self, capsys):
        assert main(["params", "inf"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p"] == "inf"
        assert doc["worst_case_cost"] == 5.0

    def test_simulate_angle_literals(self, capsys):
        assert main(["simulate", "1", "pi/4", "pi"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_cost"] == pytest.approx(6.0, abs=1e-9)

    def test_verify_exit_codes(self, monkeypatch, capsys):
        assert main(["verify", "1.5", "--grid", "96"]) == 0
        capsys.readouterr()
        # lower_bound binds min_chord on import; only verify's chord check
        # reads the patched one.
        import lpevac.chord_arc as chord_arc
        import lpevac.lower_bound

        chord = chord_arc.min_chord
        monkeypatch.setattr(chord_arc, "min_chord", lambda p, u: chord(p, u) + 1e-3)
        assert main(["verify", "1.5", "--grid", "96"]) == 1
        doc = json.loads(capsys.readouterr().out)
        failed = [c["name"] for c in doc["results"][0]["checks"] if not c["passed"]]
        assert doc["passed"] is False
        assert failed == ["min_chord_equals_critical_separation"]

    def test_verify_inf_is_strict_json(self, capsys):
        assert main(["verify", "inf", "--grid", "64"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert doc["results"][0]["p"] == "inf"
        assert doc["passed"] is True

    # above p = ln 2 * 2^54, about 1.25e16, the fold 2^(-1/p) rounds to 1
    @pytest.mark.parametrize("p", ["1.3e16", "1e17"])
    @pytest.mark.parametrize(
        "command",
        ["cost {p} {p}", "profile {p} --steps 9", "sigma {p} --steps 9", "lchord {p} --steps 9"],
        ids=lambda command: command.split()[0],
    )
    def test_p_beyond_fold_rounding_writes_finite_csv(self, command, p, capsys):
        assert main(command.format(p=p).split()) == 0
        table = _read_table(capsys.readouterr().out, "csv")
        assert table.rows and all(math.isfinite(v) for row in table.rows for v in row)

    @pytest.mark.parametrize("p", ["1.3e16", "1e17"])
    @pytest.mark.parametrize(
        "command",
        ["simulate {p} 0 pi", "verify {p} --grid 64"],
        ids=lambda command: command.split()[0],
    )
    def test_p_beyond_fold_rounding_writes_strict_json(self, command, p, capsys):
        assert main(command.format(p=p).split()) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        if command.startswith("verify"):
            checks = doc["results"][0]["checks"]
            assert len(checks) == 4 and all(c["passed"] for c in checks)
        else:
            assert doc["total_cost"] == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize(
        "p,check,target",
        [
            ("3", 0, "_lattice_chords"),
            ("2", 1, "tangential_chord_profile"),
            ("1.5", 1, "tangential_chord_profile"),
        ],
    )
    def test_verify_nan_violation_fails_as_strict_json(
        self, p, check, target, monkeypatch, capsys
    ):
        _verify_poisoned_fails_with_nan(p, check, target, 1, math.nan, monkeypatch, capsys)

    # an infinite chord at the end of its row in the direction checked (the
    # last chord for p < 2, the first for p > 2) leaves no finite drop
    @pytest.mark.parametrize(
        "p,check,target,where",
        [
            ("1.5", 0, "_lattice_chords", -1),
            ("3", 0, "_lattice_chords", 0),
            ("1.5", 1, "tangential_chord_profile", -1),
            ("3", 1, "tangential_chord_profile", 0),
        ],
    )
    def test_verify_infinite_chord_fails_as_strict_json(
        self, p, check, target, where, monkeypatch, capsys
    ):
        _verify_poisoned_fails_with_nan(p, check, target, where, math.inf, monkeypatch, capsys)

    def test_verify_large_p_passes_silently(self, capsys):
        assert main(["verify", "100", "--grid", "64"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["passed"] is True

    @pytest.mark.parametrize(
        "angle",
        ["nan", "inf", "-inf", "pi/0", "0pi/0", "pi/0.0", "1" * 400 + "pi"],
        ids=lambda angle: angle if len(angle) < 10 else "400-digit-pi",
    )
    def test_simulate_non_finite_angle_exit_two(self, angle, capsys):
        assert _exit_code(["simulate", "2", "0", angle]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["simulate", "2", "0", "nan"], "angle must be finite"),
            (["simulate", "2", "0", "--", "-inf"], "angle must be finite"),
            (["simulate", "2", "0", "pi/0"], "angle must be finite"),
            (["pi", "2", "3", "--steps", "abc"], "argument --steps: invalid int value: 'abc'"),
            (["profile", "2", "--phi=pi/0"], "argument --phi: angle must be finite"),
        ],
    )
    def test_bad_value_reports_its_message(self, argv, message, capsys):
        assert _exit_code(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pi", "2", "3", "--steps"],
            ["cost", "2", "3", "--steps"],
            ["profile", "2", "--steps"],
            ["sigma", "2", "--steps"],
            ["lchord", "2", "--steps"],
            ["verify", "2", "--grid"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_size_above_limit_is_usage_error(self, argv, capsys):
        assert _exit_code(argv + [str(10**20)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = [line for line in captured.err.splitlines() if "error:" in line]
        assert line.endswith(f"argument {argv[-1]}: must be at most {LIMITS[argv[-1]]}, got {10**20}")

    def test_negative_angle_after_separator(self, capsys):
        assert main(["simulate", "2", "0", "--", "-pi/4"]) == 0
        negative = capsys.readouterr().out
        assert main(["simulate", "2", "0", "7pi/4"]) == 0
        assert capsys.readouterr().out == negative

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("flag", ["--tol", "--gap-tol", "--chord-tol"])
    def test_verify_rejects_bad_tolerance(self, flag, value, capsys):
        # verify's thresholds are fixed: no tolerance option exists
        assert _exit_code(["verify", "2", "--grid", "64", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {flag} {value}" in captured.err

    def test_usage_error_exit_two(self, capsys):
        assert main(["pi", "3", "1"]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["verify"])  # missing p list
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["pi", "0.2", "1"])  # p below 1 rejected by the parser
        assert exc.value.code == 2


# Modules that a command must not import: dataclasses brings in inspect, ast,
# dis and tokenize, which together were about 22 ms (40%) of importing
# lpevac.cli on a 2-vCPU host.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json")
SRC = Path(__file__).resolve().parent.parent / "src"


# The package modules each command runs, besides lpevac and lpevac.cli, in
# import-dependency order (tables depends on none of them).
LIBRARY = ("numerics", "lp_geometry", "evacuation", "chord_arc", "lower_bound", "tables")
COMMAND_MODULES = [
    (["--version"], ()),
    (["--help"], ()),
    (["pi", "2", "3", "--steps", "3"], ("numerics", "lp_geometry", "tables")),
    (["cost", "2", "3", "--steps", "2"], LIBRARY),
    (["verify", "2", "--grid", "64"], LIBRARY[:5]),
    (["simulate", "2", "0", "pi"], LIBRARY[:3]),
    (["params", "2"], LIBRARY[:5]),
    (["profile", "2", "--steps", "3"], LIBRARY[:3] + ("tables",)),
    (["sigma", "2", "--steps", "3"], LIBRARY[:4] + ("tables",)),
    (["lchord", "2", "--steps", "3"], LIBRARY[:4] + ("tables",)),
]


def _cold_start(argv):
    """Import lpevac.cli, build the parser and run ``main(argv)`` in a fresh
    interpreter.  Returns the lines the command wrote to stdout, and
    (after_import, exit code, at_end), where after_import and at_end are
    (the lpevac modules, the HEAVY_MODULES) loaded at those points."""
    # -S: no site module, so nothing the interpreter's site set-up preloads
    # hides or adds a module
    code = f"""
import sys
sys.path.insert(0, {str(SRC)!r})

def loaded():
    return (
        sorted(m for m in sys.modules if m.partition(".")[0] == "lpevac"),
        [m for m in {HEAVY_MODULES!r} if m in sys.modules],
    )

import lpevac.cli
lpevac.cli.build_parser()
after_import = loaded()
try:
    code = lpevac.cli.main({argv!r})
except SystemExit as exc:
    code = exc.code
print(repr((after_import, code, loaded())))
"""
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    *out, last = done.stdout.splitlines()
    return out, ast.literal_eval(last)


def test_cold_start_imports():
    table, (after_import, code, at_end) = _cold_start(["pi", "2", "3", "--steps", "3"])
    assert after_import == (["lpevac", "lpevac.cli"], [])
    assert table[-4:-2] == ["p,pi_p", "2,3.14159265359"] and len(table[-2:]) == 2
    assert code == 0
    modules = ["lpevac", "lpevac.cli", "lpevac.lp_geometry", "lpevac.numerics", "lpevac.tables"]
    assert at_end == (modules, [])


@pytest.mark.parametrize(
    "argv,modules", [pytest.param(*case, id=case[0][0]) for case in COMMAND_MODULES]
)
def test_command_imports_only_its_modules(argv, modules):
    _, (_, code, (loaded, _)) = _cold_start(argv)
    assert code == 0
    assert loaded == sorted(["lpevac", "lpevac.cli"] + [f"lpevac.{m}" for m in modules])


def test_compare_cli_runs_every_subcommand():
    # tools/compare_cli.py checks two source trees for byte-identical output
    # over its argv list; each argv parses, and together they reach every
    # subcommand (parsing imports no library module and starts no process)
    path = Path(__file__).resolve().parent.parent / "tools" / "compare_cli.py"
    spec = importlib.util.spec_from_file_location("compare_cli", path)
    compare_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_cli)
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {parser.parse_args(argv).command for argv in compare_cli.ARGVS} == set(sub.choices)
    assert len(compare_cli.ARGVS) == len({tuple(argv) for argv in compare_cli.ARGVS}) == 91
