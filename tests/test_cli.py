import ast
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from lpevac.cli import (
    UsageError,
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
from lpevac.lp_geometry import _chart, half_perimeter
from lpevac.tables import CurveTable, quantize


def _exit_code(argv):
    # main's return value, or the code argparse exits with on a bad value
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
        back = CurveTable.from_csv(t.to_csv())
        assert back == t

    def test_json_round_trip(self):
        t = cmd_pi(1.0, 2.0, 3)
        back = CurveTable.from_json(t.to_json())
        assert back == t

    def test_regeneration_bit_identical(self):
        a = cmd_cost(1.2, 2.0, 4).to_csv()
        b = cmd_cost(1.2, 2.0, 4).to_csv()
        assert a == b

    def test_row_arity_checked(self):
        with pytest.raises(ValueError):
            CurveTable.build(("a", "b"), [(1.0,)], {})


class TestCmdPi:
    def test_single_point_at_one(self):
        t = cmd_pi(1.0, 1.0, 1)
        assert t.rows == [(1.0, 4.0)]

    def test_includes_euclidean(self):
        t = cmd_pi(1.0, 3.0, 5)
        row = dict(zip(t.column("p"), t.column("pi_p")))
        assert row[2.0] == pytest.approx(math.pi, abs=1e-9)

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

    def test_rejects_other_phi(self):
        with pytest.raises(UsageError):
            cmd_profile(2.0, 0.3, 16)


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

    def test_impossible_tolerance_fails(self):
        code, report = cmd_verify([1.5], grid=96, gap_tol=1e-18)
        assert code == 1 and not report["passed"]

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


class TestMainEntry:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "lpevac" in capsys.readouterr().out

    def test_pi_csv_stdout(self, capsys):
        assert main(["pi", "1", "2", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        table = CurveTable.from_csv(out)
        assert table.column("p") == [1.0, 1.5, 2.0]
        assert table.metadata["command"] == "pi"

    def test_json_format(self, capsys):
        assert main(["pi", "1", "2", "--steps", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"] == ["p", "pi_p"]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "pi.csv"
        assert main(["pi", "1", "2", "--steps", "3", "--out", str(target)]) == 0
        assert CurveTable.from_csv(target.read_text()).column("p") == [1.0, 1.5, 2.0]

    def test_params_inf(self, capsys):
        assert main(["params", "inf"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p"] == "inf"
        assert doc["worst_case_cost"] == 5.0

    def test_simulate_angle_literals(self, capsys):
        assert main(["simulate", "1", "pi/4", "pi"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_cost"] == pytest.approx(6.0, abs=1e-9)

    def test_verify_exit_codes(self, capsys):
        assert main(["verify", "1.5", "--grid", "96"]) == 0
        capsys.readouterr()
        assert main(["verify", "1.5", "--grid", "96", "--gap-tol", "1e-18"]) == 1

    def test_verify_inf_is_strict_json(self, capsys):
        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        assert main(["verify", "inf", "--grid", "64"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
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
        table = CurveTable.from_csv(capsys.readouterr().out)
        assert table.rows and all(math.isfinite(v) for row in table.rows for v in row)

    @pytest.mark.parametrize("p", ["1.3e16", "1e17"])
    @pytest.mark.parametrize(
        "command",
        ["simulate {p} 0 pi", "verify {p} --grid 64"],
        ids=lambda command: command.split()[0],
    )
    def test_p_beyond_fold_rounding_writes_strict_json(self, command, p, capsys):
        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        assert main(command.format(p=p).split()) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
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
        import lpevac.chord_arc as chord_arc

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        original = getattr(chord_arc, target)

        def poisoned(*args):
            values = original(*args)
            if target == "_lattice_chords":
                values[1] = math.nan
            else:
                values[1] = values[1]._replace(chord=math.nan)
            return values

        monkeypatch.setattr(chord_arc, target, poisoned)
        assert main(["verify", p, "--grid", "64"]) == 1
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        failed = doc["results"][0]["checks"][check]
        assert failed["max_violation"] == "nan" and failed["passed"] is False
        assert doc["passed"] is False

    def test_verify_large_p_passes_silently(self, capsys):
        assert main(["verify", "100", "--grid", "64"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["passed"] is True

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_simulate_non_finite_angle_exit_two(self, angle, capsys):
        assert _exit_code(["simulate", "2", "0", angle]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["simulate", "2", "0", "nan"], "angle must be finite"),
            (["simulate", "2", "0", "--", "-inf"], "angle must be finite"),
            (["verify", "2", "--tol", "nan"], "tolerance must be finite"),
        ],
    )
    def test_bad_value_reports_its_message(self, argv, message, capsys):
        assert _exit_code(argv) == 2
        assert message in capsys.readouterr().err

    def test_negative_angle_after_separator(self, capsys):
        assert main(["simulate", "2", "0", "--", "-pi/4"]) == 0
        negative = capsys.readouterr().out
        assert main(["simulate", "2", "0", "7pi/4"]) == 0
        assert capsys.readouterr().out == negative

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("flag", ["--tol", "--gap-tol", "--chord-tol"])
    def test_verify_rejects_bad_tolerance(self, flag, value, capsys):
        assert _exit_code(["verify", "2", "--grid", "64", flag, value]) == 2
        assert capsys.readouterr().out == ""

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


def test_cold_start_imports():
    # -S: no site module, so nothing the interpreter's site set-up preloads
    # hides or adds a module
    code = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
heavy = {HEAVY_MODULES!r}
import lpevac.cli
lpevac.cli.build_parser()
after_import = [m for m in heavy if m in sys.modules]
code = lpevac.cli.main(["pi", "2", "3", "--steps", "3"])
print(repr((after_import, "json" in sys.modules, code)))
"""
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    *table, last = done.stdout.splitlines()
    assert table[-4:-2] == ["p,pi_p", "2,3.14159265359"] and len(table[-2:]) == 2
    assert ast.literal_eval(last) == ([], False, 0)
