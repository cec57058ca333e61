import json
import math
import sys

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

    def test_impossible_tolerance_fails(self):
        code, report = cmd_verify([1.5], grid=96, gap_tol=1e-18)
        assert code == 1 and not report["passed"]

    def test_empty_list_is_usage_error(self):
        with pytest.raises(UsageError):
            cmd_verify([])

    def test_min_chord_computed_once_per_p(self, monkeypatch):
        import lpevac.chord_arc as chord_arc

        calls = []
        original = chord_arc.min_chord

        def counting(p, u):
            calls.append(p)
            return original(p, u)

        holders = [m for name, m in sys.modules.items() if name.startswith("lpevac")]
        for module in holders:  # every module that holds min_chord
            if getattr(module, "min_chord", None) is original:
                monkeypatch.setattr(module, "min_chord", counting)
        code, _ = cmd_verify([3.0], grid=64)
        assert code == 0
        assert calls == [3.0]


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

    def test_verify_large_p_passes_silently(self, capsys):
        assert main(["verify", "100", "--grid", "64"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["passed"] is True

    def test_usage_error_exit_two(self, capsys):
        assert main(["pi", "3", "1"]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["verify"])  # missing p list
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["pi", "0.2", "1"])  # p below 1 rejected by the parser
        assert exc.value.code == 2
