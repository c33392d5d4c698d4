import json

import pytest

from ottolab import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(csv_text):
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def cell(header, row, name):
    value = row[header.index(name)]
    return None if value == "" else float(value)


class TestSweep:
    def test_row_count_and_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--device", "engine", "--regime", "sc",
            "--start", "0.1", "--stop", "0.9", "--steps", "9",
            "--quantity", "eta_omega",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 10
        assert lines[0] == "eta_c,eta_omega_sc"

    def test_spot_value_at_half(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--device", "engine", "--regime", "sc",
            "--start", "0.1", "--stop", "0.9", "--steps", "9",
            "--quantity", "eta_omega",
        )
        header, rows = rows_of(out)
        row = next(r for r in rows if abs(float(r[0]) - 0.5) < 1e-12)
        assert cell(header, row, "eta_omega_sc") == pytest.approx(0.1780, abs=2e-4)

    def test_fridge_se_empty_below_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--device", "fridge", "--regime", "se",
            "--start", "0.5", "--stop", "2.0", "--steps", "4",
            "--quantity", "cop_omega",
        )
        assert code == 0
        header, rows = rows_of(out)
        values = [cell(header, row, "cop_omega_se") for row in rows]
        assert values[0] is None and values[1] is None
        assert values[2] is not None and values[3] is not None

    def test_axis_mismatch_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--device", "engine", "--axis", "zeta_c",
            "--start", "0.1", "--stop", "0.9", "--steps", "5",
        )
        assert code == 1
        assert "axis" in err

    def test_unknown_quantity_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--device", "engine", "--start", "0.1",
            "--stop", "0.9", "--steps", "5", "--quantity", "cop_omega",
        )
        assert code == 1
        assert "cop_omega" in err

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--device", "engine", "--start", "0.9",
            "--stop", "0.1", "--steps", "5",
        )
        assert code == 1


class TestFigure:
    def test_fig2_layout_and_orderings(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "--id", "fig2")
        assert code == 0
        header, rows = rows_of(out)
        assert header == [
            "eta_c", "eta_omega_sc", "eta_omega_se", "eta_mw_sc", "eta_mw_se",
            "eta_omega_adi", "eta_omega_ss", "delta_sc", "delta_se",
        ]
        assert len(rows) == 181
        for row in rows:
            adi = cell(header, row, "eta_omega_adi")
            sc = cell(header, row, "eta_omega_sc")
            se = cell(header, row, "eta_omega_se")
            ss = cell(header, row, "eta_omega_ss")
            assert adi > sc > se > ss
            assert cell(header, row, "delta_sc") > 0.0
            assert cell(header, row, "delta_se") > 0.0

    def test_fig4_spot_row(self, capsys):
        _, out, _ = run_cli(capsys, "figure", "--id", "fig4")
        header, rows = rows_of(out)
        row = next(r for r in rows if abs(float(r[0]) - 0.5) < 1e-9)
        r_mw_sc = cell(header, row, "r_mw_sc")
        r_mw_se = cell(header, row, "r_mw_se")
        assert r_mw_sc == pytest.approx(1.9702, abs=2e-4)
        assert r_mw_se == pytest.approx(2.3604, abs=2e-4)
        assert r_mw_se > r_mw_sc

    def test_fig6_spot_row_and_gaps(self, capsys):
        _, out, _ = run_cli(capsys, "figure", "--id", "fig6")
        header, rows = rows_of(out)
        row = next(r for r in rows if abs(float(r[0]) - 3.0) < 1e-9)
        assert cell(header, row, "cop_omega_adi") == pytest.approx(2.0379, abs=2e-4)
        assert cell(header, row, "cop_omega_sc") == pytest.approx(0.5010, abs=2e-4)
        assert cell(header, row, "cop_omega_se") == pytest.approx(0.3300, abs=2e-4)
        assert cell(header, row, "cop_omega_ss") == pytest.approx(0.1733, abs=2e-4)
        below = next(r for r in rows if abs(float(r[0]) - 0.5) < 1e-9)
        assert cell(header, below, "cop_omega_se") is None
        assert cell(header, below, "cop_omega_ss") is None
        assert cell(header, below, "cop_omega_sc") is not None

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "figure", "--id", "fig2")
        _, second, _ = run_cli(capsys, "figure", "--id", "fig2")
        assert first == second

    def test_too_few_steps_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "figure", "--id", "fig2", "--steps", "10")
        assert code == 1
        assert "steps" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "fig6.csv"
        code, out, _ = run_cli(capsys, "figure", "--id", "fig6", "--out", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("zeta_c,")
        assert "\r" not in text


class TestPoint:
    def test_engine_payload(self, capsys):
        code, out, _ = run_cli(capsys, "point", "engine", "sc", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["eta_omega"] == pytest.approx(0.1780, abs=2e-4)
        assert payload["eta_mw"] == pytest.approx(0.1683, abs=2e-4)
        assert payload["eta_max"] == pytest.approx(0.1822, abs=2e-4)
        assert payload["z_star_omega"] == pytest.approx(0.76883, abs=1e-5)
        assert payload["trace_z_opt"] == payload["z_star_omega"]
        assert payload["omega_value"] > 0.0

    def test_engine_boundary_ratio_included(self, capsys):
        code, out, _ = run_cli(capsys, "point", "engine", "sc", "0.5", "--z", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] == 0.0
        assert payload["w"] == 0.0

    def test_fridge_payload(self, capsys):
        code, out, _ = run_cli(capsys, "point", "fridge", "se", "3.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["cop_omega"] == pytest.approx(0.3300, abs=2e-4)
        assert payload["cop_max"] == pytest.approx(0.3892, abs=2e-4)

    def test_fridge_se_at_unit_cop_is_structured_error(self, capsys):
        code, out, _ = run_cli(capsys, "point", "fridge", "se", "1.0")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "infeasible_device"

    def test_engine_out_of_domain_value(self, capsys):
        code, out, _ = run_cli(capsys, "point", "engine", "sc", "1.5")
        assert code == 2
        assert json.loads(out)["error"] == "domain"

    @pytest.mark.parametrize("regime,value", [("ss", "nan"), ("adi", "inf"), ("sc", "1e300")])
    def test_fridge_unusable_zeta_is_structured_error(self, capsys, regime, value):
        code, out, _ = run_cli(capsys, "point", "fridge", regime, value)
        assert code == 2
        assert json.loads(out)["error"] == "domain"

    def test_infeasible_z_is_domain_error(self, capsys):
        code, out, _ = run_cli(capsys, "point", "engine", "sc", "0.5", "--z", "0.2")
        assert code == 2
        assert json.loads(out)["error"] == "domain"


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) >= 26
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "worst=" in lines[0]

    def test_unreachable_tolerance_reports_failures(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--tol-omega", "1e-15")
        assert code == 3
        assert any(line.startswith("FAIL") for line in out.split("\n"))


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 1
