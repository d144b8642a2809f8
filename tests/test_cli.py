"""End-to-end command line runs: every subcommand, exit codes, artifacts."""

from __future__ import annotations

import shutil
import subprocess

import numpy as np
import pytest

from agrivolt.cli import main
from agrivolt.land import LandRaster, write_ascii_grid

EXPECTED_ARTIFACTS = {
    "indicators.csv",
    "hourly_tilt_s6_h2.csv",
    "hourly_vertical_s6_h2.csv",
    "monthly_yield.csv",
    "ground_tilt_s6_h2.csv",
    "ground_tilt_s6_h2.pgm",
    "ground_vertical_s6_h2.csv",
    "ground_vertical_s6_h2.pgm",
    "decision_map.csv",
    "comparisons.csv",
}


class TestSimulate:
    def test_exit_code(self, cli_runs):
        assert cli_runs["first"][0] == 0

    def test_artifact_set(self, cli_runs):
        _, out = cli_runs["first"]
        assert {p.name for p in out.iterdir()} == EXPECTED_ARTIFACTS

    def test_indicators_rows(self, cli_runs):
        _, out = cli_runs["first"]
        lines = (out / "indicators.csv").read_text().splitlines()
        assert len(lines) == 3
        scenarios = {l.split(",")[0] for l in lines[1:]}
        assert scenarios == {"tilt_s6_h2", "vertical_s6_h2"}
        # prices were supplied, so the weighted column is filled
        assert all(l.split(",")[6] != "" for l in lines[1:])

    def test_rerun_byte_identical(self, cli_runs):
        _, first = cli_runs["first"]
        code, rerun = cli_runs["rerun"]
        assert code == 0
        for name in sorted(EXPECTED_ARTIFACTS):
            assert (first / name).read_bytes() == (rerun / name).read_bytes(), name

    def test_worker_count_invisible_in_artifacts(self, cli_runs):
        _, first = cli_runs["first"]
        code, threaded = cli_runs["threads2"]
        assert code == 0
        for name in sorted(EXPECTED_ARTIFACTS):
            assert (first / name).read_bytes() == (threaded / name).read_bytes(), name

    def test_wind_shear_override_changes_production(
        self, cli_config, data_dir, tmp_path, cli_runs
    ):
        out = tmp_path / "shear"
        code = main(
            [
                "simulate",
                "--config", str(cli_config),
                "--weather", str(data_dir / "weather.csv"),
                "--out", str(out),
                "--wind-shear-exponent", "0.2",
            ]
        )
        assert code == 0
        base = (cli_runs["first"][1] / "indicators.csv").read_text().splitlines()
        changed = (out / "indicators.csv").read_text().splitlines()
        base_yield = float(base[1].split(",")[5])
        changed_yield = float(changed[1].split(",")[5])
        # more wind at module height cools the cells and lifts production
        assert changed_yield > base_yield

    def test_bad_config_exits_2(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[meta]\nschema_version = 1\n\n[location]\nlatitude = 56\nlongitude = 9\n\n[sky]\nhaze = 1\n")
        code = main(
            [
                "simulate",
                "--config", str(bad),
                "--weather", str(data_dir / "weather.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_impossible_layout_exits_2(self, data_dir, tmp_path, capsys):
        config = tmp_path / "overlap.ini"
        config.write_text(
            "[meta]\nschema_version = 1\n\n[location]\nlatitude = 56.49\nlongitude = 9.57\n\n"
            "[layout]\nkinds = tilt\nspacings_m = 0.5\nheights_m = 3\n"
        )
        code = main(
            [
                "simulate",
                "--config", str(config),
                "--weather", str(data_dir / "weather.csv"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestDecisionMap:
    def test_writes_only_decision_map(self, cli_config, data_dir, tmp_path, capsys):
        out = tmp_path / "dm"
        code = main(
            [
                "decision-map",
                "--config", str(cli_config),
                "--weather", str(data_dir / "weather.csv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert {p.name for p in out.iterdir()} == {"decision_map.csv"}
        lines = (out / "decision_map.csv").read_text().splitlines()
        assert lines[0].startswith("scenario,kind,s,h,")
        assert len(lines) == 3
        assert "wrote" in capsys.readouterr().out

    def test_same_decision_map_as_simulate(self, cli_config, data_dir, tmp_path, cli_runs):
        out = tmp_path / "dm"
        code = main(
            [
                "decision-map",
                "--config", str(cli_config),
                "--weather", str(data_dir / "weather.csv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        simulated = cli_runs["first"][1] / "decision_map.csv"
        assert (out / "decision_map.csv").read_bytes() == simulated.read_bytes()


@pytest.fixture()
def potential_inputs(tmp_path):
    """A 6x6 km2 land raster split into two regions, with a settlement
    column in region 1."""
    codes = np.full((6, 6), 211, dtype=np.int64)
    codes[:, 2] = 112
    land_path = tmp_path / "land.asc"
    write_ascii_grid(land_path, LandRaster(codes=codes, cell_size=1000.0))
    regions = np.ones((6, 6), dtype=np.int64)
    regions[:, 3:] = 2
    regions_path = tmp_path / "regions.asc"
    write_ascii_grid(regions_path, LandRaster(codes=regions, cell_size=1000.0))
    return land_path, regions_path


class TestPotential:
    def test_constant_yields_arithmetic(self, potential_inputs, tmp_path, capsys):
        land_path, regions_path = potential_inputs
        out = tmp_path / "pot"
        code = main(
            [
                "potential",
                "--raster", str(land_path),
                "--regions", str(regions_path),
                "--buffer", "0",
                "--capacity-density", "30",
                "--yield-tilt", "1000",
                "--yield-vertical", "900",
                "--yield-tracking", "1100",
                "--demand-twh", "0.45",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "regions.csv" in capsys.readouterr().out
        lines = (out / "regions.csv").read_text().splitlines()
        assert len(lines) == 3
        r1 = lines[1].split(",")
        assert r1[0] == "1"
        assert float(r1[1]) == pytest.approx(18.0)  # 3 columns x 6 rows
        assert float(r1[2]) == pytest.approx(12.0)  # settlement column out
        assert float(r1[3]) == pytest.approx(100.0 * 12.0 / 18.0, abs=1e-4)
        assert float(r1[4]) == pytest.approx(0.36)  # 12 km2 x 30 W/m2
        assert float(r1[5]) == pytest.approx(0.36)  # x 1000 kWh/kW
        assert float(r1[6]) == pytest.approx(0.324)
        assert float(r1[7]) == pytest.approx(0.396)
        r2 = lines[2].split(",")
        assert float(r2[2]) == pytest.approx(18.0)
        assert float(r2[4]) == pytest.approx(0.54)

        summary = dict(
            l.split(",") for l in (out / "summary.csv").read_text().splitlines()[1:]
        )
        assert float(summary["eligible_km2"]) == pytest.approx(30.0)
        assert float(summary["capacity_gw"]) == pytest.approx(0.9)
        assert float(summary["energy_tilt_twh"]) == pytest.approx(0.9)
        assert float(summary["demand_multiple_tilt"]) == pytest.approx(2.0)

    def test_per_region_yield_table(self, potential_inputs, tmp_path):
        land_path, regions_path = potential_inputs
        yields = tmp_path / "yields.csv"
        yields.write_text(
            "region_id,tilt,vertical,tracking\n1,1000,900,1100\n2,500,450,550\n"
        )
        out = tmp_path / "pot"
        code = main(
            [
                "potential",
                "--raster", str(land_path),
                "--regions", str(regions_path),
                "--buffer", "0",
                "--capacity-density", "30",
                "--yields", str(yields),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "regions.csv").read_text().splitlines()
        r2 = lines[2].split(",")
        assert float(r2[5]) == pytest.approx(0.27)  # 0.54 GW x 500 kWh/kW

    def test_missing_yields_is_input_error(self, potential_inputs, tmp_path, capsys):
        land_path, regions_path = potential_inputs
        code = main(
            [
                "potential",
                "--raster", str(land_path),
                "--regions", str(regions_path),
                "--yield-tilt", "1000",
                "--out", str(tmp_path / "pot"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--yield-vertical" in err

    def test_region_shape_mismatch(self, potential_inputs, tmp_path, capsys):
        land_path, _ = potential_inputs
        small = tmp_path / "small.asc"
        write_ascii_grid(
            small, LandRaster(codes=np.ones((2, 2), dtype=np.int64), cell_size=1000.0)
        )
        code = main(
            [
                "potential",
                "--raster", str(land_path),
                "--regions", str(small),
                "--yield-tilt", "1", "--yield-vertical", "1", "--yield-tracking", "1",
                "--out", str(tmp_path / "pot"),
            ]
        )
        assert code == 2
        assert "does not match" in capsys.readouterr().err


class TestValidate:
    def test_all_inputs_ok(self, cli_config, data_dir, potential_inputs, tmp_path, capsys):
        land_path, _ = potential_inputs
        classes = tmp_path / "classes.json"
        classes.write_text('{"include": [211], "exclude": [112]}')
        code = main(
            [
                "validate",
                "--config", str(cli_config),
                "--weather", str(data_dir / "weather.csv"),
                "--prices", str(data_dir / "prices.csv"),
                "--raster", str(land_path),
                "--classes", str(classes),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("ok:") == 5
        assert "8760 hours" in out

    def test_broken_weather_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "w.csv"
        bad.write_text(
            "time,bhi,dhi,ghi,temp_air,wind10\n2015-01-01T00:00:00,-5,0,0,0,1\n"
        )
        code = main(["validate", "--weather", str(bad)])
        assert code == 2
        assert "negative" in capsys.readouterr().err

    def test_nothing_to_check(self, capsys):
        code = main(["validate"])
        assert code == 2
        assert "nothing to check" in capsys.readouterr().err

    def test_prices_need_weather(self, data_dir, capsys):
        code = main(["validate", "--prices", str(data_dir / "prices.csv")])
        assert code == 2
        assert "--weather" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "snippet",
        [
            "[meta]\nschema_version = one",
            "[layout]\nclearance_tilt_m = high",
            "[panel]\nalpha_r = 0",
            "[panel]\nu1 = nan",
            "[layout]\nspacings_m = nan",
            "[layout]\ntracker_max_rotation_deg = -10",
            "[layout]\nkinds = tracking\nspacings_m = 2\nheights_m = 3",
        ],
    )
    def test_invalid_config_rejected_by_validate_and_simulate(
        self, snippet, data_dir, tmp_path, capsys
    ):
        config = tmp_path / "scenario.ini"
        base = "[location]\nlatitude = 56.49\nlongitude = 9.57\n"
        if not snippet.startswith("[meta]"):
            base = "[meta]\nschema_version = 1\n" + base
        config.write_text(f"{base}\n{snippet}\n")
        simulate = ["simulate", "--weather", str(data_dir / "weather.csv")]
        for command in (["validate"], [*simulate, "--out", str(tmp_path / "out")]):
            assert main([*command, "--config", str(config)]) == 2
            assert "error:" in capsys.readouterr().err


class TestInstalledEntryPoint:
    def test_help_runs(self):
        exe = shutil.which("agrivolt")
        assert exe is not None, "console script not on PATH"
        proc = subprocess.run(
            [exe, "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        for word in ("simulate", "decision-map", "potential", "validate"):
            assert word in proc.stdout
