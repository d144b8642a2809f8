"""End-to-end command line runs: every subcommand, exit codes, artifacts."""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import agrivolt
from agrivolt import agronomy, land, outputs, scenario
from agrivolt.cli import main
from agrivolt.config import case_layout, load_config
from agrivolt.electrical import SimulationResult, simulate_year
from agrivolt.land import LandRaster
from agrivolt.sky import sky_year
from agrivolt.weather import ingest_weather
from fixturegen import write_ascii_grid

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


def flat_prices(data_dir: Path, tmp_path: Path, price: str) -> Path:
    """A price file on the fixture's hours with every hour at ``price``."""
    stamps = [line.split(",")[0] for line in (data_dir / "prices.csv").read_text().split()]
    path = tmp_path / f"prices_{price}.csv"
    path.write_text("\n".join(["time,price", *(f"{t},{price}" for t in stamps[1:])]))
    return path


#: Flag values: any float as Python prints it, and the edges of each range.
FLAG_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-5", "0", "-0.0", "1e308", "5e-324"]),
)

#: Values of the run commands' flags: any int too, past the float range included.
RUN_FLAG_NUMBERS = st.one_of(
    FLAG_NUMBERS,
    st.integers().map(str),
    st.sampled_from(["1", "2", "0.2", str(10**400), str(-(10**400))]),
)


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

    def test_sky_derived_once_per_run(self, cli_config, weather, tmp_path, monkeypatch):
        """At two workers the sky year is derived once, in the calling process."""
        pids = tmp_path / "pids"
        derive = scenario.sky_year

        def recording(*args):
            # only records: an initializer that raises makes the pool respawn forever
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return derive(*args)

        monkeypatch.setattr(scenario, "sky_year", recording)
        results = scenario.run_cases(load_config(cli_config), weather, (7,), threads=2)
        assert [r.spec.scenario for r in results] == ["tilt_s6_h2", "vertical_s6_h2"]
        assert pids.read_text().split() == [str(os.getpid())]

    def test_failure_after_the_sweep_leaves_no_out(
        self, cli_config, data_dir, tmp_path, monkeypatch, capsys
    ):
        """Every artifact is written into a staging directory that becomes
        ``--out`` only once all are there: a failure after a case has written
        its files (here in its decision point) exits 3 and leaves neither
        ``--out`` nor the staging directory."""

        def failing(**kwargs):
            raise RuntimeError("no decision point")

        monkeypatch.setattr(agronomy, "decision_point", failing)
        out = tmp_path / "sim"
        inputs = ["--config", str(cli_config), "--weather", str(data_dir / "weather.csv")]
        assert main(["simulate", *inputs, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("computation failed: RuntimeError")
        assert list(tmp_path.iterdir()) == []

    def test_writer_failing_in_a_worker_leaves_no_out(
        self, cli_config, data_dir, tmp_path, monkeypatch, capsys
    ):
        """At two workers each case writes its files in its worker; one that
        fails there exits 3 and leaves neither ``--out`` nor the staging
        directory."""
        parent = os.getpid()

        def failing(path, grid):
            if os.getpid() != parent:
                raise RuntimeError("worker writer failed")

        monkeypatch.setattr(outputs, "write_ground_pgm", failing)
        out = tmp_path / "sim"
        inputs = ["--config", str(cli_config), "--weather", str(data_dir / "weather.csv")]
        assert main(["simulate", *inputs, "--out", str(out), "--threads", "2"]) == 3
        assert capsys.readouterr().err == (
            "computation failed: RuntimeError: worker writer failed\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_existing_out_keeps_its_files(self, cli_config, cli_runs, data_dir, tmp_path,
                                          capsys):
        """An existing ``--out`` keeps a file the run does not write and
        receives every artifact; no staging directory is left beside it."""
        out = tmp_path / "sim"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        (out / "indicators.csv").write_text("replaced\n")
        inputs = ["--config", str(cli_config), "--weather", str(data_dir / "weather.csv"),
                  "--prices", str(data_dir / "prices.csv")]
        assert main(["simulate", *inputs, "--out", str(out), "--threads", "2"]) == 0
        assert capsys.readouterr().out == f"wrote {len(EXPECTED_ARTIFACTS)} artifacts to {out}\n"
        assert {p.name for p in out.iterdir()} == EXPECTED_ARTIFACTS | {"notes.txt"}
        assert (out / "notes.txt").read_text() == "kept\n"
        first = cli_runs["first"][1]
        for name in sorted(EXPECTED_ARTIFACTS):
            assert (out / name).read_bytes() == (first / name).read_bytes(), name
        assert list(tmp_path.iterdir()) == [out]

    def test_returned_paths_name_out(self, cli_config, weather, tmp_path):
        """``run_scenario`` returns every artifact's path in the directory it
        was given, under a new nested ``--out`` too."""
        out = tmp_path / "a" / "b"
        written = scenario.run_scenario(load_config(cli_config), weather, None, out)
        assert sorted(p.name for p in written) == sorted(EXPECTED_ARTIFACTS)
        assert all(p.parent == out and p.is_file() for p in written)
        assert list(tmp_path.iterdir()) == [tmp_path / "a"]

    def test_workers_need_no_fork(self, cli_config, cli_runs, data_dir, tmp_path):
        """Under the ``forkserver`` start method, where workers inherit no
        state of the parent, two workers write the same artifacts as one
        process."""
        out = tmp_path / "sim"
        command = ["simulate", "--config", str(cli_config),
                   "--weather", str(data_dir / "weather.csv"),
                   "--prices", str(data_dir / "prices.csv"), "--out", str(out), "--threads", "2"]
        script = (
            "import multiprocessing, sys\n"
            "from agrivolt.cli import main\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('forkserver')\n"
            f"    sys.exit(main({command!r}))\n"
        )
        (tmp_path / "run.py").write_text(script)
        env = {**os.environ, "PYTHONPATH": str(Path(agrivolt.__file__).parent.parent)}
        proc = subprocess.run([sys.executable, str(tmp_path / "run.py")], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        first = cli_runs["first"][1]
        assert {p.name for p in out.iterdir()} == EXPECTED_ARTIFACTS
        for name in sorted(EXPECTED_ARTIFACTS):
            assert (out / name).read_bytes() == (first / name).read_bytes(), name

    def test_toa_warning_once_per_run(self, cli_config, data_dir, tmp_path):
        """One hour of beam above the top of the atmosphere is flagged once by
        ``simulate --threads 2`` and once by ``validate``."""
        lines = (data_dir / "weather.csv").read_text().splitlines()
        stamp, *_, temp, wind = lines[1].split(",")  # midnight: any beam is too much
        lines[1] = f"{stamp},500,0,500,{temp},{wind}"
        weather = tmp_path / "weather.csv"
        weather.write_text("\n".join(lines) + "\n")
        inputs = ["--config", str(cli_config), "--weather", str(weather)]
        env = {**os.environ, "PYTHONPATH": str(Path(agrivolt.__file__).parent.parent)}
        for command in (
            ["simulate", *inputs, "--out", str(tmp_path / "out"), "--threads", "2"],
            ["validate", *inputs],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "agrivolt.cli", *command],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.count("top-of-atmosphere") == 1, proc.stderr
            assert f"in 1 hours ({stamp[:13]}" in proc.stderr

    def test_off_catalogue_values_warn_once(self, cli_config, data_dir, tmp_path):
        """Spacings outside the studied set are logged once each, not once per
        case or per worker, by ``simulate`` at one and at two workers."""
        config = tmp_path / "scenario.ini"
        config.write_text(
            cli_config.read_text()
            .replace("kinds = tilt, vertical", "kinds = tilt, vertical, tracking")
            .replace("spacings_m = 6", "spacings_m = 5, 5.5")
            .replace("ground_m = 20", "ground_m = 2")
        )
        env = {**os.environ, "PYTHONPATH": str(Path(agrivolt.__file__).parent.parent)}
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "agrivolt.cli", "simulate", "--config", str(config),
                 "--weather", str(data_dir / "weather.csv"), "--out", str(tmp_path / threads),
                 "--threads", threads],
                capture_output=True, text=True, timeout=120, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            warned = [line for line in proc.stderr.splitlines() if "outside the studied" in line]
            assert [line.split(": ", 1)[1] for line in warned] == [
                "spacing 5 m outside the studied set (3.0, 4.5, 6.0, 7.5, 9.0, 12.0)",
                "spacing 5.5 m outside the studied set (3.0, 4.5, 6.0, 7.5, 9.0, 12.0)",
            ], proc.stderr

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

    def test_bad_flag_or_out_exits_2(
        self, cli_config, data_dir, potential_inputs, tmp_path, capsys
    ):
        """A non-finite flag value, or an ``--out`` that is a file or lies
        under one, is invalid input to the command that reads it."""
        land_path, regions_path = potential_inputs
        taken = tmp_path / "taken.txt"
        taken.write_text("not a directory\n")
        inputs = ["--config", str(cli_config), "--weather", str(data_dir / "weather.csv")]
        potential = [
            "potential", "--raster", str(land_path), "--regions", str(regions_path),
            "--yield-tilt", "1", "--yield-vertical", "1", "--yield-tracking", "1",
        ]
        for command in (
            ["simulate", *inputs, "--out", str(tmp_path / "sim"), "--wind-shear-exponent", "nan"],
            ["simulate", *inputs, "--out", str(tmp_path / "sim"), "--wind-shear-exponent", "inf"],
            ["simulate", *inputs, "--out", str(tmp_path / "sim"), "--wind-shear-exponent", "-1000"],
            ["simulate", *inputs, "--out", str(tmp_path / "sim"), "--threads", "0"],
            ["simulate", *inputs, "--out", str(tmp_path / "sim"), "--threads", "-4"],
            ["decision-map", *inputs, "--out", str(tmp_path / "sim"), "--threads", "0"],
            ["decision-map", *inputs, "--out", str(tmp_path / "sim"), "--threads", "-4"],
            ["simulate", *inputs, "--out", str(taken)],
            ["decision-map", *inputs, "--out", str(taken / "sub")],
            [*potential, "--out", str(taken)],
        ):
            assert main(command) == 2, command
            assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()
        assert taken.read_text() == "not a directory\n"

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(threads=RUN_FLAG_NUMBERS, exponent=RUN_FLAG_NUMBERS)
    @example(threads=str(10**400), exponent="0.2")
    @example(threads=str(-(10**400)), exponent=str(10**400))
    def test_numeric_flags_exit_0_or_2(
        self, cli_config, data_dir, tmp_path, capsys, threads, exponent
    ):
        """Whatever numbers ``--threads`` and ``--wind-shear-exponent`` take,
        ``simulate`` and ``decision-map`` exit 0, or 2 with an ``error:`` line.
        The config has one case, so no worker pool starts whatever ``--threads``."""
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        config = work / "one_case.ini"
        config.write_text(
            cli_config.read_text()
            .replace("tilt, vertical", "tilt")
            .replace("ground_m = 20", "ground_m = 10")
            .replace("ground_cell_m = 1.0", "ground_cell_m = 2")
        )
        inputs = ["--config", str(config), "--weather", str(data_dir / "weather.csv")]
        for command in (
            ["simulate", *inputs, f"--threads={threads}", f"--wind-shear-exponent={exponent}"],
            ["decision-map", *inputs, f"--threads={threads}"],
        ):
            try:
                code = main([*command, "--out", str(work / "out")])
            except SystemExit as exc:  # argparse refuses a --threads that is no int
                code = exc.code
            err = capsys.readouterr().err
            assert code in (0, 2), (command, err)
            assert code == 0 or "error:" in err, (command, err)

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

    def test_formats_no_time_column(self, cli_config, data_dir, tmp_path, monkeypatch):
        """``decision-map`` writes no hourly file, so it formats no time column."""

        def no_time_column(times):
            raise AssertionError("a time column was formatted")

        monkeypatch.setattr(outputs, "time_column", no_time_column)
        out = tmp_path / "dm"
        inputs = ["--config", str(cli_config), "--weather", str(data_dir / "weather.csv")]
        assert main(["decision-map", *inputs, "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {"decision_map.csv"}

    def test_sends_no_hourly_columns_to_workers(
        self, cli_config, data_dir, tmp_path, cli_runs, monkeypatch
    ):
        """At ``--threads 2`` each case goes to a worker without its
        ``SimulationResult``, which only ``simulate``'s hourly file reads."""
        import multiprocessing.pool

        tasks = []
        imap = multiprocessing.pool.Pool.imap

        def recording(pool, func, iterable, *args):
            tasks.extend(iterable)
            return imap(pool, func, tasks, *args)

        monkeypatch.setattr(multiprocessing.pool.Pool, "imap", recording)
        out = tmp_path / "dm"
        inputs = ["--config", str(cli_config), "--weather", str(data_dir / "weather.csv")]
        assert main(["decision-map", *inputs, "--out", str(out), "--threads", "2"]) == 0
        assert len(tasks) == 2
        assert not [v for task in tasks for v in task if isinstance(v, SimulationResult)]
        simulated = cli_runs["first"][1] / "decision_map.csv"
        assert (out / "decision_map.csv").read_bytes() == simulated.read_bytes()

    def test_ground_maps_of_growing_months_only(
        self, cli_config, data_dir, tmp_path, monkeypatch
    ):
        """``decision-map`` maps each case's growing months and no ground-map
        month; ``simulate`` maps both, each month once per case."""
        config = tmp_path / "scenario.ini"
        config.write_text(
            cli_config.read_text().replace("ground_map_months = 7", "ground_map_months = 1 12")
        )
        loaded = load_config(config)
        cases = scenario.expand_cases(loaded)
        calls = []
        mapper = scenario.ground_irradiance_map

        def counting(*args, **kwargs):
            calls.append(int(args[1].month[0]))
            return mapper(*args, **kwargs)

        monkeypatch.setattr(scenario, "ground_irradiance_map", counting)
        inputs = ["--config", str(config), "--weather", str(data_dir / "weather.csv")]
        assert main(["decision-map", *inputs, "--out", str(tmp_path / "dm")]) == 0
        assert len(calls) == len(cases) * len(loaded.growing_months)
        assert set(calls) == set(loaded.growing_months)
        calls.clear()
        assert main(["simulate", *inputs, "--out", str(tmp_path / "sim")]) == 0
        assert len(calls) == len(cases) * len({*loaded.growing_months, *loaded.ground_map_months})


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


class TestReadme:
    def test_library_snippet_runs(
        self, cli_config, cli_runs, data_dir, tmp_path, monkeypatch, capsys
    ):
        """The README's library example runs on the CLI fixtures and prints
        the first case's specific yield as ``simulate`` wrote it."""
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library use", 1)[1]
        snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
        shutil.copy(cli_config, tmp_path / "scenario.ini")
        shutil.copy(data_dir / "weather.csv", tmp_path / "weather.csv")
        monkeypatch.chdir(tmp_path)
        exec(compile(snippet, "README.md", "exec"), {})
        printed = float(capsys.readouterr().out)
        _, out = cli_runs["first"]
        first_case = (out / "indicators.csv").read_text().splitlines()[1]
        assert f"{printed:.6f}" == first_case.split(",")[8]


POTENTIAL_FLAGS = (
    "--buffer",
    "--capacity-density",
    "--yield-tilt",
    "--yield-vertical",
    "--yield-tracking",
    "--demand-twh",
)

class TestPotential:
    def test_failure_after_the_reads_leaves_no_out(
        self, potential_inputs, tmp_path, monkeypatch, capsys
    ):
        """``potential`` writes through the staging directory too: a writer
        failing after ``regions.csv`` is written exits 3 and leaves neither
        ``--out`` nor the staging directory."""

        def failing(path, summary):
            raise RuntimeError("no summary")

        monkeypatch.setattr(outputs, "write_summary_csv", failing)
        land_path, regions_path = potential_inputs
        out = tmp_path / "runs" / "pot"
        beside = set(tmp_path.iterdir())
        assert main(["potential", "--raster", str(land_path), "--regions", str(regions_path),
                     "--yield-tilt", "1000", "--yield-vertical", "900",
                     "--yield-tracking", "1100", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "computation failed: RuntimeError: no summary\n"
        assert set(tmp_path.iterdir()) == beside

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

        header = "region_id,tilt,vertical,tracking\n"
        tables = [tmp_path / "absent.csv"]
        bodies = ("1,nan,1,1\n2,1,1,1\n", "1,1,1,1\n2,1,-5,1\n", "x,1,1,1\n",
                  "1,900,800,1000\n2,1,1,1\n1,5,5,5\n")
        for i, body in enumerate(bodies):
            tables.append(tmp_path / f"yields_{i}.csv")
            tables[-1].write_text(header + body)
        for table in tables:
            command = [
                "potential",
                "--raster", str(land_path),
                "--regions", str(regions_path),
                "--yields", str(table),
                "--out", str(tmp_path / "pot"),
            ]
            assert main(command) == 2, table
            err = capsys.readouterr().err
            assert "error:" in err
        # the last table gives region 1 twice, named with its second row
        assert "row 4: region 1 given twice" in err
        # a table without a row for region 2 names it
        tables[-1].write_text(header + "1,1,1,1\n")
        assert main(command) == 2
        assert "no row for region 2" in capsys.readouterr().err
        assert not (tmp_path / "pot").exists()

    def test_unreadable_raster_or_classes_exit_2(self, potential_inputs, tmp_path, capsys):
        """A land raster that is not UTF-8 or has a bad header value, or a
        class set with a code that is no JSON integer, is invalid input to
        ``potential`` and to ``validate``."""
        land_path, regions_path = potential_inputs
        latin1 = tmp_path / "latin1.asc"
        latin1.write_bytes(land_path.read_bytes() + b"\xe9\n")
        rasters = [latin1]
        for line in ("ncols abc", "ncols -1", "nrows -1", "cellsize 0", "cellsize nan"):
            key = line.split()[0]
            rasters.append(tmp_path / f"header_{len(rasters)}.asc")
            rasters[-1].write_text(
                "\n".join(
                    line if old.split()[0] == key else old
                    for old in land_path.read_text().splitlines()
                )
            )
        # a header key given twice, even with the same value
        lines = land_path.read_text().splitlines()
        repeated = tmp_path / "repeated.asc"
        repeated.write_text("\n".join([lines[0], *lines]) + "\n")
        rasters.append(repeated)
        # a value one past the int64 range
        rasters.append(tmp_path / "overflow.asc")
        rasters[-1].write_text(
            land_path.read_text().replace("211", "9223372036854775808", 1)
        )
        class_files = []
        for text in (
            '{"include": ["x"], "exclude": [112]}',
            '{"include": [211.7], "exclude": [112]}',
            '{"include": ["212"], "exclude": [112]}',
            '{"include": [true], "exclude": [112]}',
            '{"include": [211], "exclude": [112], "neutral": "34"}',
        ):
            class_files.append(tmp_path / f"classes_{len(class_files)}.json")
            class_files[-1].write_text(text)
        potential = [
            "potential",
            "--regions", str(regions_path),
            "--yield-tilt", "1", "--yield-vertical", "1", "--yield-tracking", "1",
            "--out", str(tmp_path / "pot"),
        ]
        commands = []
        for raster in rasters:
            commands += [
                [*potential, "--raster", str(raster)],
                ["validate", "--raster", str(raster)],
            ]
        # the region raster is read by the same header parser
        commands.append(["potential", "--raster", str(land_path), "--regions", str(repeated),
                         *potential[3:]])
        for classes in class_files:
            commands += [
                [*potential, "--raster", str(land_path), "--classes", str(classes)],
                ["validate", "--classes", str(classes)],
            ]
        for command in commands:
            assert main(command) == 2, command
            assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "pot").exists()

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(values=st.tuples(*(FLAG_NUMBERS for _ in POTENTIAL_FLAGS)))
    def test_numeric_flags_exit_0_or_2_without_nan(self, potential_inputs, tmp_path, values):
        """Whatever numbers the numeric flags of ``potential`` take, it exits 0
        or 2, and no artifact it writes holds ``nan`` or ``inf``."""
        land_path, regions_path = potential_inputs
        out = Path(tempfile.mkdtemp(dir=tmp_path)) / "pot"
        command = ["potential", "--raster", str(land_path), "--regions", str(regions_path)]
        command += [f"{flag}={value}" for flag, value in zip(POTENTIAL_FLAGS, values)]
        assert main([*command, "--out", str(out)]) in (0, 2)
        for artifact in out.glob("*"):
            text = artifact.read_text()
            assert "nan" not in text and "inf" not in text, artifact.name

    def test_region_shape_mismatch(self, potential_inputs, tmp_path, capsys, monkeypatch):
        """A region raster of another shape, cell size or corner than the land
        raster (6 x 6 cells of 1000 m from (0, 0)) exits 2 naming both grids.
        Read with no buffer in bands of four rows (one row of halo; bands are
        at least four halos tall), a region or land raster that goes wrong in
        the second band exits 2 naming the file's row or value count."""
        land_path, regions_path = potential_inputs
        ones = np.ones((6, 6), dtype=np.int64)
        grid = "shape (6, 6), cellsize 1000.0, corner (0.0, 0.0)"
        rasters = []
        for regions in (
            LandRaster(codes=np.ones((2, 2), dtype=np.int64), cell_size=1000.0),
            LandRaster(codes=ones, cell_size=100.0),
            LandRaster(codes=ones, cell_size=1000.0, xllcorner=5000.0),
            LandRaster(codes=ones, cell_size=1000.0, yllcorner=-1000.0),
        ):
            rasters.append((tmp_path / f"other_{len(rasters)}.asc", "regions",
                            ["does not match", grid, f"cellsize {regions.cell_size}"]))
            write_ascii_grid(rasters[-1][0], regions)
        for which, path in (("regions", regions_path), ("raster", land_path)):
            lines = path.read_text().splitlines()  # 6 header lines, then 6 rows
            for change, message in (
                (lambda row: row.replace("1", "1.5", 1), "at row 4, column 1."),
                (lambda row: row + " 7", "columns changed from 6 to 7 at row 5;"),
                (lambda row: "", "expected 36 values (6 x 6), got 30"),
                (lambda row: f"{row}\n{row}", "expected 36 values (6 x 6), got 42"),
            ):
                broken = [*lines[:10], change(lines[10]), *lines[11:]]
                rasters.append((tmp_path / f"later_{len(rasters)}.asc", which, [message]))
                rasters[-1][0].write_text("\n".join(broken) + "\n")
        monkeypatch.setattr(land, "BAND_PIXELS", 6)
        for other, which, messages in rasters:
            inputs = {"raster": land_path, "regions": regions_path, which: other}
            code = main(
                [
                    "potential",
                    "--raster", str(inputs["raster"]),
                    "--regions", str(inputs["regions"]),
                    "--buffer", "0",
                    "--yield-tilt", "1", "--yield-vertical", "1", "--yield-tracking", "1",
                    "--out", str(tmp_path / "pot"),
                ]
            )
            assert code == 2
            err = capsys.readouterr().err
            assert all(message in err for message in messages), (err, messages)
            assert not (tmp_path / "pot").exists()

    def test_unknown_codes_warn_once(self, tmp_path, caplog, monkeypatch):
        """Unknown codes in three bands of eight rows (two rows of halo), and in
        their halo rows, give one warning with the count and first ten codes of
        the whole raster."""
        codes = np.full((24, 4), 211, dtype=np.int64)
        codes[:, 1] = np.arange(960, 936, -1)  # one per row, the smallest in the last band
        codes[::3, 3] = 960
        land_path = tmp_path / "land.asc"
        write_ascii_grid(land_path, LandRaster(codes=codes, cell_size=100.0))
        regions_path = tmp_path / "regions.asc"
        write_ascii_grid(regions_path, LandRaster(codes=np.ones_like(codes), cell_size=100.0))
        with caplog.at_level("WARNING", logger="agrivolt.land"):
            land.eligibility_mask(land.read_ascii_grid(land_path))
        (whole,) = [r.getMessage() for r in caplog.records]
        assert whole.startswith("32 pixels with unknown class codes [937, 938,")
        caplog.clear()
        monkeypatch.setattr(land, "BAND_PIXELS", 8)
        code = main(
            [
                "potential", "--raster", str(land_path), "--regions", str(regions_path),
                "--buffer", "50",
                "--yield-tilt", "1", "--yield-vertical", "1", "--yield-tracking", "1",
                "--out", str(tmp_path / "pot"),
            ]
        )
        assert code == 0
        assert [r.getMessage() for r in caplog.records if "unknown" in r.getMessage()] == [whole]

    def test_huge_buffer_on_tiny_cells(self, tmp_path, monkeypatch):
        """A buffer of 1e308 m on 1e-300 m cells is a halo of the whole raster,
        however thin the bands: exit 0 with the whole-raster result."""
        codes = np.full((5, 3), 211, dtype=np.int64)
        codes[4, 2] = 112
        land_path, regions_path = tmp_path / "land.asc", tmp_path / "regions.asc"
        write_ascii_grid(land_path, LandRaster(codes=codes, cell_size=1e-300))
        write_ascii_grid(regions_path, LandRaster(codes=np.ones_like(codes), cell_size=1e-300))
        raster = land.read_ascii_grid(land_path)
        mask = land.eligibility_mask(raster, buffer_m=1e308)
        whole = land.region_potential(raster, mask, land.read_ascii_grid(regions_path))
        yields = dict.fromkeys(("tilt", "vertical", "tracking"), 1.0)
        outputs.write_regions_csv(tmp_path / "whole.csv", whole.potentials(30.0, lambda r: yields))
        monkeypatch.setattr(land, "BAND_PIXELS", 3)
        command = ["potential", "--raster", str(land_path), "--regions", str(regions_path),
                   "--buffer", "1e308", "--yield-tilt", "1", "--yield-vertical", "1",
                   "--yield-tracking", "1", "--out", str(tmp_path / "pot")]
        assert main(command) == 0
        assert (tmp_path / "pot" / "regions.csv").read_text() == (
            (tmp_path / "whole.csv").read_text()
        )


#: Weather or price rows: arbitrary text, or comma-joined fields mixing
#: arbitrary text with timestamps and numbers, valid and not.
CSV_ROWS = st.one_of(
    st.text(max_size=60),
    st.lists(
        st.one_of(
            st.text(max_size=12),
            st.sampled_from(
                [
                    "2015-06-01T00:00Z",
                    "2015-06-01T01:00:00+00:00",
                    "1949-12-31T23:00Z",
                    "2101-01-01T00:00Z",
                    "0001-01-01T00:00+05:00",
                    "0",
                    "-1",
                    "nan",
                    "1e400",
                ]
            ),
            st.floats().map(str),
        ),
        max_size=7,
    ).map(",".join),
)


#: Raster data blocks: arbitrary text, or lines of integer-like tokens, in
#: and out of the int64 range, with varied separators.
RASTER_DATA = st.one_of(
    st.text(max_size=60),
    st.lists(
        st.lists(
            st.one_of(
                st.integers(min_value=-(2**64), max_value=2**64).map(str),
                st.sampled_from(["211", "-9999", "+7", "1.0", "1e3", "0x10", "nan", "ncols"]),
                st.text(max_size=4),
            ),
            max_size=4,
        ).map(" ".join),
        max_size=4,
    ).map("\n".join),
)


class TestValidate:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rows=st.lists(CSV_ROWS, max_size=4), prices=st.booleans())
    def test_any_csv_rows_are_valid_or_input_error(self, tmp_path, rows, prices):
        """Whatever text the rows of a weather or price file hold, ``validate``
        exits 0 or 2, never 3."""
        weather_rows = ["2015-06-01T00:00Z,100,50,150,10,3"] if prices else rows
        weather = tmp_path / "weather.csv"
        weather.write_text(
            "\n".join(["time,bhi,dhi,ghi,temp_air,wind10", *weather_rows]), encoding="utf-8"
        )
        command = ["validate", "--weather", str(weather)]
        if prices:
            price_file = tmp_path / "prices.csv"
            price_file.write_text("\n".join(["time,price", *rows]), encoding="utf-8")
            command += ["--prices", str(price_file)]
        assert main(command) in (0, 2)

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=RASTER_DATA)
    def test_any_raster_data_is_valid_or_input_error(self, tmp_path, data):
        """Whatever text follows a valid 2 x 2 raster header, ``validate``
        exits 0 or 2, never 3."""
        raster = tmp_path / "raster.asc"
        raster.write_text(
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 100\n" + data,
            encoding="utf-8",
        )
        assert main(["validate", "--raster", str(raster)]) in (0, 2)

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

    def test_broken_weather_exits_2(self, cli_config, data_dir, tmp_path, capsys):
        bad = tmp_path / "w.csv"
        bad.write_text(
            "time,bhi,dhi,ghi,temp_air,wind10\n2015-01-01T00:00:00,-5,0,0,0,1\n"
        )
        code = main(["validate", "--weather", str(bad)])
        assert code == 2
        assert "negative" in capsys.readouterr().err

        def broken(name: str, header: str, rows: list[str]) -> list[str]:
            """Absent, directory, non-UTF-8, and one file per bad row."""
            latin1 = tmp_path / f"{name}_latin1.csv"
            latin1.write_bytes(f"{header}\n".encode() + b"caf\xe9\n")
            paths = [tmp_path / "absent.csv", tmp_path / "out", latin1]
            for i, line in enumerate(rows):
                paths.append(tmp_path / f"{name}_{i}.csv")
                paths[-1].write_text(f"{header}\n{line}\n")
            return [str(path) for path in paths]

        (tmp_path / "out").mkdir()
        weather = str(data_dir / "weather.csv")
        simulate = ["simulate", "--config", str(cli_config), "--out", str(tmp_path / "sim")]
        commands = []
        for path in broken(
            "weather",
            "time,bhi,dhi,ghi,temp_air,wind10",
            [
                "2015-01-01T01:00Z,0,0",
                "1949-12-31T23:00Z,0,0,0,0,1",
                "2101-01-01T00:00Z,0,0,0,0,1",
                "2015-01-01T00:00Z,0,0,0,0,1",  # valid, but not a full year
            ],
        ):
            commands += [
                ["validate", "--weather", path],
                ["validate", "--config", str(cli_config), "--weather", path],
                [*simulate, "--weather", path],
            ]
        stamps = [line.split(",")[0] for line in (data_dir / "prices.csv").read_text().split()]

        def flat(price: str) -> str:
            """A price file with every hour at ``price``."""
            path = tmp_path / f"prices_{price}.csv"
            path.write_text("\n".join(["time,price", *(f"{t},{price}" for t in stamps[1:])]))
            return str(path)

        prices = broken("prices", "time,price", ["2015-01-01T00:00Z"])
        # a zero mean, and a mean whose sum overflows
        for path in [*prices, flat("0"), flat("1e305")]:
            commands += [
                ["validate", "--weather", weather, "--prices", path],
                [*simulate, "--weather", weather, "--prices", path],
            ]
        # a finite mean whose weighted sum over the field's energy overflows, refused
        # before any ground map (see test_overflowing_price_weighting_refused_before_the_sweep)
        commands.append([*simulate, "--weather", weather, "--prices", flat("1e303")])
        for command in commands:
            assert main(command) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Warning" not in err, (command, err)
        # nothing written, indicators.csv included
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("price", ["1e303", "-1e303"])
    def test_overflowing_price_weighting_refused_before_the_sweep(
        self, cli_config, data_dir, tmp_path, capsys, monkeypatch, price
    ):
        """Every hour at ``price``: the mean is finite, but the prices times a
        case's simulated energy overflow. ``validate`` and ``simulate`` refuse it
        with the same line, and no ground map runs."""
        inputs = ["--config", str(cli_config), "--weather", str(data_dir / "weather.csv"),
                  "--prices", str(flat_prices(data_dir, tmp_path, price))]
        assert refused_alike(inputs, tmp_path / "sim", capsys, monkeypatch) == PRICE_OVERFLOW

    @pytest.mark.parametrize("scale, code", [(0.99, 0), (1.01, 2)])
    def test_price_weighting_refused_exactly_where_it_overflows(
        self, cli_config, data_dir, tmp_path, capsys, monkeypatch, scale, code
    ):
        """Flat prices at ``scale`` times the price where the weighted sum of the
        largest case's simulated energy overflows: below it both commands run to
        finite price-weighted yields, above it both refuse before any ground map."""
        weather = data_dir / "weather.csv"
        edge = overflow_price(load_config(cli_config), ingest_weather(weather))
        assert 1e300 < edge < 1e301  # the 30 m fixture field
        inputs = ["--config", str(cli_config), "--weather", str(weather),
                  "--prices", str(flat_prices(data_dir, tmp_path, repr(scale * edge)))]
        out = tmp_path / "sim"
        if code:
            assert refused_alike(inputs, out, capsys, monkeypatch) == PRICE_OVERFLOW
            return
        for command in (["validate", *inputs], ["simulate", *inputs, "--out", str(out)]):
            assert main(command) == 0, command
        rows = [line.split(",") for line in (out / "indicators.csv").read_text().split()]
        column = rows[0].index("price_weighted_yield_kWh_m2")
        assert all(np.isfinite(float(row[column])) for row in rows[1:])

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
            "[panel]\nwind_shear_exponent = -1000",
            "[field]\nelectrical_m = 1e20",
            "[field]\nelectrical_m = 1e300",
            "[field]\nground_m = 1e300",
            "[field]\nground_cell_m = 1e-300",
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


#: Replacement text for one config value or key, or one CSV field or column
#: name. Numbers stay small so that no mutated field or grid grows large.
MUTANT_TOKENS = st.sampled_from(
    [
        "", "x", "nan", "inf", "-inf", "1e400", "-1", "0", "0.5", "1", "2", "7", "13",
        "-1000", "3 4", "tilt", "vertical, tracking", "[layout]", "kinds", "ghi",
        "2015-06-01T00:00Z", "1949-12-31T23:00Z", "2015-01-01T00:00:00+01:00",
    ]
)


@st.composite
def mutated(draw, text: bytes, separator: bytes) -> bytes:
    """``text`` with one byte span overwritten or deleted, or with one key or
    value of one line (split at ``separator``) replaced."""
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text) - 1))
        cut = draw(st.integers(1, 3))
        return text[:at] + draw(st.binary(max_size=cut)) + text[at + cut:]
    lines = text.split(b"\n")
    row = draw(st.integers(0, len(lines) - 1))
    fields = lines[row].split(separator)
    fields[draw(st.integers(0, len(fields) - 1))] = draw(MUTANT_TOKENS).encode()
    lines[row] = separator.join(fields)
    return b"\n".join(lines)


class TestValidateAgreesWithSimulate:
    @pytest.fixture(scope="class")
    def one_case(self, cli_config, data_dir):
        """One tilt case on a 2 m ground field: the config, weather and price bytes."""
        config = cli_config.read_text().replace("tilt, vertical", "tilt")
        config = config.replace("ground_m = 20", "ground_m = 2")
        return {
            "config": (config.encode(), b"="),
            "weather": ((data_dir / "weather.csv").read_bytes(), b","),
            "prices": ((data_dir / "prices.csv").read_bytes(), b","),
        }

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data(), target=st.sampled_from(["config", "weather", "prices"]))
    def test_validate_exits_2_exactly_when_simulate_does(self, one_case, tmp_path, data, target):
        """With one input file mutated, ``validate`` rejects it exactly when a
        ``simulate`` of the same inputs does, and neither command exits 3."""
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        inputs = []
        for name, (text, separator) in one_case.items():
            if name == target:
                text = data.draw(mutated(text, separator), label=name)
            path = work / f"{name}.in"
            path.write_bytes(text)
            inputs += [f"--{name}", str(path)]
        validated = main(["validate", *inputs])
        simulated = main(["simulate", *inputs, "--out", str(work / "out")])
        assert validated in (0, 2) and simulated in (0, 2)
        assert validated == simulated

    def test_irradiance_far_above_the_sun_refused_alike(
        self, cli_config, data_dir, tmp_path, capsys, monkeypatch
    ):
        """The fixture year with bhi, dhi and ghi times 1000, far above what the sun
        gives: flat prices just past that year's exact overflow price are refused
        by both commands, before any ground map."""
        lines = (data_dir / "weather.csv").read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            stamp, *irradiance, temp, wind = line.split(",")
            lines[i] = ",".join([stamp, *(repr(1000.0 * float(v)) for v in irradiance), temp, wind])
        weather = tmp_path / "bright.csv"
        weather.write_text("\n".join(lines) + "\n")
        edge = overflow_price(load_config(cli_config), ingest_weather(weather))
        inputs = ["--config", str(cli_config), "--weather", str(weather),
                  "--prices", str(flat_prices(data_dir, tmp_path, repr(1.01 * edge)))]
        assert refused_alike(inputs, tmp_path / "sim", capsys, monkeypatch) == PRICE_OVERFLOW

    def test_capacity_underflow_refused_alike(self, tmp_path, data_dir, capsys, monkeypatch):
        """Rows 5e-324 m tall on a 1e-10 m field load, but their capacity rounds to
        0 W; ``validate`` refuses them as ``simulate`` does, before any ground map."""
        config = tmp_path / "tiny.ini"
        config.write_text(
            "[meta]\nschema_version = 1\n[location]\nlatitude = 56.49\nlongitude = 9.57\n"
            "[field]\nelectrical_m = 1e-10\n[layout]\nkinds = tilt\nheights_m = 5e-324\n"
        )
        inputs = ["--config", str(config), "--weather", str(data_dir / "weather.csv")]
        assert refused_alike(inputs, tmp_path / "sim", capsys, monkeypatch) == (
            "error: tilt_s6_h4.94066e-324: capacity must be positive\n"
        )


#: The refusal of flat prices whose weighting overflows: the first case refused
#: is the fixture's tilt case, the one of largest energy.
PRICE_OVERFLOW = (
    "error: tilt_s6_h2: price weighting undefined: the mean price is zero or the sum overflows\n"
)


def overflow_price(config, weather) -> float:
    """The flat price at which the weighted sum of the largest case's simulated
    energy reaches the largest float."""
    sky = sky_year(config.location, weather)
    energy = max(
        simulate_year(case_layout(config, spec.kind, spec.spacing, spec.height,
                                  config.electrical_field_m), sky, config.panel, config.albedo)
        .p_w.sum()
        for spec in scenario.expand_cases(config)
    )
    return sys.float_info.max / float(energy)


def refused_alike(inputs: list[str], out: Path, capsys, monkeypatch) -> str:
    """Run ``validate`` and ``simulate`` on ``inputs``, with any ground map an
    error: both must exit 2 with the same stderr and leave no ``out``. Returns
    that stderr."""

    def no_ground_map(*args):
        raise AssertionError("a ground map ran")

    monkeypatch.setattr(scenario, "run_case", no_ground_map)
    beside = set(out.parent.iterdir())
    errors = []
    for command in (["validate", *inputs], ["simulate", *inputs, "--out", str(out)]):
        assert main(command) == 2, command
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1], errors
    assert not out.exists()
    assert set(out.parent.iterdir()) == beside  # no staging directory either
    return errors[0]


SUBCOMMANDS = ("simulate", "decision-map", "potential", "validate")

# Per subcommand, arguments that pass the parser and reach the subcommand's
# handler, which rejects the absent input with an ``error:`` line (exit 2).
HANDLER_ARGS = {
    "simulate": ["--config", "absent.ini", "--weather", "absent.csv", "--out", "out"],
    "decision-map": ["--config", "absent.ini", "--weather", "absent.csv", "--out", "out"],
    "potential": ["--raster", "absent.asc", "--regions", "absent.asc", "--out", "out"],
    "validate": [],
}


class TestInstalledEntryPoint:
    def test_help_runs(self, tmp_path):
        """The console script declared in ``pyproject.toml`` runs the checkout's
        code: ``--help`` lists every subcommand and each one reaches its handler.

        The ``[project.scripts]`` entry is rendered into a launcher the way
        installers write one, and the launcher runs with ``PYTHONPATH`` set to
        the directory that holds the ``agrivolt`` package this suite imports,
        so no install is needed and no other copy on ``PATH`` is run.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["agrivolt"]
        module, _, func = entry.partition(":")
        launcher = tmp_path / "agrivolt"
        launcher.write_text(
            f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(agrivolt.__file__).parent.parent)}

        def run(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, str(launcher), *args],
                capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
            )

        proc = run("--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: agrivolt")
        for word in SUBCOMMANDS:
            assert word in proc.stdout
        for word in SUBCOMMANDS:
            proc = run(word, *HANDLER_ARGS[word])
            assert proc.returncode == 2, (word, proc.stderr)
            assert proc.stderr.startswith("error: "), (word, proc.stderr)

    def test_cli_import_leaves_scipy_unloaded(self, potential_inputs, tmp_path):
        """No command needs scipy, a test-only dependency: neither importing
        the CLI module nor running ``potential``, whose buffer test is numpy's,
        loads it."""
        land_path, regions_path = potential_inputs
        out = tmp_path / "pot"
        command = [
            "potential", "--raster", str(land_path), "--regions", str(regions_path),
            "--buffer", "1500", "--yield-tilt", "1000", "--yield-vertical", "900",
            "--yield-tracking", "1100", "--out", str(out),
        ]
        script = (
            "import sys, agrivolt.cli\n"
            "print('scipy' in sys.modules)\n"
            f"assert agrivolt.cli.main({command!r}) == 0\n"
            "print('scipy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(agrivolt.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("False", "False")
        # the settlement column and a column either side of it are buffered out
        rows = [line.split(",") for line in (out / "regions.csv").read_text().splitlines()[1:]]
        assert [float(row[2]) for row in rows] == [6.0, 12.0]

    def test_potential_loads_no_simulator_code(self, potential_inputs, tmp_path):
        """``potential`` loads the raster path only: after it, no simulator
        module and no ``multiprocessing`` is imported, and every exported name
        of the package still imports from it."""
        land_path, regions_path = potential_inputs
        out = tmp_path / "pot"
        command = [
            "potential", "--raster", str(land_path), "--regions", str(regions_path),
            "--yield-tilt", "1000", "--yield-vertical", "900", "--yield-tracking", "1100",
            "--out", str(out),
        ]
        unloaded = ["agrivolt.scenario", "agrivolt.electrical", "agrivolt.shading",
                    "agrivolt.sky", "multiprocessing"]
        script = (
            "import sys, agrivolt, agrivolt.cli\n"
            f"assert agrivolt.cli.main({command!r}) == 0\n"
            f"print([name for name in {unloaded!r} if name in sys.modules])\n"
            "for name in agrivolt.__all__:\n"
            "    exec(f'from agrivolt import {name}')\n"
            "print(sorted(set(agrivolt.__all__) - set(dir(agrivolt))))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(agrivolt.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]
        assert len(agrivolt.__all__) == 30
        assert (out / "regions.csv").exists()

    def test_run_commands_load_no_raster_code(self, cli_config, data_dir, tmp_path):
        """``validate`` of a config, weather and prices and ``simulate`` leave
        ``agrivolt.land`` unimported."""
        inputs = ["--config", str(cli_config), "--weather", str(data_dir / "weather.csv"),
                  "--prices", str(data_dir / "prices.csv")]
        env = {**os.environ, "PYTHONPATH": str(Path(agrivolt.__file__).parent.parent)}
        for command in (["validate", *inputs],
                        ["simulate", *inputs, "--out", str(tmp_path / "sim")]):
            script = (
                "import sys, agrivolt.cli\n"
                f"assert agrivolt.cli.main({command!r}) == 0\n"
                "print('agrivolt.land' in sys.modules)\n"
            )
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == "False", command[0]

    def test_readme_names_every_export(self):
        """Every name of ``agrivolt.__all__`` appears in README.md as a word."""
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        unnamed = [n for n in agrivolt.__all__ if not re.search(rf"(?<!\w){n}(?!\w)", readme)]
        assert unnamed == []

    @pytest.mark.skipif(
        shutil.which("agrivolt") is None,
        reason="no `agrivolt` console script on PATH (package not installed)",
    )
    def test_installed_help_runs(self):
        """An installed ``agrivolt`` console script runs ``--help`` and lists
        every subcommand. It checks the copy on ``PATH``, which may come from
        another checkout, so it runs only where that script exists."""
        proc = subprocess.run(
            [shutil.which("agrivolt"), "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        for word in SUBCOMMANDS:
            assert word in proc.stdout
