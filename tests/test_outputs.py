"""Artifact writers: exact headers, deterministic formatting, round-trips."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fixturegen
from agrivolt import outputs
from agrivolt.agronomy import CropThresholds, decision_point
from agrivolt.indicators import report
from agrivolt.land import RegionPotential
from agrivolt.scenario import case_id, combine_grids, expand_cases
from agrivolt.config import ScenarioConfig
from agrivolt.electrical import PanelModel, SimulationResult
from oracles import reference_write_ground_csv, reference_write_hourly_csv

INDICATOR_HEADER = (
    "scenario,kind,spacing_m,height_m,capacity_density_W_m2,"
    "electricity_yield_kWh_m2,price_weighted_yield_kWh_m2,"
    "shadow_losses_pct,specific_yield_kWh_kW"
)
HOURLY_HEADER = "time,P_W,T_cell_C,F_ES_front,F_ES_rear,G_eff_Wm2,P_noshadow_W"
DECISION_HEADER = (
    "scenario,kind,s,h,capacity_density,yield_kWh_m2,frac_low,frac_med,frac_high"
)
REGIONS_HEADER = (
    "region_id,total_km2,eligible_km2,share_pct,capacity_GW,"
    "energy_tilt_TWh,energy_vertical_TWh,energy_tracking_TWh"
)


class TestStaged:
    def test_new_out_gets_the_mode_of_mkdir(self, tmp_path):
        """A published new directory has the mode ``mkdir`` gives, not the
        private mode of a temporary directory, and nothing else is left."""
        out = tmp_path / "a" / "out"
        with outputs.staged(out) as staging:
            (staging / "x.csv").write_text("1\n")
        (tmp_path / "made").mkdir()
        assert out.stat().st_mode == (tmp_path / "made").stat().st_mode
        assert [p.name for p in out.iterdir()] == ["x.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "made"]

    def test_raising_block_leaves_nothing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(RuntimeError), outputs.staged(out) as staging:
            (staging / "x.csv").write_text("1\n")
            raise RuntimeError
        assert list(tmp_path.iterdir()) == []


class TestIndicatorsCsv:
    def test_header_and_rows(self, tmp_path, annual_reports):
        path = tmp_path / "indicators.csv"
        outputs.write_indicators_csv(path, list(annual_reports.values()))
        lines = path.read_text().splitlines()
        assert lines[0] == INDICATOR_HEADER
        assert len(lines) == 1 + len(annual_reports)
        first = lines[1].split(",")
        assert first[0] == "tilt_reference"
        assert first[1] == "tilt"
        assert first[2] == "6" and first[3] == "2"

    def test_price_column_blank_without_prices(self, tmp_path, annual_sims):
        rep = report(annual_sims["tilt"], "bare")
        path = tmp_path / "indicators.csv"
        outputs.write_indicators_csv(path, [rep])
        fields = path.read_text().splitlines()[1].split(",")
        assert fields[6] == ""

    def test_values_recoverable(self, tmp_path, annual_reports):
        rep = annual_reports["vertical"]
        path = tmp_path / "indicators.csv"
        outputs.write_indicators_csv(path, [rep])
        fields = path.read_text().splitlines()[1].split(",")
        assert float(fields[4]) == pytest.approx(rep.capacity_density_w_m2, abs=1e-6)
        assert float(fields[8]) == pytest.approx(rep.specific_yield_kwh_kw, abs=1e-6)


class TestHourlyCsv:
    def test_header_and_length(self, tmp_path, annual_sims):
        path = tmp_path / "hourly.csv"
        sim = annual_sims["tilt"]
        outputs.write_hourly_csv(path, sim, outputs.time_column(sim.times))
        lines = path.read_text().splitlines()
        assert lines[0] == HOURLY_HEADER
        assert len(lines) == 1 + 8760
        assert lines[1].startswith("2015-01-01T00:00:00Z,")

    def test_energy_reconstructs_from_power_column(self, tmp_path, annual_sims):
        sim = annual_sims["tracking"]
        path = tmp_path / "hourly.csv"
        outputs.write_hourly_csv(path, sim, outputs.time_column(sim.times))
        rows = path.read_text().splitlines()[1:]
        total_wh = sum(float(r.split(",")[1]) for r in rows)
        assert total_wh == pytest.approx(sim.p_w.sum(), rel=1e-6)


class TestMonthlyYield:
    def test_thirteen_lines_and_column_order(self, tmp_path, annual_sims):
        path = tmp_path / "monthly.csv"
        outputs.write_monthly_csv(path, {k: s for k, s in annual_sims.items()})
        lines = path.read_text().splitlines()
        assert lines[0] == "month,tilt,tracking,vertical"  # sorted ids
        assert len(lines) == 13
        assert [int(l.split(",")[0]) for l in lines[1:]] == list(range(1, 13))

    def test_monthly_arithmetic(self, annual_sims):
        sim = annual_sims["tilt"]
        daily = outputs.monthly_daily_yield(sim)
        assert len(daily) == 12
        january = sum(
            p for stamp, p in zip(sim.times.tolist(), sim.p_w) if stamp.month == 1
        )
        expected = january / 1000.0 / sim.layout.field_area / 31.0
        assert daily[0] == pytest.approx(expected, rel=1e-12)
        annual = sum(
            d * n
            for d, n in zip(daily, (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31))
        )
        assert annual == pytest.approx(sim.p_w.sum() / 1000.0 / sim.layout.field_area, rel=1e-9)

    def test_year_across_new_year(self, annual_sims):
        """A Jul 2015 - Jun 2016 year divides each month by the days it holds,
        29 for February 2016."""
        start = datetime(2015, 7, 1, tzinfo=timezone.utc)
        times = fixturegen.utc_stamps([start + timedelta(hours=i) for i in range(8784)])
        layout = annual_sims["tilt"].layout
        ones = np.full(len(times), 1000.0)  # 1 kWh in every hour
        sim = SimulationResult(layout, PanelModel(), times, ones, ones, ones, ones, ones, ones)
        expected = [24.0 / layout.field_area] * 12
        assert outputs.monthly_daily_yield(sim) == pytest.approx(expected, rel=1e-12)

    def test_summer_beats_winter(self, annual_sims):
        daily = outputs.monthly_daily_yield(annual_sims["tilt"])
        assert daily[5] > 3.0 * daily[11]


class TestGroundArtifacts:
    def test_csv_dimensions(self, tmp_path, july_maps):
        grid = july_maps["tilt"]
        path = tmp_path / "ground.csv"
        outputs.write_ground_csv(path, grid)
        lines = path.read_text().splitlines()
        ny, nx = grid.normalized.shape
        assert len(lines) == ny
        assert all(len(l.split(",")) == nx for l in lines)
        corner = float(lines[0].split(",")[0])
        assert corner == pytest.approx(grid.normalized[0, 0], abs=1e-6)

    def test_pgm_header_and_payload(self, tmp_path, july_maps):
        grid = july_maps["vertical"]
        path = tmp_path / "ground.pgm"
        outputs.write_ground_pgm(path, grid)
        blob = path.read_bytes()
        ny, nx = grid.normalized.shape
        header = f"P5\n{nx} {ny}\n65535\n".encode("ascii")
        assert blob.startswith(header)
        payload = blob[len(header):]
        assert len(payload) == 2 * nx * ny
        pixels = np.frombuffer(payload, dtype=">u2").reshape(ny, nx)
        expected = np.round(
            np.flipud(np.clip(grid.normalized, 0.0, 1.0)) * 65535
        ).astype(">u2")
        np.testing.assert_array_equal(pixels, expected)

    def test_pgm_top_row_is_northern_edge(self, tmp_path, july_maps):
        grid = july_maps["tilt"]
        path = tmp_path / "ground.pgm"
        outputs.write_ground_pgm(path, grid)
        blob = path.read_bytes()
        header_len = len(f"P5\n{grid.normalized.shape[1]} {grid.normalized.shape[0]}\n65535\n")
        pixels = np.frombuffer(blob[header_len:], dtype=">u2").reshape(
            grid.normalized.shape
        )
        north = np.round(grid.normalized[-1] * 65535).astype(">u2")
        np.testing.assert_array_equal(pixels[0], north)


class TestDecisionCsv:
    def test_header_and_fields(self, tmp_path):
        par = np.full((3, 3), 500.0)
        p = decision_point("tilt_s4.5_h1", "tilt", 4.5, 1.0, 46.0, 32.3, par, CropThresholds())
        path = tmp_path / "decision.csv"
        outputs.write_decision_csv(path, [p])
        lines = path.read_text().splitlines()
        assert lines[0] == DECISION_HEADER
        fields = lines[1].split(",")
        assert fields[:4] == ["tilt_s4.5_h1", "tilt", "4.5", "1"]
        assert float(fields[6]) == 1.0  # low met everywhere
        assert float(fields[8]) == 0.0  # high met nowhere


class TestComparisonsCsv:
    def test_normalized_specific_yield(self, tmp_path, annual_sims, prices):
        reports = [
            report(annual_sims[k], f"{k}_x", np.asarray(prices))
            for k in ("tilt", "vertical", "tracking")
        ]
        path = tmp_path / "comparisons.csv"
        outputs.write_comparisons_csv(path, reports)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("scenario,kind,s,h,specific_yield_kWh_kW")
        norms = [float(l.split(",")[5]) for l in lines[1:]]
        # single case per kind: each is its own best
        assert norms == [1.0, 1.0, 1.0]
        values = [float(l.split(",")[8]) for l in lines[1:]]
        assert all(0.5 < v < 1.5 for v in values)

    def test_normalization_within_kind(self, tmp_path, annual_sims, sky):
        from agrivolt.electrical import simulate_year
        from agrivolt.layout import build_layout

        dense = build_layout("tilt", 3.0, 2.0, field=(50.0, 50.0), latitude_deg=56.49)
        sparse = build_layout("tilt", 12.0, 2.0, field=(50.0, 50.0), latitude_deg=56.49)
        reports = [
            report(simulate_year(dense, sky), "dense"),
            report(simulate_year(sparse, sky), "sparse"),
        ]
        path = tmp_path / "comparisons.csv"
        outputs.write_comparisons_csv(path, reports)
        lines = path.read_text().splitlines()[1:]
        by_name = {l.split(",")[0]: l.split(",") for l in lines}
        assert float(by_name["sparse"][5]) == 1.0  # least shaded wins
        assert float(by_name["dense"][5]) < 1.0
        assert by_name["dense"][7] == "" and by_name["dense"][8] == ""


class TestRegionsAndSummary:
    def test_regions_header_and_kind_columns(self, tmp_path):
        pot = RegionPotential(
            region_id=3,
            total_km2=100.0,
            eligible_km2=40.0,
            share_pct=40.0,
            capacity_gw=1.2,
            energy_twh={"tilt": 1.0, "tracking": 1.3},
        )
        path = tmp_path / "regions.csv"
        outputs.write_regions_csv(path, [pot])
        lines = path.read_text().splitlines()
        assert lines[0] == REGIONS_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "3"
        assert float(fields[5]) == pytest.approx(1.0)
        assert float(fields[6]) == 0.0  # vertical absent, zero-filled
        assert float(fields[7]) == pytest.approx(1.3)

    def test_summary_sorted_key_value(self, tmp_path):
        path = tmp_path / "summary.csv"
        outputs.write_summary_csv(path, {"b_total": 2.0, "a_total": 1.0})
        lines = path.read_text().splitlines()
        assert lines[0] == "quantity,value"
        assert lines[1].startswith("a_total,")
        assert lines[2].startswith("b_total,")


class TestCaseEnumeration:
    def test_case_id_format(self):
        assert case_id("tilt", 6.0, 2.0) == "tilt_s6_h2"
        assert case_id("tilt", 4.5, 1.0) == "tilt_s4.5_h1"
        assert case_id("vertical", 12.0, 3.0) == "vertical_s12_h3"

    def test_expand_cases_kind_major_order(self, foulum):
        config = ScenarioConfig(
            location=foulum,
            kinds=("tilt", "vertical"),
            spacings=(3.0, 6.0),
            heights=(1.0, 2.0),
        )
        cases = expand_cases(config)
        assert len(cases) == 8
        assert [c.scenario for c in cases[:4]] == [
            "tilt_s3_h1",
            "tilt_s3_h2",
            "tilt_s6_h1",
            "tilt_s6_h2",
        ]
        assert cases[4].kind == "vertical"

    def test_full_catalogue_size(self, foulum):
        config = ScenarioConfig(
            location=foulum,
            kinds=("tilt", "vertical", "tracking"),
            spacings=(3.0, 4.5, 6.0, 7.5, 9.0, 12.0),
            heights=(1.0, 2.0, 3.0),
        )
        assert len(expand_cases(config)) == 54


class TestCombineGrids:
    def test_sums_components(self, july_maps):
        grid = july_maps["tilt"]
        double = combine_grids([grid, grid])
        np.testing.assert_allclose(double.blocked_direct, 2.0 * grid.blocked_direct)
        np.testing.assert_allclose(double.unshaded_total, 2.0 * grid.unshaded_total)
        assert double.daylight_hours == 2 * grid.daylight_hours
        assert double.cell_size == grid.cell_size
        # normalization is scale-free: doubling both terms changes nothing
        np.testing.assert_allclose(double.normalized, grid.normalized, rtol=1e-12)


#: Values whose text is easy to get wrong: signed zero, nan, infinities,
#: the largest magnitudes and the smallest subnormal.
AWKWARD = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, 5e-324, -5e-324, 0.5e-6])


def _hourly_result(layout, values: np.ndarray) -> SimulationResult:
    """Six hourly columns holding ``values`` rolled by one place each."""
    start = datetime(2015, 1, 1, tzinfo=timezone.utc)
    times = fixturegen.utc_stamps([start + timedelta(hours=i) for i in range(len(values))])
    columns = [np.roll(values, k) for k in range(6)]
    return SimulationResult(layout, PanelModel(), times, *columns)


class TestBulkWritersMatchReference:
    """The bulk hourly and ground writers against the per-value reference
    writers of ``oracles``, byte for byte."""

    @staticmethod
    def _same_hourly(tmp_path, sim):
        bulk, ref = tmp_path / "bulk.csv", tmp_path / "ref.csv"
        outputs.write_hourly_csv(bulk, sim, outputs.time_column(sim.times))
        reference_write_hourly_csv(ref, sim)
        assert bulk.read_bytes() == ref.read_bytes()

    @staticmethod
    def _same_ground(tmp_path, grid):
        bulk, ref = tmp_path / "bulk.csv", tmp_path / "ref.csv"
        outputs.write_ground_csv(bulk, grid)
        reference_write_ground_csv(ref, grid)
        assert bulk.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("kind", ["tilt", "vertical", "tracking"])
    def test_fixture_years(self, tmp_path, annual_sims, july_maps, kind):
        self._same_hourly(tmp_path, annual_sims[kind])
        self._same_ground(tmp_path, july_maps[kind])

    def test_awkward_values(self, tmp_path, annual_sims):
        self._same_hourly(tmp_path, _hourly_result(annual_sims["tilt"].layout, AWKWARD))
        square = np.concatenate([AWKWARD, AWKWARD[::-1]]).reshape(4, 5)
        self._same_ground(tmp_path, SimpleNamespace(normalized=square))

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(values=st.lists(st.floats(width=64), min_size=1, max_size=12))
    def test_any_floats(self, tmp_path, annual_sims, values):
        array = np.array(values)
        self._same_hourly(tmp_path, _hourly_result(annual_sims["tilt"].layout, array))
        self._same_ground(tmp_path, SimpleNamespace(normalized=array.reshape(1, -1)))
        self._same_ground(tmp_path, SimpleNamespace(normalized=array.reshape(-1, 1)))
