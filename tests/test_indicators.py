"""Per-scenario summary indicators and their internal consistency."""

from __future__ import annotations

import numpy as np
import pytest

from agrivolt.errors import InputError
from agrivolt.indicators import IndicatorReport, report, shadow_losses


class TestReportConsistency:
    def test_yield_density_specific_yield_identity(self, annual_reports):
        """yield [kWh/m2] = density [W/m2] x specific yield [kWh/kW] / 1000."""
        for rep in annual_reports.values():
            reconstructed = (
                rep.capacity_density_w_m2 * rep.specific_yield_kwh_kw / 1000.0
            )
            assert rep.electricity_yield_kwh_m2 == pytest.approx(
                reconstructed, rel=1e-9
            )

    def test_density_is_capacity_over_ground(self, annual_sims, annual_reports):
        for kind, rep in annual_reports.items():
            sim = annual_sims[kind]
            assert rep.capacity_density_w_m2 == pytest.approx(
                sim.capacity_w / sim.layout.field_area, rel=1e-12
            )

    def test_shadow_losses_match_energy_gap(self, annual_sims, annual_reports):
        for kind, rep in annual_reports.items():
            sim = annual_sims[kind]
            expected = 100.0 * (1.0 - sim.p_w.sum() / sim.p_noshadow_w.sum())
            assert rep.shadow_losses_pct == pytest.approx(expected, rel=1e-9)

    def test_flat_prices_leave_yield_unweighted(self, annual_sims):
        flat = [42.0] * 8760
        rep = report(annual_sims["tilt"], "flat", flat)
        assert rep.price_weighted_yield_kwh_m2 == pytest.approx(
            rep.electricity_yield_kwh_m2, rel=1e-9
        )

    def test_price_scale_invariance(self, annual_sims, prices):
        """Weighting normalizes by the mean price, so scaling every price by
        a constant changes nothing."""
        doubled = [2.0 * p for p in prices]
        rep_base = report(annual_sims["tilt"], "x", prices)
        rep_doubled = report(annual_sims["tilt"], "x", doubled)
        assert rep_doubled.price_weighted_yield_kwh_m2 == pytest.approx(
            rep_base.price_weighted_yield_kwh_m2, rel=1e-12
        )

    def test_expensive_midday_rewards_midday_producers(self, annual_sims):
        """A price series paying only around midday boosts the weighted yield
        relative to one paying only at the edges of the day."""
        sim = annual_sims["tilt"]
        n = len(sim.p_w)
        hours = np.arange(n) % 24
        midday = np.where((hours >= 10) & (hours <= 14), 100.0, 1.0)
        edges = np.where((hours <= 5) | (hours >= 20), 100.0, 1.0)
        rep_mid = report(sim, "mid", midday.tolist())
        rep_edge = report(sim, "edge", edges.tolist())
        assert (
            rep_mid.price_weighted_yield_kwh_m2
            > rep_edge.price_weighted_yield_kwh_m2
        )

    def test_no_prices_leaves_field_none(self, annual_sims):
        rep = report(annual_sims["tilt"], "bare")
        assert rep.price_weighted_yield_kwh_m2 is None

    def test_metadata_passthrough(self, annual_sims):
        rep = report(annual_sims["vertical"], "named")
        assert rep.scenario == "named"
        assert rep.kind == "vertical"
        assert rep.spacing == 6.0
        assert rep.height == 2.0
        assert isinstance(rep, IndicatorReport)

    def test_price_length_mismatch(self, annual_sims):
        with pytest.raises(InputError, match="8760"):
            report(annual_sims["tilt"], "short", [10.0] * 100)

    def test_zero_mean_price_rejected(self, annual_sims):
        with pytest.raises(InputError):
            report(annual_sims["tilt"], "freebies", [0.0] * 8760)


class TestShadowLosses:
    def test_no_loss(self):
        hourly = np.array([100.0, 200.0, 300.0])
        assert shadow_losses(hourly, hourly) == 0.0

    def test_half_loss(self):
        full = np.array([100.0, 200.0, 300.0])
        assert shadow_losses(0.5 * full, full) == pytest.approx(50.0, rel=1e-12)

    def test_zero_reference(self):
        zero = np.zeros(3)
        assert shadow_losses(zero, zero) == 0.0
