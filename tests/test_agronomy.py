"""Photosynthetic light conversion and crop-suitability decision points."""

from __future__ import annotations

import numpy as np
import pytest

from agrivolt.agronomy import (
    GROWING_MONTHS,
    CropThresholds,
    DecisionPoint,
    crop_fraction,
    decision_point,
    par_flux,
    sort_decision_points,
)


class TestParFlux:
    def test_reference_conversion(self):
        """Full-sun global irradiance converts to roughly 1960 umol/m2/s of
        photosynthetically active photons."""
        assert par_flux(1000.0) == pytest.approx(1960.0, abs=1.0)

    def test_half_sun(self):
        assert par_flux(500.0) == pytest.approx(980.4, abs=0.5)

    def test_linearity(self):
        assert par_flux(200.0) == pytest.approx(par_flux(100.0) * 2.0, rel=1e-12)

    def test_zero(self):
        assert par_flux(0.0) == 0.0

    def test_array_input(self):
        g = np.array([0.0, 250.0, 1000.0])
        out = par_flux(g)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(4.0 * out[1], rel=1e-12)


class TestCropFraction:
    def test_all_above(self):
        par = np.full((4, 4), 900.0)
        assert crop_fraction(par, 250.0) == 1.0

    def test_none_above(self):
        par = np.full((4, 4), 100.0)
        assert crop_fraction(par, 250.0) == 0.0

    def test_threshold_inclusive(self):
        par = np.array([[250.0, 249.9], [250.1, 0.0]])
        assert crop_fraction(par, 250.0) == pytest.approx(0.5, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            crop_fraction(np.empty((0, 0)), 250.0)


class TestCropThresholds:
    def test_defaults(self):
        th = CropThresholds()
        assert (th.low, th.medium, th.high) == (250.0, 450.0, 650.0)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            CropThresholds(low=500.0, medium=400.0, high=650.0)
        with pytest.raises(ValueError):
            CropThresholds(low=100.0, medium=400.0, high=300.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CropThresholds(low=-10.0, medium=450.0, high=650.0)


class TestGrowingSeason:
    def test_default_months(self):
        assert GROWING_MONTHS == (4, 5, 6, 7, 8, 9)


class TestDecisionPoint:
    def test_fraction_ordering(self):
        """Higher light demands are never met on a larger share of the field."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            par = rng.uniform(0.0, 1200.0, size=(12, 12))
            point = decision_point(
                "x", "tilt", 6.0, 2.0, 40.0, 30.0, par, CropThresholds()
            )
            assert 0.0 <= point.frac_high <= point.frac_med <= point.frac_low <= 1.0

    def test_fractions_match_crop_fraction(self):
        par = np.linspace(0.0, 1000.0, 121).reshape(11, 11)
        th = CropThresholds(low=200.0, medium=500.0, high=800.0)
        point = decision_point("x", "vertical", 3.0, 1.0, 20.0, 15.0, par, th)
        assert point.frac_low == pytest.approx(crop_fraction(par, 200.0))
        assert point.frac_med == pytest.approx(crop_fraction(par, 500.0))
        assert point.frac_high == pytest.approx(crop_fraction(par, 800.0))

    def test_metadata(self):
        par = np.full((3, 3), 500.0)
        point = decision_point("s", "tracking", 4.5, 2.0, 55.0, 44.0, par, CropThresholds())
        assert point.scenario == "s"
        assert point.kind == "tracking"
        assert point.spacing == 4.5
        assert point.height == 2.0
        assert point.capacity_density_w_m2 == 55.0
        assert point.electricity_yield_kwh_m2 == 44.0


class TestSortDecisionPoints:
    @staticmethod
    def _point(name, yield_kwh):
        par = np.full((2, 2), 500.0)
        return decision_point(name, "tilt", 6.0, 2.0, 40.0, yield_kwh, par, CropThresholds())

    def test_descending_yield(self):
        pts = [self._point("a", 10.0), self._point("b", 30.0), self._point("c", 20.0)]
        out = sort_decision_points(pts)
        assert [p.electricity_yield_kwh_m2 for p in out] == [30.0, 20.0, 10.0]

    def test_stable_tie_break_by_name(self):
        pts = [self._point("z", 10.0), self._point("a", 10.0)]
        out = sort_decision_points(pts)
        assert [p.scenario for p in out] == ["a", "z"]

    def test_returns_new_list(self):
        pts = [self._point("a", 1.0)]
        out = sort_decision_points(pts)
        assert out is not pts
        assert all(isinstance(p, DecisionPoint) for p in out)


class TestSeasonalParOnRealMaps:
    def test_open_ground_meets_low_and_medium_demand(self, weather):
        """With no panels at all, the growing-season daytime PAR at this site
        averages around 476 umol/m2/s, comfortably above the default low and
        medium demands but below the high one."""
        ghi = weather.ghi
        months = np.array([t.month for t in weather.times.tolist()])
        mask = (ghi > 0.0) & np.isin(months, GROWING_MONTHS)
        open_par = float(np.mean(par_flux(ghi[mask])))
        assert open_par == pytest.approx(476.0, abs=15.0)
        th = CropThresholds()
        assert open_par > th.medium > th.low
        assert open_par < th.high
