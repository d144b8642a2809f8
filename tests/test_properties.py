"""Property-based invariants over the pure numeric kernels.

These complement the anchored unit tests: instead of frozen values they
assert bounds, monotonicity and algebraic identities over generated
inputs, so edge floats (tiny, huge, boundary-adjacent) get exercised.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrivolt.agronomy import par_flux
from agrivolt.electrical import (
    PanelModel,
    angular_loss,
    cell_temperature,
    power_output,
    wind_at_module,
)
from agrivolt.indicators import shadow_losses
from agrivolt.shading import effective_shading_factor
import oracles
from agrivolt.sky import anisotropy_index, diffuse_fraction, horizon_brightening
from agrivolt.solar import (
    PlaneOrientation,
    SolarPosition,
    incidence_angle,
    plane_normal,
    sun_vector,
)

NOON = datetime(2015, 6, 1, 12, tzinfo=timezone.utc)

angles = st.floats(min_value=0.0, max_value=0.5 * math.pi, allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
irradiance = st.floats(min_value=0.0, max_value=1400.0, allow_nan=False)


def sample(bhi: float, dhi: float, ghi: float) -> oracles.IrradianceSample:
    return oracles.IrradianceSample(
        time=NOON, bhi=bhi, dhi=dhi, ghi=ghi, temp_air=15.0, wind10=3.0
    )


class TestShadingFactor:
    @given(f_gs=fractions, n_sb=st.integers(min_value=0, max_value=3))
    def test_bounded(self, f_gs, n_sb):
        f_es = effective_shading_factor(f_gs, n_sb)
        assert 0.0 <= f_es <= 1.0

    @given(f_gs=fractions, n_sb=st.integers(min_value=0, max_value=3))
    def test_at_least_geometric(self, f_gs, n_sb):
        """Bypass-block losses only ever add to the geometric shadow."""
        assert effective_shading_factor(f_gs, n_sb) >= f_gs - 1e-12

    @given(f_gs=fractions)
    def test_no_blocked_strings_degrades_to_geometry(self, f_gs):
        # 1 - (1 - x) can land one ulp away from x, hence the tolerance.
        assert effective_shading_factor(f_gs, 0) == pytest.approx(f_gs, abs=1e-12)

    @given(
        f_lo=fractions,
        f_hi=fractions,
        n_lo=st.integers(min_value=0, max_value=3),
        n_hi=st.integers(min_value=0, max_value=3),
    )
    def test_monotone_in_both_arguments(self, f_lo, f_hi, n_lo, n_hi):
        f_lo, f_hi = sorted((f_lo, f_hi))
        n_lo, n_hi = sorted((n_lo, n_hi))
        assert (
            effective_shading_factor(f_hi, n_hi)
            >= effective_shading_factor(f_lo, n_lo) - 1e-12
        )


class TestAngularLoss:
    @given(theta=st.floats(min_value=0.0, max_value=math.pi, allow_nan=False))
    def test_bounded(self, theta):
        assert 0.0 <= angular_loss(theta) <= 1.0

    @given(a=angles, b=angles)
    def test_monotone(self, a, b):
        a, b = sorted((a, b))
        assert angular_loss(b) >= angular_loss(a) - 1e-12


class TestThermal:
    @given(
        temp=st.floats(min_value=-40.0, max_value=50.0, allow_nan=False),
        g=irradiance,
        wind=st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    )
    def test_sun_never_cools_the_cell(self, temp, g, wind):
        assert cell_temperature(temp, g, wind) >= temp

    @given(
        wind=st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
        height=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    def test_module_wind_below_reference_under_10m(self, wind, height):
        assert wind_at_module(wind, height) <= wind + 1e-12

    @given(
        g=irradiance, temp=st.floats(min_value=-40.0, max_value=90.0, allow_nan=False)
    )
    def test_power_never_negative(self, g, temp):
        power, _, _ = power_output(g, temp, 2.0, 1000.0, PanelModel())
        assert power >= 0.0


class TestSkyFactors:
    @given(bhi=irradiance, toa=st.floats(min_value=0.0, max_value=1400.0, allow_nan=False))
    def test_anisotropy_bounded(self, bhi, toa):
        k1 = anisotropy_index(bhi, toa)
        assert 0.0 <= k1 <= 1.0

    @given(bhi=irradiance, dhi=irradiance)
    def test_diffuse_fraction_bounded(self, bhi, dhi):
        k_d = diffuse_fraction(dhi, bhi + dhi)
        assert 0.0 <= k_d <= 1.0

    @given(
        k_d=fractions,
        alt=st.floats(min_value=-0.5 * math.pi, max_value=0.5 * math.pi, allow_nan=False),
    )
    def test_horizon_brightening_bounded(self, k_d, alt):
        k = horizon_brightening(k_d, alt)
        assert 1.0 <= k <= 2.0

    @given(
        hours=st.lists(
            st.tuples(
                st.sampled_from([0.0, -0.0, 1e-300]) | irradiance,
                st.sampled_from([0.0, -0.0, 1e-300]) | irradiance,
                st.sampled_from([0.0, -0.0, 1e-300]) | irradiance,
                st.sampled_from([0.0, -0.0]) | st.floats(min_value=-1.0, max_value=1400.0),
                st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                st.floats(min_value=-0.5 * math.pi, max_value=0.5 * math.pi),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_array_forms_keep_the_bits_of_each_hour(self, hours):
        """The array forms give every hour the bits of the per-hour forms,
        signed zeros and out-of-range diffuse fractions included."""
        bhi, dhi, ghi, toa, k_d, alt = (np.array(c) for c in zip(*hours))
        rows = [sample(*h[:3]) for h in hours]
        got = np.concatenate(
            [anisotropy_index(bhi, toa), diffuse_fraction(dhi, ghi), horizon_brightening(k_d, alt)]
        )
        want = np.array(
            [oracles.anisotropy_index(r, h[3]) for r, h in zip(rows, hours)]
            + [oracles.diffuse_fraction(r) for r in rows]
            + [oracles.horizon_brightening(h[4], h[5]) for h in hours]
        )
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestGeometry:
    @given(
        alt=st.floats(min_value=-0.5 * math.pi, max_value=0.5 * math.pi, allow_nan=False),
        az=st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
    )
    def test_sun_vector_is_unit(self, alt, az):
        v = sun_vector(SolarPosition(altitude=alt, azimuth=az))
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)

    @given(
        tilt=st.floats(min_value=0.0, max_value=0.5 * math.pi, allow_nan=False),
        p_az=st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
        alt=st.floats(min_value=0.0, max_value=0.5 * math.pi, allow_nan=False),
        s_az=st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
    )
    def test_incidence_in_range(self, tilt, p_az, alt, s_az):
        orient = PlaneOrientation(tilt=tilt, azimuth=p_az)
        sun = SolarPosition(altitude=alt, azimuth=s_az)
        theta = incidence_angle(sun, orient)
        assert 0.0 <= theta <= math.pi
        dot = float(np.dot(plane_normal(orient), sun_vector(sun)))
        assert math.cos(theta) == pytest.approx(dot, abs=1e-9)


class TestConversions:
    @given(g=irradiance)
    def test_par_nonnegative_and_linear(self, g):
        assert par_flux(g) >= 0.0
        assert par_flux(2.0 * g) == pytest.approx(2.0 * par_flux(g), rel=1e-9, abs=1e-12)

    @settings(max_examples=50)
    @given(
        data=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        scale=fractions,
    )
    def test_shadow_losses_percentage_range(self, data, scale):
        full = np.asarray(data)
        part = full * scale
        loss = shadow_losses(part, full)
        assert -1e-9 <= loss <= 100.0 + 1e-9


class TestHostNumerics:
    """The array yield model keeps the bits of the per-hour model only while
    these hold for the installed numpy and BLAS; a change that breaks one
    fails here by name, not only in the golden digests."""

    @staticmethod
    def vectors(rng, n):
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
        return rng.standard_normal((n, 3)) * scale

    def test_vecdot_equals_dot_on_3_vectors(self):
        rng = np.random.default_rng(20150101)
        a, b = self.vectors(rng, 20000), self.vectors(rng, 20000)
        rows = np.vecdot(a, b)
        broadcast = np.vecdot(a, b[0])
        for i in range(len(a)):
            assert rows[i] == np.dot(a[i], b[i]), i
            assert broadcast[i] == np.dot(a[i], b[0]), i
            assert np.vecdot(a[i], b[i]) == np.dot(a[i], b[i]), i

    def test_sqrt_vecdot_equals_norm(self):
        rng = np.random.default_rng(7)
        a = self.vectors(rng, 20000)
        norms = np.sqrt(np.vecdot(a, a))
        for i in range(len(a)):
            assert norms[i] == np.linalg.norm(a[i]), i

    def test_remainder_and_radians_equal_python(self):
        """The sun's mean longitude, anomaly and sidereal time: ``%`` and
        ``math.radians`` over the day numbers of 1950-2100, and beyond."""
        rng = np.random.default_rng(13)
        days = np.concatenate(
            [rng.uniform(-18300.0, 36900.0, 100000), rng.uniform(-1e7, 1e7, 20000),
             [-720.0, -360.0, -0.0, 0.0, 360.0]]
        )
        bits = np.int64
        for x in (280.460 + 0.9856474 * days, 280.46061837 + 360.98564736629 * days, days):
            values = x.tolist()
            remainders = np.array([v % 360.0 for v in values])
            assert (np.remainder(x, 360.0).view(bits) == remainders.view(bits)).all()
            radians = np.array([math.radians(v) for v in values])
            assert (np.radians(x).view(bits) == radians.view(bits)).all()

    def test_sqrt_equals_math(self):
        rng = np.random.default_rng(17)
        x = np.concatenate([rng.uniform(0.0, 1.0, 100000), [0.0, -0.0, 1.0, 5e-324]])
        roots = np.array([math.sqrt(v) for v in x.tolist()])
        assert (np.sqrt(x).view(np.int64) == roots.view(np.int64)).all()

    def test_sin_cos_equal_math(self):
        rng = np.random.default_rng(11)
        x = np.concatenate(
            [rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 100000), rng.uniform(-1e6, 1e6, 20000)]
        )
        values = x.tolist()
        assert np.sin(x).tolist() == [math.sin(v) for v in values]
        assert np.cos(x).tolist() == [math.cos(v) for v in values]
