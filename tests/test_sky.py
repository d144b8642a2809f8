"""Transposition of horizontal irradiance onto collector planes."""

from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixturegen
import oracles
from agrivolt.errors import InputError
from agrivolt.sky import (
    MIN_SUN_ALTITUDE,
    SkyYear,
    albedo_on_plane,
    anisotropy_index,
    check_full_year,
    diffuse_fraction,
    diffuse_on_plane,
    direct_on_plane,
    horizon_brightening,
    plane_irradiance,
    sky_year,
)
from agrivolt.solar import GeoLocation, PlaneOrientation, SolarPosition, incidence_angle

NOON = datetime(2015, 7, 1, 12, 0, tzinfo=timezone.utc)


def hour(bhi: float, dhi: float, sun: SolarPosition, toa: float) -> SkyYear:
    """The sky of one hour for a given sun, derived as ``sky_year`` does."""
    ghi = bhi + dhi
    k_hori = horizon_brightening(diffuse_fraction(dhi, ghi), sun.altitude)
    values = (bhi, dhi, ghi, 15.0, 4.0, NOON.month, sun.altitude, sun.azimuth, toa,
              anisotropy_index(bhi, toa), k_hori)
    return SkyYear(fixturegen.utc_stamps([NOON]), *(np.array([v]) for v in values))


class TestComponents:
    def test_anisotropy_is_beam_over_toa(self):
        assert anisotropy_index(300.0, 900.0) == pytest.approx(1.0 / 3.0)

    def test_anisotropy_clamped_to_one(self):
        assert anisotropy_index(1000.0, 800.0) == 1.0

    def test_anisotropy_zero_when_dark(self):
        assert anisotropy_index(0.0, 900.0) == 0.0
        assert anisotropy_index(100.0, 0.0) == 0.0

    def test_diffuse_fraction(self):
        assert diffuse_fraction(100.0, 400.0) == pytest.approx(0.25)
        assert diffuse_fraction(0.0, 0.0) == 1.0

    def test_horizon_brightening_clear_sky_zenith(self):
        """Fully clear sky, sun at zenith: 1 + sin^3(45 deg)."""
        expected = 1.0 + math.sin(math.radians(45.0)) ** 3
        assert horizon_brightening(0.0, 0.5 * math.pi) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(1.3535533906, rel=1e-9)

    def test_horizon_brightening_overcast_is_unity(self):
        assert horizon_brightening(1.0, math.radians(60.0)) == 1.0

    def test_horizon_brightening_below_horizon_is_unity(self):
        assert horizon_brightening(0.3, -0.2) == 1.0

    def test_direct_on_plane_formula(self):
        sun = SolarPosition(altitude=math.radians(40.0), azimuth=math.radians(20.0))
        plane = PlaneOrientation(tilt=math.radians(35.0), azimuth=0.0)
        cos_inc = (
            math.sin(sun.altitude) * math.cos(plane.tilt)
            + math.cos(sun.altitude) * math.sin(plane.tilt)
            * math.cos(sun.azimuth - plane.azimuth)
        )
        expected = 500.0 * cos_inc / math.sin(sun.altitude)
        assert direct_on_plane(500.0, sun.altitude, incidence_angle(sun, plane)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_direct_zero_below_altitude_guard(self):
        sun = SolarPosition(altitude=MIN_SUN_ALTITUDE * 0.5, azimuth=0.0)
        plane = PlaneOrientation(tilt=math.radians(30.0), azimuth=0.0)
        incidence = incidence_angle(sun, plane)
        assert direct_on_plane(200.0, sun.altitude, incidence) == 0.0

    def test_direct_zero_behind_plane(self):
        sun = SolarPosition(altitude=math.radians(10.0), azimuth=0.0)
        north_wall = PlaneOrientation(tilt=0.5 * math.pi, azimuth=math.pi)
        incidence = incidence_angle(sun, north_wall)
        assert direct_on_plane(400.0, sun.altitude, incidence) == 0.0

    def test_albedo_on_plane(self):
        flat = PlaneOrientation(tilt=0.0, azimuth=0.0)
        wall = PlaneOrientation(tilt=0.5 * math.pi, azimuth=0.0)
        assert albedo_on_plane(500.0, flat.tilt, albedo=0.2) == 0.0
        assert albedo_on_plane(500.0, wall.tilt, albedo=0.2) == pytest.approx(
            0.2 * 500.0 * 0.5, rel=1e-12
        )


class TestHorizontalIdentity:
    """On a horizontal plane the transposition must return the inputs."""

    def test_flat_plane_reproduces_horizontal_components(self):
        sun = SolarPosition(altitude=math.radians(35.0), azimuth=math.radians(-30.0))
        flat = PlaneOrientation(tilt=0.0, azimuth=0.0)
        toa = 900.0
        poa = plane_irradiance(hour(420.0, 180.0, sun, toa), flat, incidence_angle(sun, flat))

        k1 = anisotropy_index(420.0, toa)
        k_hori = horizon_brightening(diffuse_fraction(180.0, 600.0), sun.altitude)
        assert poa.direct == pytest.approx(420.0, rel=1e-12)
        assert poa.circumsolar == pytest.approx(k1 * 180.0, rel=1e-12)
        assert poa.isotropic == pytest.approx(k_hori * (1.0 - k1) * 180.0, rel=1e-12)
        assert poa.reflected == 0.0
        assert poa.beamlike == pytest.approx(poa.direct + poa.circumsolar, rel=1e-12)


class TestDiffuseOnPlane:
    def test_circumsolar_follows_beam_geometry(self):
        sun = SolarPosition(altitude=math.radians(30.0), azimuth=0.0)
        plane = PlaneOrientation(tilt=math.radians(45.0), azimuth=0.0)
        k1 = 0.4
        incidence = incidence_angle(sun, plane)
        circ, _ = diffuse_on_plane(200.0, sun.altitude, plane.tilt, incidence, k1, 1.0)
        cos_inc = math.cos(
            math.acos(
                math.sin(sun.altitude) * math.cos(plane.tilt)
                + math.cos(sun.altitude) * math.sin(plane.tilt)
            )
        )
        assert circ == pytest.approx(
            k1 * 200.0 * cos_inc / math.sin(sun.altitude), rel=1e-9
        )

    def test_isotropic_sees_sky_view_factor(self):
        sun = SolarPosition(altitude=math.radians(30.0), azimuth=0.0)
        for tilt_deg in (0.0, 45.0, 90.0):
            plane = PlaneOrientation(tilt=math.radians(tilt_deg), azimuth=0.0)
            incidence = incidence_angle(sun, plane)
            _, iso = diffuse_on_plane(200.0, sun.altitude, plane.tilt, incidence, 0.0, 1.0)
            sky_view = 0.5 * (1.0 + math.cos(plane.tilt))
            assert iso == pytest.approx(200.0 * sky_view, rel=1e-12)

    def test_nonnegative_components_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            sun = SolarPosition(
                altitude=math.radians(rng.uniform(-5.0, 85.0)),
                azimuth=math.radians(rng.uniform(-179.0, 179.0)),
            )
            plane = PlaneOrientation(
                tilt=math.radians(rng.uniform(0.0, 90.0)),
                azimuth=math.radians(rng.uniform(-179.0, 179.0)),
            )
            bhi = rng.uniform(0.0, 800.0)
            dhi = rng.uniform(0.0, 400.0)
            toa = rng.uniform(0.0, 1200.0)
            poa = plane_irradiance(
                hour(bhi, dhi, sun, toa), plane, incidence_angle(sun, plane)
            )
            assert poa.direct >= 0.0
            assert poa.circumsolar >= 0.0
            assert poa.isotropic >= 0.0
            assert poa.reflected >= 0.0


COLUMNS = oracles.SKY_COLUMNS


def assert_bitwise_equal(got: np.ndarray, want: np.ndarray, name: str) -> None:
    """Equal bits, so that -0.0 and 0.0 differ."""
    assert got.dtype == want.dtype and got.shape == want.shape, name
    mismatch = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert mismatch.size == 0, (name, mismatch[:5], got[mismatch[:5]], want[mismatch[:5]])


class TestSkyYear:
    def test_each_hour_matches_its_own_derivation(self, sky, weather_rows, foulum):
        """Every column at every hour equals the per-hour derivation: the sun
        of that hour alone, and the TOA, k1 and k_hori it implies."""
        want_times = fixturegen.utc_stamps([s.time for s in weather_rows])
        np.testing.assert_array_equal(sky.times, want_times)
        want = oracles.reference_sky_columns(foulum, weather_rows)
        for name in COLUMNS:
            assert_bitwise_equal(getattr(sky, name), want[name], name)

    @settings(max_examples=25, deadline=None)
    @given(
        latitude=st.floats(min_value=-90.0, max_value=90.0),
        longitude=st.floats(min_value=-180.0, max_value=180.0),
        year=st.integers(min_value=1950, max_value=2100),
        start_hour=st.integers(min_value=0, max_value=8759),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(latitude=-89.9, longitude=-179.9, year=2016, start_hour=0, seed=1)
    @example(latitude=89.9, longitude=179.9, year=2015, start_hour=5000, seed=2)
    @example(latitude=56.49, longitude=9.57, year=2070, start_hour=3000, seed=3)
    @example(latitude=90.0, longitude=180.0, year=2100, start_hour=0, seed=4)
    @example(latitude=-90.0, longitude=-180.0, year=1950, start_hour=0, seed=5)
    def test_any_site_and_year_matches_per_hour_derivation(
        self, latitude, longitude, year, start_hour, seed
    ):
        """366 days of hours from any start (a whole leap year, or across New
        Year; cut at the end of 2100) at any site, with dark, overcast, clear
        and over-TOA hours and signed zeros in the weather, match the per-hour
        derivation."""
        start = datetime(year, 1, 1, tzinfo=timezone.utc) + timedelta(hours=start_hour)
        times = [t for t in (start + timedelta(hours=i) for i in range(8784)) if t.year <= 2100]
        rng = np.random.default_rng(seed)
        n = len(times)
        choice = rng.integers(0, 4, size=(3, n))
        bhi, dhi, ghi = (
            np.select([c == 0, c == 1, c == 2], [0.0, -0.0, rng.uniform(0.0, 1500.0, n)],
                      rng.uniform(0.0, 5.0, n))
            for c in choice
        )
        rows = [
            oracles.IrradianceSample(t, b, d, g, 10.0, 3.0)
            for t, b, d, g in zip(times, bhi.tolist(), dhi.tolist(), ghi.tolist())
        ]
        location = GeoLocation(latitude=latitude, longitude=longitude)
        got = sky_year(location, fixturegen.weather_columns(rows))
        want = oracles.reference_sky_columns(location, rows)
        np.testing.assert_array_equal(got.times, fixturegen.utc_stamps(times))
        for name in COLUMNS:
            assert_bitwise_equal(getattr(got, name), want[name], name)

    def test_columns_are_float64_per_hour(self, sky):
        assert len(sky) == len(sky.times) == 8760
        assert sky.month.dtype == np.int64
        for name in COLUMNS[1:]:
            column = getattr(sky, name)
            assert column.dtype == np.float64 and column.shape == (8760,), name

    def test_take_selects_rows_in_order(self, sky):
        """A mask, a slice and an index array pick the same hours of every column."""
        july = sky.take(sky.month == 7)
        assert len(july) == 31 * 24
        assert {t.month for t in july.times.tolist()} == {7}
        by_slice = sky.take(slice(4344, 4344 + 744))
        reordered = sky.take(np.arange(4344 + 743, 4343, -1))
        for name in COLUMNS:
            np.testing.assert_array_equal(getattr(july, name), getattr(by_slice, name))
            np.testing.assert_array_equal(getattr(reordered, name), getattr(july, name)[::-1])
        np.testing.assert_array_equal(reordered.times, july.times[::-1])

    def test_full_year_needs_hourly_steps(self, sky):
        swapped = sky.take(np.r_[0:100, 101, 100, 102:8760])
        with pytest.raises(InputError, match=r"not hourly after 2015-01-05T03:00.*step 2:00"):
            check_full_year(swapped.times)
