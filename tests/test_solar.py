"""Sun position, incidence geometry, and tracker rotation."""

from __future__ import annotations

import math
from datetime import datetime, timezone

import numpy as np
import pytest

from agrivolt.solar import (
    SOLAR_CONSTANT,
    GeoLocation,
    PlaneOrientation,
    SolarPosition,
    eccentricity_correction,
    incidence_angle,
    plane_normal,
    solar_position,
    sun_vector,
    toa_horizontal,
    tracking_orientation,
)
from oracles import sweep_min_incidence

FOULUM = GeoLocation(latitude=56.49, longitude=9.57)


def utc(*args) -> np.datetime64:
    return np.datetime64(datetime(*args), "us")


class TestSolarPosition:
    def test_against_published_reference(self):
        """NREL SPA example: Golden, Colorado, 2003-10-17 19:30:30 UTC.

        The published high-accuracy result is zenith 50.11162 deg and
        azimuth 194.34024 deg measured from north, i.e. 14.34 deg west of
        south. The low-accuracy ephemeris must land within 0.1 deg.
        """
        where = GeoLocation(latitude=39.742476, longitude=-105.1786)
        when = utc(2003, 10, 17, 19, 30, 30)
        sun = solar_position(where, when)
        assert math.degrees(0.5 * math.pi - sun.altitude) == pytest.approx(50.11162, abs=0.1)
        assert math.degrees(sun.azimuth) == pytest.approx(14.34024, abs=0.1)

    def test_summer_solstice_noon_altitude(self):
        """Max altitude on the solstice is 90 - latitude + declination."""
        best = max(
            solar_position(FOULUM, utc(2015, 6, 21, h, m)).altitude
            for h in range(24)
            for m in (0, 30)
        )
        assert math.degrees(best) == pytest.approx(90.0 - 56.49 + 23.44, abs=0.5)

    def test_equator_equinox_sun_overhead(self):
        equator = GeoLocation(latitude=0.0, longitude=0.0)
        best = max(
            solar_position(equator, utc(2015, 3, 20, h, m)).altitude
            for h in range(24)
            for m in (0, 10, 20, 30, 40, 50)
        )
        assert math.degrees(best) >= 88.5

    def test_below_horizon_at_night(self):
        assert solar_position(FOULUM, utc(2015, 6, 21, 0, 0)).altitude < 0.0
        assert solar_position(FOULUM, utc(2015, 12, 21, 0, 0)).altitude < 0.0

    def test_azimuth_sign_convention(self):
        """Morning sun east (negative azimuth), afternoon west (positive)."""
        morning = solar_position(FOULUM, utc(2015, 6, 21, 7, 0))
        afternoon = solar_position(FOULUM, utc(2015, 6, 21, 16, 0))
        assert morning.azimuth < 0.0
        assert afternoon.azimuth > 0.0

    def test_naive_datetime_rejected(self):
        """Timestamps come as datetime64; a datetime, aware or naive, is refused."""
        naive = datetime(2015, 6, 21, 12, 0)
        for when in (naive, naive.replace(tzinfo=timezone.utc)):
            with pytest.raises(ValueError, match="datetime64"):
                solar_position(FOULUM, when)
            with pytest.raises(ValueError, match="datetime64"):
                eccentricity_correction([when])

    def test_out_of_range_year_rejected(self):
        with pytest.raises(ValueError, match="1950-2100"):
            solar_position(FOULUM, utc(1900, 6, 21, 12, 0))
        # one such hour among good ones, and a datetime among datetime64s
        with pytest.raises(ValueError, match=r"2101-01-01T00:00:00\+00:00"):
            solar_position(FOULUM, [utc(2100, 12, 31, 23, 0), utc(2101, 1, 1, 0, 0)])
        with pytest.raises(ValueError, match="datetime64"):
            solar_position(FOULUM, [utc(2015, 6, 21, 12, 0), datetime(2015, 6, 21, 13, 0)])

    def test_bad_location_rejected(self):
        with pytest.raises(ValueError, match="latitude"):
            GeoLocation(latitude=91.0, longitude=0.0)
        with pytest.raises(ValueError, match="longitude"):
            GeoLocation(latitude=0.0, longitude=190.0)

    def test_zenith_complements_altitude(self):
        """The zenith angle, 0.5 pi - altitude, is the sun vector's angle from vertical."""
        sun = SolarPosition(altitude=math.radians(30.0), azimuth=0.2)
        zenith = 0.5 * math.pi - sun.altitude
        assert zenith == pytest.approx(math.radians(60.0), rel=1e-12)
        assert sun_vector(sun)[2] == pytest.approx(math.cos(zenith), rel=1e-12)


class TestSunVector:
    def test_unit_norm(self):
        for alt_deg, az_deg in [(10, -120), (45, 0), (80, 60), (2, 179)]:
            sun = SolarPosition(math.radians(alt_deg), math.radians(az_deg))
            assert np.linalg.norm(sun_vector(sun)) == pytest.approx(1.0, rel=1e-12)

    def test_cardinal_directions(self):
        south = sun_vector(SolarPosition(math.radians(45.0), 0.0))
        assert south[0] == pytest.approx(0.0, abs=1e-12)
        assert south[1] < 0.0  # toward the southern sky
        assert south[2] == pytest.approx(math.sin(math.radians(45.0)), rel=1e-12)

        east = sun_vector(SolarPosition(math.radians(30.0), -0.5 * math.pi))
        assert east[0] > 0.0  # sun sits east, vector points east
        assert east[1] == pytest.approx(0.0, abs=1e-12)

        west = sun_vector(SolarPosition(math.radians(30.0), 0.5 * math.pi))
        assert west[0] < 0.0


class TestIncidence:
    def test_horizontal_plane_incidence_is_zenith(self):
        sun = SolarPosition(math.radians(37.0), math.radians(55.0))
        flat = PlaneOrientation(tilt=0.0, azimuth=0.0)
        assert incidence_angle(sun, flat) == pytest.approx(0.5 * math.pi - sun.altitude, rel=1e-12)

    def test_plane_facing_sun_has_zero_incidence(self):
        sun = SolarPosition(math.radians(25.0), math.radians(-40.0))
        facing = PlaneOrientation(tilt=0.5 * math.pi - sun.altitude, azimuth=sun.azimuth)
        assert incidence_angle(sun, facing) == pytest.approx(0.0, abs=1e-12)

    def test_sun_behind_plane_exceeds_right_angle(self):
        sun = SolarPosition(math.radians(20.0), 0.0)  # south
        away = PlaneOrientation(tilt=math.radians(90.0), azimuth=math.pi)  # north
        assert incidence_angle(sun, away) > 0.5 * math.pi

    def test_matches_vector_dot_product(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            sun = SolarPosition(
                altitude=math.radians(rng.uniform(1.0, 89.0)),
                azimuth=math.radians(rng.uniform(-179.0, 179.0)),
            )
            plane = PlaneOrientation(
                tilt=math.radians(rng.uniform(0.0, 90.0)),
                azimuth=math.radians(rng.uniform(-179.0, 179.0)),
            )
            cos_inc = float(np.dot(sun_vector(sun), plane_normal(plane)))
            assert math.cos(incidence_angle(sun, plane)) == pytest.approx(
                cos_inc, abs=1e-12
            )

    def test_plane_normal_is_unit(self):
        plane = PlaneOrientation(tilt=math.radians(35.0), azimuth=math.radians(10.0))
        assert np.linalg.norm(plane_normal(plane)) == pytest.approx(1.0, rel=1e-12)

    def test_tilt_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="tilt"):
            PlaneOrientation(tilt=math.radians(95.0), azimuth=0.0)


class TestTopOfAtmosphere:
    def test_half_solar_constant_at_30_degrees(self):
        """At 30 deg altitude and unit distance correction the horizontal
        top-of-atmosphere beam is exactly half the solar constant."""
        assert SOLAR_CONSTANT * 1.0 * math.sin(math.radians(30.0)) == pytest.approx(
            680.5, rel=1e-12
        )

    def test_zero_at_night(self):
        midnight = utc(2015, 6, 21, 0, 0)
        assert toa_horizontal(solar_position(FOULUM, midnight), midnight) == 0.0

    def test_composes_position_and_distance_correction(self):
        when = utc(2015, 7, 1, 12, 0)
        sun = solar_position(FOULUM, when)
        expected = SOLAR_CONSTANT * eccentricity_correction(when) * math.sin(sun.altitude)
        assert toa_horizontal(sun, when) == pytest.approx(expected, rel=1e-12)

    def test_hours_as_arrays(self):
        """A sequence of timestamps gives one value per hour, each the value
        of its own timestamp; one timestamp gives floats."""
        hours = [utc(2015, 6, 21, h, 0) for h in range(24)]
        sun = solar_position(FOULUM, hours)
        toa = toa_horizontal(sun, hours)
        assert sun.altitude.shape == sun.azimuth.shape == toa.shape == (24,)
        for i, when in enumerate(hours):
            one = solar_position(FOULUM, when)
            assert isinstance(one.altitude, float) and isinstance(one.azimuth, float)
            assert (one.altitude, one.azimuth) == (sun.altitude[i], sun.azimuth[i])
            assert toa_horizontal(one, when) == toa[i]
        assert (toa == 0.0).any() and (toa > 0.0).any()

    def test_eccentricity_range_and_phase(self):
        january = eccentricity_correction(utc(2015, 1, 3, 12, 0))
        july = eccentricity_correction(utc(2015, 7, 4, 12, 0))
        assert january > 1.02  # perihelion in early January
        assert july < 0.98  # aphelion in early July
        for month in range(1, 13):
            value = eccentricity_correction(utc(2015, month, 15, 12, 0))
            assert 0.96 < value < 1.04


class TestTracking:
    def test_sun_due_east_at_45_altitude(self):
        """With the sun due east at 45 deg altitude, the optimal rotation
        is 45 deg toward the east."""
        sun = SolarPosition(altitude=math.radians(45.0), azimuth=-0.5 * math.pi)
        plane = tracking_orientation(sun)
        assert math.degrees(plane.tilt) == pytest.approx(45.0, abs=0.1)
        assert plane.azimuth == pytest.approx(-0.5 * math.pi, rel=1e-12)

    def test_sun_due_west_mirrors_east(self):
        east = tracking_orientation(
            SolarPosition(altitude=math.radians(33.0), azimuth=-0.5 * math.pi)
        )
        west = tracking_orientation(
            SolarPosition(altitude=math.radians(33.0), azimuth=0.5 * math.pi)
        )
        assert east.tilt == pytest.approx(west.tilt, rel=1e-12)
        assert east.azimuth == pytest.approx(-west.azimuth, rel=1e-12)

    def test_flat_for_sun_on_meridian(self):
        sun = SolarPosition(altitude=math.radians(50.0), azimuth=0.0)
        plane = tracking_orientation(sun)
        assert plane.tilt == 0.0

    def test_flat_for_sun_at_zenith(self):
        plane = tracking_orientation(SolarPosition(altitude=0.5 * math.pi, azimuth=0.3))
        assert plane.tilt == pytest.approx(0.0, abs=1e-12)

    def test_parks_flat_below_horizon(self):
        plane = tracking_orientation(SolarPosition(altitude=-0.1, azimuth=-2.0))
        assert plane.tilt == 0.0
        assert plane.azimuth == 0.0

    def test_rotation_clamp(self):
        """A low eastern sun wants ~80 deg rotation; the clamp caps it."""
        sun = SolarPosition(altitude=math.radians(10.0), azimuth=-0.5 * math.pi)
        free = tracking_orientation(sun)
        assert math.degrees(free.tilt) == pytest.approx(80.0, abs=0.5)
        clamped = tracking_orientation(sun, max_rotation=math.radians(60.0))
        assert clamped.tilt == pytest.approx(math.radians(60.0), rel=1e-12)
        assert clamped.azimuth == pytest.approx(-0.5 * math.pi, rel=1e-12)

    def test_minimises_incidence_over_rotation_sweep(self):
        """The closed-form rotation beats every rotation in a half-degree
        sweep of the full +-90 deg range."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            sun = SolarPosition(
                altitude=math.radians(rng.uniform(0.5, 80.0)),
                azimuth=math.radians(rng.uniform(-179.0, 179.0)),
            )
            plane = tracking_orientation(sun)
            _, swept_min = sweep_min_incidence(sun, step_deg=0.5)
            assert incidence_angle(sun, plane) <= swept_min + 1e-9

    def test_clamped_rotation_beats_clamped_sweep(self):
        max_rot = math.radians(50.0)
        rng = np.random.default_rng(11)
        for _ in range(10):
            sun = SolarPosition(
                altitude=math.radians(rng.uniform(1.0, 45.0)),
                azimuth=math.radians(rng.uniform(-179.0, 179.0)),
            )
            plane = tracking_orientation(sun, max_rotation=max_rot)
            best = math.inf
            for k in range(201):
                rot = -max_rot + k * (2.0 * max_rot / 200.0)
                if rot >= 0.0:
                    cand = PlaneOrientation(tilt=rot, azimuth=0.5 * math.pi)
                else:
                    cand = PlaneOrientation(tilt=-rot, azimuth=-0.5 * math.pi)
                best = min(best, incidence_angle(sun, cand))
            assert incidence_angle(sun, plane) <= best + 1e-9
