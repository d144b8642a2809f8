"""Sun position, incidence geometry, and single-axis tracking.

Angle conventions used throughout the package:

* ``altitude``: radians above the horizon,
* ``azimuth``: radians, 0 = due south, positive toward west, east negative,
* ``tilt``: radians from horizontal.

All timestamps are UTC ``datetime64`` values; ``datetime`` objects are rejected.
World coordinates are right handed with x pointing east, y north, z up.

The functions take one hour or arrays of hours alike: a ``datetime64``
scalar or array, and a :class:`SolarPosition` or :class:`PlaneOrientation`
that holds one value or one value per hour.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

SOLAR_CONSTANT = 1361.0  # W/m2 at 1 AU

#: The time axis of every hourly column: UTC timestamps to the microsecond.
TIME_DTYPE = np.dtype("M8[us]")
HOUR = np.timedelta64(1, "h")

_J2000 = np.datetime64("2000-01-01T12:00:00", "us")

#: Years the ephemeris of :func:`solar_position` covers.
SUPPORTED_YEARS = range(1950, 2101)


def month_index(stamps: np.ndarray) -> np.ndarray:
    """Calendar month of each timestamp, 0 for January."""
    return stamps.astype("M8[M]").astype(np.int64) % 12


def stamp_text(stamps):
    """``datetime.isoformat()`` of UTC timestamps, as messages print them."""
    seconds = np.datetime_as_string(stamps, unit="s")
    text = np.where(stamps == stamps.astype("M8[s]"), seconds, np.datetime_as_string(stamps))
    return text + "+00:00"


def _stamps(times) -> np.ndarray:
    """``times`` as :data:`TIME_DTYPE`; ValueError unless they are datetime64."""
    stamps = np.asarray(times)
    if stamps.dtype.kind != "M":
        raise ValueError(f"timestamps must be numpy datetime64 in UTC, got {stamps.dtype}")
    return stamps.astype(TIME_DTYPE)


def math_map(fn: Callable[..., float], *args):
    """``fn`` from :mod:`math` applied element by element over broadcast arrays.

    numpy's exp, log, acos and atan2 may differ from the C library's in the
    last bit; these terms go through ``math`` so that every result keeps the
    bits of the per-hour formulas. A float in gives a float out.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    values = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(values, dtype=float, count=arrays[0].size).reshape(arrays[0].shape)[()]


@dataclass(frozen=True)
class GeoLocation:
    """Geographic point, latitude/longitude in degrees (north/east positive)."""

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not abs(self.latitude) <= 90.0:
            raise ValueError(f"latitude out of range [-90, 90]: {self.latitude}")
        if not abs(self.longitude) <= 180.0:
            raise ValueError(f"longitude out of range [-180, 180]: {self.longitude}")


@dataclass(frozen=True)
class SolarPosition:
    altitude: float
    azimuth: float


@dataclass(frozen=True)
class PlaneOrientation:
    """Orientation of a collector plane (tilt from horizontal, facing azimuth)."""

    tilt: float
    azimuth: float

    def __post_init__(self) -> None:
        if not np.all((0.0 <= self.tilt) & (self.tilt <= 0.5 * math.pi)):
            raise ValueError(f"tilt out of range [0, pi/2]: {self.tilt}")


def solar_position(location: GeoLocation, times) -> SolarPosition:
    """Sun altitude and azimuth from a low-accuracy analytic ephemeris.

    Uses the Astronomical Almanac approximate solar coordinates (mean
    longitude and anomaly, ecliptic longitude, sidereal time), accurate to
    about 0.01 degrees between 1950 and 2100, far inside the 0.5 degree
    target for energy simulation. Atmospheric refraction is ignored.

    Parameters
    ----------
    location : GeoLocation
    times : datetime64 scalar or array
        UTC timestamps between years 1950 and 2100.

    Returns
    -------
    SolarPosition
        Altitude above horizon and azimuth (0 = south, + = west), radians;
        one value per timestamp, or floats for one timestamp.
    """
    stamps = _stamps(times)
    outside = stamps[~np.isin(stamps.astype("M8[Y]").astype(np.int64) + 1970, SUPPORTED_YEARS)]
    if outside.size:
        raise ValueError(f"timestamp outside supported range 1950-2100: {stamp_text(outside[0])}")
    # days since J2000: whole microseconds / 1e6 / 86400, as timedelta.total_seconds() rounds them
    n = (stamps - _J2000) / np.timedelta64(1, "s") / 86400.0

    mean_lon = np.remainder(280.460 + 0.9856474 * n, 360.0)
    mean_anom = np.radians(np.remainder(357.528 + 0.9856003 * n, 360.0))
    ecl_lon = np.radians(mean_lon + 1.915 * np.sin(mean_anom) + 0.020 * np.sin(2.0 * mean_anom))
    obliquity = np.radians(23.439 - 4.0e-7 * n)

    right_asc = math_map(math.atan2, np.cos(obliquity) * np.sin(ecl_lon), np.cos(ecl_lon))
    declination = math_map(math.asin, np.sin(obliquity) * np.sin(ecl_lon))

    gmst_deg = np.remainder(280.46061837 + 360.98564736629 * n, 360.0)
    hour_angle = np.radians(gmst_deg + location.longitude) - right_asc
    hour_angle = math_map(math.atan2, np.sin(hour_angle), np.cos(hour_angle))

    lat = math.radians(location.latitude)
    sin_alt = (
        math.sin(lat) * np.sin(declination)
        + math.cos(lat) * np.cos(declination) * np.cos(hour_angle)
    )
    sin_alt = np.where(sin_alt > -1.0, sin_alt, -1.0)
    altitude = math_map(math.asin, np.where(sin_alt < 1.0, sin_alt, 1.0))
    # measured from south, positive toward west (afternoon hour angles > 0)
    azimuth = math_map(
        math.atan2,
        np.sin(hour_angle),
        np.cos(hour_angle) * math.sin(lat) - math_map(math.tan, declination) * math.cos(lat),
    )
    return SolarPosition(altitude=altitude, azimuth=azimuth)


def sun_vector(sun: SolarPosition) -> np.ndarray:
    """Unit vector pointing from the ground toward the sun, (east, north, up);
    shape (3,), or (H, 3) for H hours."""
    cos_alt = np.cos(sun.altitude)
    return np.stack(
        [-cos_alt * np.sin(sun.azimuth), -cos_alt * np.cos(sun.azimuth), np.sin(sun.altitude)],
        axis=-1,
    )


def plane_normal(plane: PlaneOrientation) -> np.ndarray:
    """Unit normal of the collector front face, (east, north, up); shape (3,),
    or (H, 3) for H hours."""
    sin_tilt = np.sin(plane.tilt)
    return np.stack(
        [-sin_tilt * np.sin(plane.azimuth), -sin_tilt * np.cos(plane.azimuth), np.cos(plane.tilt)],
        axis=-1,
    )


def incidence_angle(sun: SolarPosition, plane: PlaneOrientation) -> float:
    """Angle between the sun direction and the plane normal, radians in [0, pi].

    Values above pi/2 mean the sun is behind the plane.
    """
    cos_inc = (
        np.sin(sun.altitude) * np.cos(plane.tilt)
        + np.cos(sun.altitude) * np.sin(plane.tilt) * np.cos(sun.azimuth - plane.azimuth)
    )
    cos_inc = np.where(cos_inc > -1.0, cos_inc, -1.0)
    return math_map(math.acos, np.where(cos_inc < 1.0, cos_inc, 1.0))


def eccentricity_correction(times):
    """Sun-earth distance correction factor for the day of year (dimensionless),
    one per timestamp."""
    stamps = _stamps(times)
    days, hour = np.divmod((stamps.astype("M8[h]") - stamps.astype("M8[Y]")).astype(np.int64), 24)
    x = 2.0 * math.pi * (days + (hour - 12) / 24.0) / 365.0
    return (
        1.00011
        + 0.034221 * np.cos(x)
        + 0.00128 * np.sin(x)
        + 0.000719 * np.cos(2.0 * x)
        + 0.000077 * np.sin(2.0 * x)
    )[()]


def toa_horizontal(sun: SolarPosition, times):
    """Top-of-atmosphere direct irradiance on a horizontal surface, W/m2, for
    the sun of each timestamp; zero whenever the sun is at or below the horizon."""
    toa = SOLAR_CONSTANT * eccentricity_correction(times) * np.sin(sun.altitude)
    return np.where(sun.altitude <= 0.0, 0.0, toa)[()]


def tracking_orientation(
    sun: SolarPosition, max_rotation: float | None = None
) -> PlaneOrientation:
    """Orientation of a horizontal north-south single-axis tracker.

    Returns the rotation about the axis that minimises the incidence angle:
    ``R = atan2(cos(altitude) * sin(azimuth), sin(altitude))``, positive
    rotation facing west. The mount parks flat when the sun is below the
    horizon. ``max_rotation`` (radians) optionally clamps the rotation range;
    by default the rotation is unlimited.

    Returns
    -------
    PlaneOrientation
        Tilt = |R| with azimuth +-pi/2 (west/east), or flat at R = 0.
    """
    rotation = math_map(
        math.atan2, np.cos(sun.altitude) * np.sin(sun.azimuth), np.sin(sun.altitude)
    )
    if max_rotation is not None:
        rotation = np.where(rotation > -max_rotation, rotation, -max_rotation)
        rotation = np.where(rotation < max_rotation, rotation, max_rotation)
    rotation = np.where(sun.altitude <= 0.0, 0.0, rotation)
    azimuth = np.where(rotation == 0.0, 0.0, np.copysign(0.5 * math.pi, rotation))
    return PlaneOrientation(tilt=np.abs(rotation)[()], azimuth=azimuth[()])
