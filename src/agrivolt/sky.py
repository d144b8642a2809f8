"""Transposition of horizontal irradiance onto tilted collector planes.

The sky model splits measured horizontal irradiance into four plane
components: direct beam, circumsolar diffuse (treated as beam-like and
scaled by an anisotropy index), isotropic diffuse with horizon brightening,
and ground-reflected. Only the two beam-like components are ever attenuated
by row shadows further downstream; isotropic and reflected light always
reach the collector.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError, listed
from .solar import HOUR, GeoLocation, PlaneOrientation, math_map, month_index, solar_position
from .solar import stamp_text, toa_horizontal
from .weather import Weather

log = logging.getLogger(__name__)

#: Sun altitudes at or below this threshold produce no beam-like irradiance
#: on a tilted plane; avoids the 1/sin(altitude) blow-up near the horizon.
MIN_SUN_ALTITUDE = math.radians(1.0)

DEFAULT_ALBEDO = 0.2


def check_full_year(times: np.ndarray) -> None:
    """Require one full year (8760 or 8784) of consecutive hourly timestamps."""
    if len(times) not in (8760, 8784):
        raise InputError(
            f"weather must cover one full year of hourly samples, got {len(times)} rows"
        )
    steps = np.diff(times)
    uneven = np.flatnonzero(steps != HOUR)
    if uneven.size:  # a step prints as the timedelta it converts to
        i = uneven[0]
        raise InputError(f"weather not hourly after {stamp_text(times[i])}: step {steps[i].item()}")


@dataclass(frozen=True, eq=False)
class SkyYear(Weather):
    """The weather of every hour of a year and its sun and sky as columns,
    shared by every plane and ground cell.

    ``month`` gives each hour's calendar month, ``altitude`` and ``azimuth``
    the sun in radians, ``toa`` the top-of-atmosphere horizontal irradiance
    in W/m2, ``k1`` the anisotropy index and ``k_hori`` the horizon
    brightening factor.
    """

    month: np.ndarray
    altitude: np.ndarray
    azimuth: np.ndarray
    toa: np.ndarray
    k1: np.ndarray
    k_hori: np.ndarray

    def take(self, index) -> SkyYear:
        """The hours a boolean mask, slice or index array selects, in its order."""
        return SkyYear(**{f.name: getattr(self, f.name)[index] for f in fields(self)})


@dataclass(frozen=True)
class PlaneIrradiance:
    """Irradiance components on a collector plane, all W/m2, one entry per hour."""

    direct: np.ndarray
    circumsolar: np.ndarray
    isotropic: np.ndarray
    reflected: np.ndarray

    @property
    def beamlike(self) -> np.ndarray:
        """The part that shadows can block."""
        return self.direct + self.circumsolar


def direct_on_plane(bhi, altitude, incidence):
    """Beam irradiance on a plane: B0 * cos(incidence) / sin(altitude).

    ``incidence`` is the plane's :func:`~agrivolt.solar.incidence_angle`.
    Zero for sun at or below ``MIN_SUN_ALTITUDE`` or behind the plane.
    At tilt 0 this reduces exactly to the horizontal beam input.
    """
    cos_inc = np.cos(incidence)
    lit = (altitude > MIN_SUN_ALTITUDE) & (cos_inc > 0.0)
    out = np.zeros(np.broadcast(bhi, lit).shape)
    return np.divide(bhi * cos_inc, np.sin(altitude), out=out, where=lit)[()]


@np.errstate(over="ignore")  # a ratio past the float range clamps to 1
def anisotropy_index(bhi, toa):
    """Fraction of diffuse treated as circumsolar: measured beam over
    top-of-atmosphere beam ``toa``, clamped to [0, 1]. Zero for dark hours."""
    lit = np.logical_not((toa <= 0.0) | (bhi <= 0.0))
    ratio = np.divide(bhi, toa, out=np.zeros(np.broadcast(bhi, toa).shape), where=lit)
    return np.where(ratio < 1.0, ratio, 1.0)[()]


@np.errstate(over="ignore")  # a ratio past the float range clamps to 1
def diffuse_fraction(dhi, ghi):
    """Diffuse share of global horizontal irradiance, in [0, 1]; 1 when dark."""
    lit = np.logical_not(ghi <= 0.0)
    share = np.divide(dhi, ghi, out=np.ones(np.broadcast(dhi, ghi).shape), where=lit)
    share = np.where(share > 0.0, share, 0.0)
    return np.where(share < 1.0, share, 1.0)[()]


def horizon_brightening(diffuse_frac, altitude):
    """Horizon brightening factor >= 1, strongest for clear skies.

    ``1 + sqrt(1 - F) * sin^3(altitude / 2)`` with F the diffuse fraction;
    negative altitudes are treated as 0 so the factor is then exactly 1.
    """
    f = np.where(diffuse_frac > 0.0, diffuse_frac, 0.0)
    f = np.where(f < 1.0, f, 1.0)
    alt = np.where(altitude > 0.0, altitude, 0.0)
    return (1.0 + np.sqrt(1.0 - f) * math_map(math.pow, np.sin(0.5 * alt), 3.0))[()]


def diffuse_on_plane(dhi, altitude, tilt, incidence, k1, k_hori):
    """Circumsolar and isotropic diffuse components on the plane.

    Circumsolar follows the beam direction at the plane's ``incidence``
    angle (same low-sun guard as the direct component); the isotropic part
    sees the sky dome view factor ``(1 + cos(tilt)) / 2`` scaled by the
    horizon brightening factor.

    Returns
    -------
    (circumsolar, isotropic) : W/m2
    """
    circumsolar = direct_on_plane(k1 * dhi, altitude, incidence)
    sky_view = 0.5 * (1.0 + np.cos(tilt))
    isotropic = k_hori * (1.0 - k1) * dhi * sky_view
    return circumsolar, isotropic


def albedo_on_plane(ghi, tilt, albedo: float = DEFAULT_ALBEDO):
    """Ground-reflected irradiance: rho * GHI * (1 - cos(tilt)) / 2."""
    return albedo * ghi * 0.5 * (1.0 - np.cos(tilt))


def sky_year(location: GeoLocation, weather: Weather) -> SkyYear:
    """The sky of every weather hour, each hour's sun computed once. Hours whose
    beam exceeds the top-of-atmosphere irradiance by over 1 W/m2 are kept and logged."""
    times = weather.times
    sun = solar_position(location, times)
    toa = toa_horizontal(sun, times)
    year = SkyYear(
        **{f.name: getattr(weather, f.name) for f in fields(Weather)},
        month=month_index(times) + 1,
        altitude=sun.altitude,
        azimuth=sun.azimuth,
        toa=toa,
        k1=anisotropy_index(weather.bhi, toa),
        k_hori=horizon_brightening(diffuse_fraction(weather.dhi, weather.ghi), sun.altitude),
    )
    over_toa = stamp_text(times[year.bhi > year.toa + 1.0]).tolist()
    if over_toa:
        log.warning(
            "beam exceeds top-of-atmosphere irradiance in %d hours (%s)",
            len(over_toa),
            listed(over_toa),
        )
    return year


def plane_irradiance(
    sky: SkyYear, plane: PlaneOrientation, incidence, albedo: float = DEFAULT_ALBEDO
) -> PlaneIrradiance:
    """Full transposition pipeline for one plane over the hours of ``sky``,
    given the plane's incidence angle per hour."""
    direct = direct_on_plane(sky.bhi, sky.altitude, incidence)
    circumsolar, isotropic = diffuse_on_plane(
        sky.dhi, sky.altitude, plane.tilt, incidence, sky.k1, sky.k_hori
    )
    reflected = albedo_on_plane(sky.ghi, plane.tilt, albedo)
    return PlaneIrradiance(
        direct=direct, circumsolar=circumsolar, isotropic=isotropic, reflected=reflected
    )
