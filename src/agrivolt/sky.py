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
from dataclasses import dataclass
from datetime import datetime

from .errors import listed
from .solar import GeoLocation, PlaneOrientation, SolarPosition, solar_position, toa_horizontal

log = logging.getLogger(__name__)

#: Sun altitudes at or below this threshold produce no beam-like irradiance
#: on a tilted plane; avoids the 1/sin(altitude) blow-up near the horizon.
MIN_SUN_ALTITUDE = math.radians(1.0)

DEFAULT_ALBEDO = 0.2


@dataclass(frozen=True)
class IrradianceSample:
    """One hour of measured weather.

    bhi/dhi/ghi are beam, diffuse and global irradiance on the horizontal
    plane in W/m2; temp_air in degC; wind10 is wind speed at 10 m in m/s.
    """

    time: datetime
    bhi: float
    dhi: float
    ghi: float
    temp_air: float
    wind10: float


@dataclass(frozen=True, slots=True)
class SkyHour:
    """The sky of one hour, shared by every plane and ground cell.

    ``toa`` is the top-of-atmosphere horizontal irradiance in W/m2, ``k1``
    the anisotropy index and ``k_hori`` the horizon brightening factor.
    """

    sample: IrradianceSample
    sun: SolarPosition
    toa: float
    k1: float
    k_hori: float


@dataclass(frozen=True)
class PlaneIrradiance:
    """Irradiance components on a collector plane, all W/m2."""

    direct: float
    circumsolar: float
    isotropic: float
    reflected: float

    @property
    def total(self) -> float:
        return self.direct + self.circumsolar + self.isotropic + self.reflected

    @property
    def beamlike(self) -> float:
        """The part that shadows can block."""
        return self.direct + self.circumsolar


def direct_on_plane(sample: IrradianceSample, sun: SolarPosition, incidence: float) -> float:
    """Beam irradiance on a plane: B0 * cos(incidence) / sin(altitude).

    ``incidence`` is the plane's :func:`~agrivolt.solar.incidence_angle`.
    Returns 0 for sun at or below ``MIN_SUN_ALTITUDE`` or behind the plane.
    At tilt 0 this reduces exactly to the horizontal beam input.
    """
    if sun.altitude <= MIN_SUN_ALTITUDE:
        return 0.0
    cos_inc = math.cos(incidence)
    if cos_inc <= 0.0:
        return 0.0
    return sample.bhi * cos_inc / math.sin(sun.altitude)


def anisotropy_index(sample: IrradianceSample, toa_horizontal: float) -> float:
    """Fraction of diffuse treated as circumsolar: measured beam over
    top-of-atmosphere beam, clamped to [0, 1]. Zero for dark hours."""
    if toa_horizontal <= 0.0 or sample.bhi <= 0.0:
        return 0.0
    return min(1.0, sample.bhi / toa_horizontal)


def diffuse_fraction(sample: IrradianceSample) -> float:
    """Diffuse share of global horizontal irradiance, in [0, 1]; 1 when dark."""
    if sample.ghi <= 0.0:
        return 1.0
    return min(1.0, max(0.0, sample.dhi / sample.ghi))


def horizon_brightening(diffuse_frac: float, altitude: float) -> float:
    """Horizon brightening factor >= 1, strongest for clear skies.

    ``1 + sqrt(1 - F) * sin^3(altitude / 2)`` with F the diffuse fraction;
    negative altitudes are treated as 0 so the factor is then exactly 1.
    """
    f = min(1.0, max(0.0, diffuse_frac))
    alt = max(0.0, altitude)
    return 1.0 + math.sqrt(1.0 - f) * math.sin(0.5 * alt) ** 3


def diffuse_on_plane(
    sample: IrradianceSample,
    sun: SolarPosition,
    plane: PlaneOrientation,
    incidence: float,
    k1: float,
    k_hori: float,
) -> tuple[float, float]:
    """Circumsolar and isotropic diffuse components on the plane.

    Circumsolar follows the beam direction at the plane's ``incidence``
    angle (same low-sun guard as the direct component); the isotropic part
    sees the sky dome view factor ``(1 + cos(tilt)) / 2`` scaled by the
    horizon brightening factor.

    Returns
    -------
    (circumsolar, isotropic) : tuple of float, W/m2
    """
    circumsolar = 0.0
    if sun.altitude > MIN_SUN_ALTITUDE:
        cos_inc = math.cos(incidence)
        if cos_inc > 0.0:
            circumsolar = k1 * sample.dhi * cos_inc / math.sin(sun.altitude)
    sky_view = 0.5 * (1.0 + math.cos(plane.tilt))
    isotropic = k_hori * (1.0 - k1) * sample.dhi * sky_view
    return circumsolar, isotropic


def albedo_on_plane(
    sample: IrradianceSample, plane: PlaneOrientation, albedo: float = DEFAULT_ALBEDO
) -> float:
    """Ground-reflected irradiance: rho * GHI * (1 - cos(tilt)) / 2."""
    return albedo * sample.ghi * 0.5 * (1.0 - math.cos(plane.tilt))


def sky_year(location: GeoLocation, weather: list[IrradianceSample]) -> list[SkyHour]:
    """The sky of every weather hour, each hour's sun computed once. Hours whose
    beam exceeds the top-of-atmosphere irradiance by over 1 W/m2 are kept and logged."""
    hours = []
    for sample in weather:
        sun = solar_position(location, sample.time)
        toa = toa_horizontal(sun, sample.time)
        k_hori = horizon_brightening(diffuse_fraction(sample), sun.altitude)
        hours.append(SkyHour(sample, sun, toa, anisotropy_index(sample, toa), k_hori))
    over_toa = [h.sample.time.isoformat() for h in hours if h.sample.bhi > h.toa + 1.0]
    if over_toa:
        log.warning(
            "beam exceeds top-of-atmosphere irradiance in %d hours (%s)",
            len(over_toa),
            listed(over_toa),
        )
    return hours


def plane_irradiance(
    hour: SkyHour, plane: PlaneOrientation, incidence: float, albedo: float = DEFAULT_ALBEDO
) -> PlaneIrradiance:
    """Full transposition pipeline for one plane and one hour, given the
    plane's incidence angle."""
    sample, sun = hour.sample, hour.sun
    direct = direct_on_plane(sample, sun, incidence)
    circumsolar, isotropic = diffuse_on_plane(
        sample, sun, plane, incidence, hour.k1, hour.k_hori
    )
    reflected = albedo_on_plane(sample, plane, albedo)
    return PlaneIrradiance(
        direct=direct, circumsolar=circumsolar, isotropic=isotropic, reflected=reflected
    )
