"""Deterministic synthetic input data for the test suite.

Everything here is seeded, so every test session sees bit-identical
fixtures. The weather generator produces a plausible year for a site in
northern Denmark: hourly clearness indices with seasonal shape and
day-to-day persistence applied to the top-of-atmosphere irradiance, an
empirical clear/cloudy diffuse split, mild maritime temperatures and
fresh winds. The price generator produces a day-ahead-style series whose
midday hours are systematically the cheapest, as wind- and solar-heavy
markets show.

The numbers are tuned, not fitted: annual global horizontal energy lands
near 800 kWh/m2 (a cloudy Danish year), low-sun hours lose clearness
through an air-mass attenuation, the diffuse split sees a partially
altitude-normalized clearness so winter middays keep a realistic beam
fraction, and mornings trade slightly clearer than afternoons.
"""

from __future__ import annotations

import csv
import math
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from agrivolt.land import LandRaster
from agrivolt.solar import TIME_DTYPE, GeoLocation
from agrivolt.weather import WEATHER_COLUMNS, Weather
from oracles import IrradianceSample, solar_position, toa_horizontal

FOULUM = GeoLocation(latitude=56.49, longitude=9.57)
WEATHER_SEED = 20150101
PRICE_SEED = 20150102


def year_hours(year: int = 2015) -> list[datetime]:
    start = datetime(year, 1, 1, tzinfo=timezone.utc)
    end = datetime(year + 1, 1, 1, tzinfo=timezone.utc)
    hours = []
    t = start
    while t < end:
        hours.append(t)
        t += timedelta(hours=1)
    return hours


def _erbs_diffuse_fraction(kt: float) -> float:
    """Diffuse fraction of global irradiance from the hourly clearness index."""
    if kt <= 0.22:
        return 1.0 - 0.09 * kt
    if kt <= 0.80:
        return (
            0.9511
            - 0.1604 * kt
            + 4.388 * kt**2
            - 16.638 * kt**3
            + 12.336 * kt**4
        )
    return 0.165


def _airmass_attenuation(altitude_rad: float) -> float:
    """Clearness reduction at low sun relative to overhead, in (0, 1].

    Kasten-Young relative air mass feeding a broadband beam transmittance
    power law; keeps dawn and dusk hours diffuse-dominated the way
    measured clearness indices are.
    """
    alt_deg = max(0.5, math.degrees(altitude_rad))
    airmass = 1.0 / (
        math.sin(math.radians(alt_deg)) + 0.50572 * (alt_deg + 6.07995) ** -1.6364
    )
    transmittance = 0.7 ** (airmass**0.678)
    return transmittance / 0.7


def synthetic_weather(
    year: int = 2015, location: GeoLocation = FOULUM, seed: int = WEATHER_SEED
) -> list[IrradianceSample]:
    """One deterministic synthetic weather year at hourly resolution."""
    rng = np.random.default_rng(seed)
    hours = year_hours(year)
    days = len(hours) // 24

    # day-to-day clearness with seasonal mean and AR(1) persistence
    kt_day = np.zeros(days)
    x = 0.0
    for d in range(days):
        base = 0.435 + 0.05 * math.sin(2.0 * math.pi * (d - 80) / 365.0)
        x = 0.55 * x + rng.normal(0.0, 0.12)
        kt_day[d] = min(0.80, max(0.08, base + x))

    temp_noise_day = rng.normal(0.0, 2.0, size=days)

    samples: list[IrradianceSample] = []
    shift = location.longitude / 15.0  # local solar time offset
    for i, t in enumerate(hours):
        d = i // 24
        doy = t.timetuple().tm_yday
        sun = solar_position(location, t)
        toa = toa_horizontal(sun, t)
        if toa > 0.0 and sun.altitude > 0.0:
            # mornings trade clearer than afternoons: convective cloud
            # builds over the day in maritime summers
            h_loc = (t.hour + shift) % 24.0
            diurnal_kt = 1.0 + 0.10 * math.tanh((12.0 - h_loc) / 4.0)
            attenuation = _airmass_attenuation(sun.altitude)
            kt = kt_day[d] + rng.normal(0.0, 0.035)
            kt = min(0.78, max(0.05, kt * attenuation * diurnal_kt))
            ghi = kt * toa
            # the diffuse split sees a partially altitude-normalized
            # clearness: a winter-noon hour is clearer than its raw kt
            # suggests, so it keeps a realistic beam fraction
            kt_split = min(0.80, kt / attenuation**0.75)
            dhi = _erbs_diffuse_fraction(kt_split) * ghi
            bhi = ghi - dhi
        else:
            ghi = dhi = bhi = 0.0
        seasonal = 9.0 + 8.0 * math.sin(2.0 * math.pi * (doy - 105) / 365.0)
        diurnal = 3.0 * math.sin(2.0 * math.pi * (t.hour - 9) / 24.0)
        temp = seasonal + diurnal + temp_noise_day[d] + rng.normal(0.0, 0.4)
        wind = max(0.3, 5.2 * rng.weibull(2.2))
        samples.append(
            IrradianceSample(
                time=t,
                bhi=round(bhi, 3),
                dhi=round(dhi, 3),
                ghi=round(bhi + dhi, 3),
                temp_air=round(temp, 2),
                wind10=round(wind, 2),
            )
        )
    return samples


def utc_stamps(times: list[datetime]) -> np.ndarray:
    """Aware datetimes as the time column the program reads (UTC datetime64[us])."""
    naive = [t.astimezone(timezone.utc).replace(tzinfo=None) for t in times]
    return np.array(naive, dtype=TIME_DTYPE)


def weather_columns(samples: list[IrradianceSample]) -> Weather:
    """Weather rows as the columns :func:`agrivolt.weather.ingest_weather` returns."""
    return Weather(
        utc_stamps([s.time for s in samples]),
        *(np.array([getattr(s, c) for s in samples], dtype=float) for c in WEATHER_COLUMNS[1:]),
    )


def synthetic_prices(
    times: list[datetime], seed: int = PRICE_SEED, longitude: float = FOULUM.longitude
) -> np.ndarray:
    """Day-ahead-style hourly prices with a deep midday valley.

    Morning and evening hours carry the demand peaks, midday carries the
    solar glut; winter trades above summer. Units are currency per MWh.
    """
    rng = np.random.default_rng(seed)
    shift = longitude / 15.0  # local solar time offset
    prices = np.zeros(len(times))
    level = 0.0
    for i, t in enumerate(times):
        doy = t.timetuple().tm_yday
        seasonal = 27.0 + 7.0 * math.cos(2.0 * math.pi * (doy - 20) / 365.0)
        h = (t.hour + shift) % 24.0
        # demand peaks at 08 and 19 local, solar valley centred on 13
        shape = (
            7.0 * math.exp(-0.5 * ((h - 8.0) / 2.0) ** 2)
            + 9.0 * math.exp(-0.5 * ((h - 19.0) / 2.5) ** 2)
            - 21.0 * math.exp(-0.5 * ((h - 13.0) / 2.6) ** 2)
        )
        if t.hour == 0:
            level = 0.7 * level + rng.normal(0.0, 3.0)
        prices[i] = seasonal + shape + level + rng.normal(0.0, 1.5)
    return np.round(prices, 2)


def write_weather_csv(path: str | Path, samples: list[IrradianceSample]) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "bhi", "dhi", "ghi", "temp_air", "wind10"])
        for s in samples:
            writer.writerow(
                [
                    s.time.strftime("%Y-%m-%dT%H:%M:%SZ"),
                    f"{s.bhi:.3f}",
                    f"{s.dhi:.3f}",
                    f"{s.ghi:.3f}",
                    f"{s.temp_air:.2f}",
                    f"{s.wind10:.2f}",
                ]
            )
    return path


def write_price_csv(path: str | Path, times: list[datetime], prices: np.ndarray) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "price"])
        for t, p in zip(times, prices):
            writer.writerow([t.strftime("%Y-%m-%dT%H:%M:%SZ"), f"{p:.2f}"])
    return path


def write_ascii_grid(path: str | Path, raster: LandRaster) -> None:
    """Write a raster as an ESRI ASCII grid: header first, one line per row."""
    nrows, ncols = raster.codes.shape
    with open(path, "w") as fh:
        fh.write(f"ncols {ncols}\n")
        fh.write(f"nrows {nrows}\n")
        fh.write(f"xllcorner {raster.xllcorner:g}\n")
        fh.write(f"yllcorner {raster.yllcorner:g}\n")
        fh.write(f"cellsize {raster.cell_size:g}\n")
        fh.write(f"NODATA_value {raster.nodata}\n")
        for row in raster.codes:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")
