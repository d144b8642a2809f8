"""Weather, price and specific-yield CSV ingestion with validation and repair.

Weather files carry hourly rows ``time,bhi,dhi,ghi,temp_air,wind10``
(irradiance W/m2, temperature degC, 10 m wind m/s; timestamps UTC,
ISO 8601). Validation is strict about structure (columns, hourly
continuity, sign) and lenient about small physical inconsistencies: a
global component that misses bhi + dhi by more than 1 W/m2 is repaired to
the component sum with a logged warning.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import MAX_LISTED, InputError, listed
from .layout import MOUNT_KINDS
from .solar import HOUR, SUPPORTED_YEARS, TIME_DTYPE, stamp_text, utc_micros

log = logging.getLogger(__name__)

WEATHER_COLUMNS = ("time", "bhi", "dhi", "ghi", "temp_air", "wind10")
PRICE_COLUMNS = ("time", "price")

#: Tolerated gap between ghi and bhi + dhi before the row is repaired.
CLOSURE_TOLERANCE_WM2 = 1.0


@dataclass(frozen=True, eq=False)
class Weather:
    """Measured weather as columns, one entry per hour.

    ``times`` are the UTC timestamps (:data:`~agrivolt.solar.TIME_DTYPE`);
    ``bhi``/``dhi``/``ghi`` are beam, diffuse and global irradiance on the
    horizontal plane in W/m2, ``temp_air`` in degC and ``wind10`` the wind
    speed at 10 m in m/s, each a float64 array.
    """

    times: np.ndarray
    bhi: np.ndarray
    dhi: np.ndarray
    ghi: np.ndarray
    temp_air: np.ndarray
    wind10: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def _records(path: Path, columns: tuple[str, ...], what: str):
    """Yield ``(row number, values of columns)`` per data row, as ``csv.DictReader`` reads them."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file")
            missing = [c for c in columns if c not in header]
            if missing:
                raise InputError(f"{path}: missing {what} columns {missing}")
            at = [max(i for i, name in enumerate(header) if name == c) for c in columns]
            row_num = 1
            for row_num, row in enumerate(filter(None, reader), start=2):
                yield row_num, [row[i] if i < len(row) else "" for i in at]
            if row_num == 1:
                raise InputError(f"{path}: no data rows")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def _parse_time(text: str, path: Path, row: int) -> datetime:
    cleaned = text.strip().replace("Z", "+00:00")
    try:
        stamp = datetime.fromisoformat(cleaned)
        if stamp.tzinfo is None:
            return stamp.replace(tzinfo=timezone.utc)
        return stamp.astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise InputError(f"{path}: row {row}: bad timestamp {text!r}: {exc}") from exc


def _parse_float(text: str, column: str, path: Path, row: int) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise InputError(
            f"{path}: row {row}: column {column!r} is not a number: {text!r}"
        ) from exc
    if not math.isfinite(value):
        raise InputError(f"{path}: row {row}: column {column!r} is not finite: {text!r}")
    return value


def ingest_weather(path: str | Path) -> Weather:
    """Read and validate an hourly weather CSV.

    Raises :class:`InputError` on an unreadable file, missing columns,
    unparseable values, negative irradiance or wind, years outside the
    sun position model's 1950-2100 (with row numbers), and gaps in the
    hourly timeline (listing the missing timestamps). Beam above the
    top-of-atmosphere irradiance needs the sun, so :func:`sky.sky_year`
    flags it.
    """
    path = Path(path)
    micros: list[int] = []
    values: list[list[float]] = []
    for row_num, (stamp, *fields) in _records(path, WEATHER_COLUMNS, "weather"):
        time = _parse_time(stamp, path, row_num)
        if time.year not in SUPPORTED_YEARS:
            raise InputError(f"{path}: row {row_num}: year {time.year} is outside 1950-2100")
        micros.append(utc_micros(time))
        values.append([_parse_float(text, c, path, row_num)
                       for text, c in zip(fields, WEATHER_COLUMNS[1:])])
    times = np.array(micros, dtype=TIME_DTYPE)
    bhi, dhi, ghi, temp_air, wind10 = np.array(values).T.copy()
    # record i is row i + 2, as ``_records`` numbers them
    negative = np.flatnonzero((bhi < 0.0) | (dhi < 0.0) | (ghi < 0.0) | (wind10 < 0.0)) + 2
    if negative.size:
        raise InputError(
            f"{path}: negative irradiance or wind in rows {listed(negative.tolist())}"
        )
    repaired = np.abs(ghi - (bhi + dhi)) > CLOSURE_TOLERANCE_WM2
    ghi = np.where(repaired, bhi + dhi, ghi)
    if repaired.any():
        log.warning(
            "%s: repaired ghi to bhi + dhi in %d rows (rows %s)",
            path,
            int(repaired.sum()),
            listed((np.flatnonzero(repaired) + 2).tolist()),
        )
    _check_hourly(times, path)
    return Weather(times, bhi, dhi, ghi, temp_air, wind10)


def _check_hourly(times: np.ndarray, path: Path) -> None:
    steps = np.diff(times)
    back = np.flatnonzero(steps < np.timedelta64(0))
    if back.size:
        raise InputError(f"{path}: timestamps not increasing at {stamp_text(times[back[0] + 1])}")
    duplicates = stamp_text(times[1:][steps == np.timedelta64(0)]).tolist()
    if duplicates:
        raise InputError(f"{path}: duplicate timestamps: {listed(duplicates)}")
    gaps = (steps - np.timedelta64(1, "us")) // HOUR  # hours missing after each stamp
    if gaps.any():
        after = np.flatnonzero(gaps)[:MAX_LISTED]
        k = np.arange(1, MAX_LISTED + 1)
        missing = (times[after, None] + k * HOUR)[k <= gaps[after, None]][:MAX_LISTED]
        raise InputError(
            f"{path}: missing hours: {listed(stamp_text(missing).tolist(), int(gaps.sum()))}"
        )


def ingest_yields(path: str | Path) -> dict[int, dict[str, float]]:
    """Read a specific-yield CSV (``region_id,tilt,vertical,tracking``, kWh/kW).

    Returns each region's yields by mount kind. Raises :class:`InputError` on
    a region id that is not an integer or is given twice, and on a yield that
    is not a finite number >= 0.
    """
    path = Path(path)
    table: dict[int, dict[str, float]] = {}
    for row, (region_id, *texts) in _records(path, ("region_id", *MOUNT_KINDS), "yields"):
        try:
            region = int(region_id)
        except ValueError as exc:
            raise InputError(f"{path}: row {row}: region_id is not an integer") from exc
        if region in table:
            raise InputError(f"{path}: row {row}: region {region} given twice")
        table[region] = {k: _parse_float(t, k, path, row) for k, t in zip(MOUNT_KINDS, texts)}
        if min(table[region].values()) < 0.0:
            raise InputError(f"{path}: row {row}: yields must be >= 0")
    return table


def ingest_prices(path: str | Path, times: np.ndarray) -> np.ndarray:
    """Read an hourly price CSV (``time,price``) aligned to a weather timeline.

    Every weather hour must appear exactly once, in order, with no extras;
    the first mismatching timestamp is reported otherwise. The mean price
    must be finite and not zero, since price-weighted yields divide by it.
    Returns the price array (currency per MWh, any fixed unit) in timeline order.
    """
    path = Path(path)
    micros: list[int] = []
    prices: list[float] = []
    for row_num, (stamp, price) in _records(path, PRICE_COLUMNS, "price"):
        micros.append(utc_micros(_parse_time(stamp, path, row_num)))
        prices.append(_parse_float(price, "price", path, row_num))
    if len(micros) != len(times):
        raise InputError(
            f"{path}: {len(micros)} price rows for {len(times)} weather hours"
        )
    stamps = np.array(micros, dtype=TIME_DTYPE)
    diverge = np.flatnonzero(stamps != times)
    if diverge.size:
        i = diverge[0]
        raise InputError(
            f"{path}: price timeline diverges from weather at row {i + 2}: "
            f"{stamp_text(stamps[i])} != {stamp_text(times[i])}"
        )
    series = np.array(prices)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        mean = float(np.mean(series))
    if mean == 0.0 or not math.isfinite(mean):
        raise InputError(f"{path}: mean price is {mean}, price weighting undefined")
    return series
