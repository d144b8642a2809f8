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
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .errors import MAX_LISTED, InputError, listed
from .layout import MOUNT_KINDS
from .solar import HOUR, SUPPORTED_YEARS, TIME_DTYPE, stamp_text

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


def _rows(path: Path, columns: tuple[str, ...], what: str, check_row):
    """The data rows of a CSV file, blank lines skipped, as ``csv.reader``
    gives them (numbered from 2), and the index of each of ``columns`` in the
    header, the last of a repeated name, as ``csv.DictReader`` takes it. A
    file unreadable past some rows is refused once those pass ``check_row``."""
    rows: list[list[str]] = []
    at: list[int] = []
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
            rows.extend(filter(None, reader))  # keeps the rows read before a failure
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        _check_rows(rows, at, check_row)
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no data rows")
    return rows, at


def _check_rows(rows: list[list[str]], at: list[int], check_row) -> None:
    """Pass each row's number and its values at ``at`` to ``check_row``, in order."""
    for row_num, row in enumerate(rows, start=2):
        check_row(row_num, [row[i] if i < len(row) else "" for i in at])


def _series(path: Path, columns: tuple[str, ...], what: str, years: range):
    """The time column of a CSV file in :data:`TIME_DTYPE` and its other
    columns as one float64 array of rows. Parsed whole, they are checked row
    by row only when refused, so that the refusal names the first bad row;
    the stamps' UTC years must lie in ``years``."""

    def check_row(row: int, values: list[str]) -> None:
        time = _parse_time(values[0], path, row)
        if time.year not in years:
            raise InputError(f"{path}: row {row}: year {time.year} is outside "
                             f"{years[0]}-{years[-1]}")
        for text, column in zip(values[1:], columns[1:]):
            _parse_float(text, column, path, row)

    rows, at = _rows(path, columns, what, check_row)
    try:
        table = list(zip(*rows))  # as many columns as the shortest row has values
        texts = [table[i] for i in at]  # IndexError: some row lacks a value
        return _utc_stamps(texts[0], years), _finite_floats(texts[1:])
    except (ValueError, IndexError):
        _check_rows(rows, at, check_row)
        raise


_NAIVE_EPOCH, _AWARE_EPOCH = datetime(1970, 1, 1), datetime(1970, 1, 1, tzinfo=timezone.utc)
_DATETIME_YEARS = range(1, 10000)  # UTC years a ``datetime`` holds


def _utc_stamps(texts: tuple[str, ...], years: range) -> np.ndarray:
    """Timestamps as :func:`_parse_time` reads them, in :data:`TIME_DTYPE`.

    Raises ``ValueError`` on one that it refuses, and on one whose UTC year
    lies outside ``years``, which must lie within 1-9999: outside those
    years :func:`_parse_time` refuses a stamp, as ``datetime`` cannot hold it.
    """
    stamps = map(datetime.fromisoformat, [t.strip().replace("Z", "+00:00") for t in texts])
    micro = timedelta(microseconds=1)
    times = np.array(
        [(s - (_NAIVE_EPOCH if s.tzinfo is None else _AWARE_EPOCH)) // micro for s in stamps],
        dtype=TIME_DTYPE,
    )
    year = times.astype("M8[Y]").astype(np.int64) + 1970
    if not ((year >= years.start) & (year < years.stop)).all():
        raise ValueError("a year out of range")
    return times


def _finite_floats(texts: list[tuple[str, ...]]) -> np.ndarray:
    """Columns of numbers as one float64 array of rows; ``ValueError`` on a
    value that is not a number or not finite."""
    values = np.array([list(map(float, column)) for column in texts])
    if not np.isfinite(values).all():
        raise ValueError("a value is not finite")
    return values


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
    times, values = _series(path, WEATHER_COLUMNS, "weather", SUPPORTED_YEARS)
    bhi, dhi, ghi, temp_air, wind10 = values
    # record i is row i + 2: ``_rows`` numbers the header 1 and skips blank lines
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

    def add_row(row: int, values: list[str]) -> None:
        region_id, *texts = values
        try:
            region = int(region_id)
        except ValueError as exc:
            raise InputError(f"{path}: row {row}: region_id is not an integer") from exc
        if region in table:
            raise InputError(f"{path}: row {row}: region {region} given twice")
        table[region] = {k: _parse_float(t, k, path, row) for k, t in zip(MOUNT_KINDS, texts)}
        if min(table[region].values()) < 0.0:
            raise InputError(f"{path}: row {row}: yields must be >= 0")

    rows, at = _rows(path, ("region_id", *MOUNT_KINDS), "yields", add_row)
    _check_rows(rows, at, add_row)
    return table


def ingest_prices(path: str | Path, times: np.ndarray) -> np.ndarray:
    """Read an hourly price CSV (``time,price``) aligned to a weather timeline.

    Every weather hour must appear exactly once, in order, with no extras;
    the first mismatching timestamp is reported otherwise. The mean price
    must be finite and not zero, since price-weighted yields divide by it.
    Returns the price array (currency per MWh, any fixed unit) in timeline order.
    """
    path = Path(path)
    stamps, (series,) = _series(path, PRICE_COLUMNS, "price", _DATETIME_YEARS)
    if len(stamps) != len(times):
        raise InputError(
            f"{path}: {len(stamps)} price rows for {len(times)} weather hours"
        )
    diverge = np.flatnonzero(stamps != times)
    if diverge.size:
        i = diverge[0]
        raise InputError(
            f"{path}: price timeline diverges from weather at row {i + 2}: "
            f"{stamp_text(stamps[i])} != {stamp_text(times[i])}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        mean = float(np.mean(series))
    if mean == 0.0 or not math.isfinite(mean):
        raise InputError(f"{path}: mean price is {mean}, price weighting undefined")
    return series
