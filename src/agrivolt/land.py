"""Land eligibility and regional deployment potential from class rasters.

Rasters arrive as ESRI ASCII grids of integer land-cover class codes. A
pixel is eligible when its class is agricultural (the include set) and no
excluded-class pixel (settlement, forest, wetland, water by default) lies
within a protection buffer, measured as Euclidean distance between pixel
centres. Eligible area then converts to deployment potential with a
capacity density (W per m2 of field) and per-mount specific yields
(kWh/kW).

The shipped class sets mirror the agricultural land-cover classes of the
European inventory nomenclature (arable land 211-213, fruit and berry
plantations 222, pastures 231, heterogeneous agriculture 241-242); both
sets are plain data and user-overridable through a JSON file.

Codes are classified once, by one lookup per pixel, into a flag band of
one byte per pixel (include, excluded and unknown bits); the buffer test
runs on the excluded bits. Pixels are summed per region over the runs of
equal region ids along the rows, then over the sorted runs.
"""

from __future__ import annotations

import json
import logging
import math
import re
import warnings
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, pairwise
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import InputError

log = logging.getLogger(__name__)

DEFAULT_INCLUDE_CLASSES = (211, 212, 213, 222, 231, 241, 242)
DEFAULT_EXCLUDE_CLASSES = (
    # artificial surfaces
    111, 112, 121, 122, 123, 124, 131, 132, 133, 141, 142,
    # forests
    311, 312, 313,
    # wetlands and water bodies
    411, 412, 421, 422, 423, 511, 512, 521, 522, 523,
)
DEFAULT_BUFFER_M = 100.0
DEFAULT_DEMAND_TWH = 2550.0

#: Rule per header key: (predicate on the parsed float, requirement). Each
#: value must also be finite; every key but ``nodata_value`` is required.
_ASCII_HEADER_RULES = {
    "ncols": (lambda v: v.is_integer() and v > 0, "a positive integer"),
    "nrows": (lambda v: v.is_integer() and v > 0, "a positive integer"),
    "xllcorner": (lambda v: True, "a finite number"),
    "yllcorner": (lambda v: True, "a finite number"),
    "cellsize": (lambda v: v > 0.0, "a finite number > 0"),
    "nodata_value": (lambda v: v.is_integer(), "an integer"),
}


@dataclass
class LandRaster:
    """Integer class codes on a regular grid; row 0 is the northern edge."""

    codes: np.ndarray
    cell_size: float
    xllcorner: float = 0.0
    yllcorner: float = 0.0
    nodata: int = -9999

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape

    @property
    def pixel_area_km2(self) -> float:
        return (self.cell_size / 1000.0) ** 2


#: Pixels in a band of rows: ``potential`` holds a land band with its halo rows and a
#: region band. On the 2000-column benchmark raster, bands of 128 rows peaked at 81 MB
#: RSS, of 32 rows at 63 MB and of 256 rows at 101 MB, in about the same time.
BAND_PIXELS = 1 << 18


class AsciiGrid:
    """An ESRI ASCII grid of integer codes: the checked header, read on
    construction, then the data rows band by band (:meth:`bands`).

    Expects the usual header (ncols, nrows, xllcorner, yllcorner, cellsize,
    optional NODATA_value) followed by whitespace-separated int64 values,
    the same number on every data line. The header values must meet
    :data:`_ASCII_HEADER_RULES`.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = path = Path(path)
        header: dict[str, float] = {}
        with self._errors(), self._open() as fh:
            start = fh.tell()
            for line in iter(fh.readline, ""):
                parts = line.split()
                if parts and parts[0].lower() not in _ASCII_HEADER_RULES:
                    break
                start = fh.tell()
                if not parts:
                    continue
                key = parts[0].lower()
                if len(parts) != 2:
                    raise InputError(f"{path}: malformed header line {line.strip()!r}")
                valid, requirement = _ASCII_HEADER_RULES[key]
                try:
                    value = float(parts[1])
                except ValueError:
                    value = math.nan
                if not (math.isfinite(value) and valid(value)):
                    raise InputError(f"{path}: {key} must be {requirement}, got {parts[1]!r}")
                if key == "nodata_value" and parts[1].lstrip("+-").isdigit():
                    value = int(parts[1])  # exact, where a float rounds beyond 2**53
                header[key] = value
        missing = [k for k in _ASCII_HEADER_RULES if k not in header and k != "nodata_value"]
        if missing:
            raise InputError(f"{path}: missing header keys {missing}")
        self._data_start = start  # the first data line
        self.shape = int(header["nrows"]), int(header["ncols"])
        self.cell_size = header["cellsize"]
        self.xllcorner, self.yllcorner = header["xllcorner"], header["yllcorner"]
        self.nodata = int(header.get("nodata_value", -9999))

    def _open(self) -> TextIO:
        # ASCII: numpy 2.4's int64 parser crashes on some non-ASCII characters
        return open(self.path, encoding="ascii")

    def raster(self, codes: np.ndarray) -> LandRaster:
        """``codes`` on this grid's cell size, corner and NODATA."""
        return LandRaster(codes, self.cell_size, self.xllcorner, self.yllcorner, self.nodata)

    def bands(self, min_rows: int = 1) -> Iterator[np.ndarray]:
        """The data as (k, ncols) arrays of k = ``BAND_PIXELS // ncols`` rows, at
        least ``min_rows`` (fewer in the last band), however the lines wrap the
        rows. A data line longer than a band is read whole.

        The value count is checked at the end of the file, before the last
        band is given out, so every band given out belongs to a whole grid.
        """
        nrows, ncols = self.shape
        rows = max(1, min_rows, BAND_PIXELS // ncols)
        want, left = rows * ncols, nrows  # values per band, rows not yet given out
        held = np.empty(0, dtype=np.int64)  # values read, not yet given out
        width = lines = total = 0  # values per line; data lines and values read
        with self._errors(), self._open() as fh:
            fh.seek(self._data_start)
            while True:
                ask = -(-want // width) if width else rows
                block = self._block(fh, width, ask, lines)
                if block.size:
                    width, lines, total = block.shape[1], lines + len(block), total + block.size
                    held = np.concatenate((held, block.ravel())) if held.size else block.ravel()
                    held = held[: left * ncols]  # values past the grid are only counted
                if len(block) < ask:
                    break
                while held.size >= want and left > rows:  # the last band waits for the count
                    yield held[:want].reshape(rows, ncols)
                    held, left = held[want:], left - rows
        if total != nrows * ncols:
            raise InputError(
                f"{self.path}: expected {nrows * ncols} values ({ncols} x {nrows}), got {total}"
            )
        for start in range(0, left, rows):
            yield held[start * ncols : (start + rows) * ncols].reshape(-1, ncols)

    def _block(self, fh: TextIO, width: int, lines: int, before: int) -> np.ndarray:
        """The next ``lines`` data lines (fewer at the end of the file).

        After the first block a line of ``width`` zeros goes first, so that
        numpy reports a line of another width; numpy counts rows from the
        start of each call, and ``before`` data lines turn them into the
        file's rows.
        """
        carry = ["0 " * width] if width else []
        with self._errors(before - len(carry)), warnings.catch_warnings():
            # an empty data block is reported as a value count, and blank lines are not rows
            warnings.filterwarnings("ignore", r"(loadtxt: input|Input line \d+) contained no data")
            block = np.loadtxt(
                chain(carry, fh), dtype=np.int64, comments=None, ndmin=2,
                max_rows=lines + len(carry),
            )
        return block[len(carry) :]

    @contextmanager
    def _errors(self, row_offset: int = 0) -> Iterator[None]:
        """Map read and parse errors to :class:`InputError`."""
        try:
            yield
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read raster {self.path}: {exc}") from exc
        except InputError:
            raise
        except ValueError as exc:  # numpy's message names the row and column
            message = re.sub(r"(?<=at row )\d+", lambda m: str(int(m[0]) + row_offset), str(exc))
            raise InputError(
                f"{self.path}: non-integer raster values or unequal line lengths: {message}"
            ) from exc


def read_ascii_grid(path: str | Path) -> LandRaster:
    """Read a whole ESRI ASCII grid of integer codes (see :class:`AsciiGrid`)."""
    grid = AsciiGrid(path)
    return grid.raster(np.concatenate(list(grid.bands())))


@dataclass(frozen=True)
class ClassSets:
    """Include/exclude/neutral class code sets for eligibility."""

    include: frozenset[int]
    exclude: frozenset[int]
    neutral: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        overlap = self.include & self.exclude
        if overlap:
            raise InputError(f"classes both included and excluded: {sorted(overlap)}")


DEFAULT_CLASS_SETS = ClassSets(
    include=frozenset(DEFAULT_INCLUDE_CLASSES),
    exclude=frozenset(DEFAULT_EXCLUDE_CLASSES),
    neutral=frozenset((221, 223, 243, 244, 321, 322, 323, 324, 331, 332, 333, 334, 335)),
)


def load_class_sets(path: str | Path) -> ClassSets:
    """Load class sets from JSON: {"include": [...], "exclude": [...],
    "neutral": [...]} with neutral optional."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read class sets {path}: {exc}") from exc
    for key in ("include", "exclude"):
        if not isinstance(raw, dict) or not isinstance(raw.get(key), list):
            raise InputError(f"{path}: missing or malformed {key!r} list")
    sets = {key: raw.get(key, []) for key in ("include", "exclude", "neutral")}
    for key, codes in sets.items():
        # bool is a subclass of int, but JSON true is no class code
        if not isinstance(codes, list) or any(type(c) is not int for c in codes):
            raise InputError(f"{path}: class codes must be integers: {key!r} holds others")
    return ClassSets(**{key: frozenset(codes) for key, codes in sets.items()})


_UNKNOWN_CODES = "%d pixels with unknown class codes %s treated as excluded"

#: Bits of a flag band, one byte per pixel: an include code; excluded (an exclude code,
#: or an unknown code that is not NODATA); an unknown code that is not NODATA.
_INCLUDE, _EXCLUDED, _UNKNOWN = 1, 2, 4
#: Largest range of known codes looked up in a table; a wider one is binary searched.
_TABLE_CODES = 1 << 16


def _classifier(classes: ClassSets, nodata: int) -> Callable[[np.ndarray], np.ndarray]:
    """The flag band of an array of codes, from one lookup per pixel, exact for
    any int64 code: a table over the known codes' range, or a binary search in
    the sorted known codes when they span more than :data:`_TABLE_CODES`."""
    known = sorted(c for c in classes.include | classes.exclude | classes.neutral
                   if -(2**63) <= c < 2**63)  # no raster value lies outside int64

    def flag(code: int) -> int:
        return _INCLUDE * (code in classes.include) | _EXCLUDED * (code in classes.exclude)

    unknown = _EXCLUDED | _UNKNOWN
    flags = [flag(c) for c in known]
    lo = known[0] if known else 0
    span = known[-1] - lo if known else -1
    if span < _TABLE_CODES:
        table = np.full(span + 2, unknown, dtype=np.uint8)  # the last entry: out of range
        table[np.array(known, dtype=np.int64) - lo] = flags

        def index(codes: np.ndarray) -> np.ndarray:
            # codes - lo modulo 2**64: a code below lo wraps past the span, never into it
            offset = np.subtract(codes, lo, dtype=np.int64).view(np.uint64)
            return np.minimum(offset, span + 1, out=offset).view(np.int64)
    else:
        table = np.array([*flags, unknown], dtype=np.uint8)
        values = np.array(known, dtype=np.int64)

        def index(codes: np.ndarray) -> np.ndarray:
            at = np.minimum(np.searchsorted(values, codes), len(known) - 1)
            return np.where(values[at] == codes, at, len(known))

    outside = flag(nodata)  # NODATA is never unknown

    def classify(codes: np.ndarray) -> np.ndarray:
        band = table.take(index(codes))
        np.copyto(band, outside, where=codes == nodata)
        return band

    return classify


#: The flag values as class codes, so that :func:`eligibility_mask` masks a window of
#: flag bands as it masks a raster of codes; :data:`_NO_FLAG`, no flag value, is its NODATA.
_FLAG_CLASSES = ClassSets(
    include=frozenset(f for f in range(8) if f & (_INCLUDE | _EXCLUDED) == _INCLUDE),
    exclude=frozenset(f for f in range(8) if f & _EXCLUDED),
    neutral=frozenset(f for f in range(8) if not f & (_INCLUDE | _EXCLUDED)),
)
_NO_FLAG = 8


def _has(flags: np.ndarray, bit: int) -> np.ndarray:
    return (flags & bit).astype(bool)


def _unknown_codes(codes: np.ndarray, flags: np.ndarray) -> tuple[int, list[int]]:
    """The number of pixels with an unknown code and the first ten such codes."""
    unknown = _has(flags, _UNKNOWN)
    count = int(unknown.sum())  # np.unique imports numpy.ma: call it only when needed
    return count, np.unique(codes[unknown])[:10].tolist() if count else []


def eligibility_mask(
    raster: LandRaster,
    classes: ClassSets = DEFAULT_CLASS_SETS,
    buffer_m: float = DEFAULT_BUFFER_M,
) -> np.ndarray:
    """Boolean mask of pixels eligible for deployment.

    Eligible = agricultural class AND no excluded-class pixel within
    ``buffer_m`` (Euclidean, pixel centre to pixel centre; an excluded
    pixel itself has distance 0). Codes outside all three sets raise a
    warning and are treated as excluded; NODATA pixels are outside the
    study area and neither eligible nor excluding.
    """
    flags = _classifier(classes, raster.nodata)(raster.codes)
    unknown_px, first_unknown = _unknown_codes(raster.codes, flags)
    if unknown_px:
        log.warning(_UNKNOWN_CODES, unknown_px, first_unknown)
    near = _near_excluded(_has(flags, _EXCLUDED), raster.cell_size, buffer_m)
    return _has(flags, _INCLUDE) & ~near


def _near_excluded(excluded: np.ndarray, cell_size: float, buffer_m: float) -> np.ndarray:
    """Pixels whose nearest excluded pixel lies within the buffer: those where
    ``math.sqrt(float(dy**2 + dx**2)) * cell_size > buffer_m`` fails for the
    least squared pixel distance, bit for bit.

    The test is monotone in the squared distance, so it becomes one integer
    threshold, and the least squared distance is compared with it in two
    passes (Felzenszwalb & Huttenlocher's separable distance transform): one
    down the columns, one along the rows, each O(pixels) whatever the buffer.
    """
    rows, cols = excluded.shape
    # reach: the largest squared distance within the buffer (-1 for none), by bisection
    reach, beyond = -1, (rows - 1) ** 2 + (cols - 1) ** 2 + 1
    while beyond - reach > 1:
        mid = (reach + beyond) // 2
        if math.sqrt(float(mid)) * cell_size > buffer_m:  # not ``<=``, which differs at nan
            beyond = mid
        else:
            reach = mid
    if reach < 0:
        return np.zeros_like(excluded)
    # column pass: rows to the nearest excluded pixel in the column, capped at far (out of reach)
    far = math.isqrt(reach) + 1
    ahead = np.arange(far, rows + far, dtype=np.int32)[:, None]

    def gap(mask: np.ndarray) -> np.ndarray:  # rows since the last excluded one, >= far if none
        return ahead - np.maximum.accumulate(mask * ahead, axis=0)

    dy = np.minimum(np.minimum(gap(excluded), gap(excluded[::-1])[::-1]), np.int32(far))
    # columns that an excluded pixel dy rows away reaches along the row; -1 reaches none
    dx = np.array([math.isqrt(reach - d * d) for d in range(far)] + [-1], dtype=np.int32).take(dy)
    # row pass: column j is near when some column k <= j reaches k + dx >= j, or k >= j
    # reaches k - dx <= j (the same test on the mirrored rows)
    col = np.arange(cols, dtype=np.int32)

    def reached(dx: np.ndarray) -> np.ndarray:
        return np.maximum.accumulate(dx + col, axis=1) >= col

    return reached(dx) | reached(dx[:, ::-1])[:, ::-1]


@dataclass(frozen=True)
class RegionPotential:
    region_id: int
    total_km2: float
    eligible_km2: float
    share_pct: float
    capacity_gw: float
    energy_twh: dict[str, float] = field(default_factory=dict)


def _check_grid(raster: LandRaster | AsciiGrid, regions: LandRaster | AsciiGrid) -> None:
    def grid(r: LandRaster | AsciiGrid) -> str:
        return f"shape {r.shape}, cellsize {r.cell_size}, corner ({r.xllcorner}, {r.yllcorner})"

    if grid(regions) != grid(raster):
        raise InputError(
            f"region raster grid ({grid(regions)}) does not match land raster grid ({grid(raster)})"
        )


@dataclass(frozen=True, eq=False)
class RegionCounts:
    """Land and eligible pixel counts per region of some rows of one grid.

    ``ids`` are the sorted region ids, the region raster's NODATA left out;
    ``pixels`` holds their land and eligible pixel counts as a (2, ids) int64
    array. The counts of disjoint rows add up exactly with ``+``.
    """

    ids: np.ndarray
    pixels: np.ndarray
    pixel_area_km2: float

    def __add__(self, other: RegionCounts) -> RegionCounts:
        ids, pixels = np.concatenate((self.ids, other.ids)), np.hstack((self.pixels, other.pixels))
        return RegionCounts(*_merge(ids, pixels), self.pixel_area_km2)

    def potentials(
        self, capacity_density_w_m2: float, yields: Callable[[int], dict[str, float]]
    ) -> list[RegionPotential]:
        """Potential of every region, in id order: eligible area, capacity =
        eligible area x capacity density, and energy per mount kind = capacity x
        that kind's specific yield in ``yields(region_id)``."""
        results = []
        for region_id, total, eligible in zip(self.ids.tolist(), *self.pixels.tolist()):
            total_km2 = float(total) * self.pixel_area_km2
            eligible_km2 = float(eligible) * self.pixel_area_km2
            capacity_gw = eligible_km2 * 1.0e6 * capacity_density_w_m2 / 1.0e9
            share_pct = 100.0 * eligible_km2 / total_km2 if total_km2 > 0.0 else 0.0
            energy = {kind: capacity_gw * kwh / 1000.0 for kind, kwh in yields(region_id).items()}
            results.append(
                RegionPotential(region_id, total_km2, eligible_km2, share_pct, capacity_gw, energy)
            )
        return results


def _run_sums(ids: np.ndarray, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The id of each run of equal values in ``ids`` and the int64 sums of the
    (k, ids.size) ``pixels`` over each run."""
    starts = np.flatnonzero(np.concatenate(([ids.size > 0], ids[1:] != ids[:-1])))
    sums = np.empty((len(pixels), starts.size), dtype=np.int64)
    for row, out in zip(pixels, sums):  # one row widened to int64 at a time, not the stack
        np.add.reduceat(row, starts, dtype=np.int64, out=out)
    return ids[starts], sums


def _merge(ids: np.ndarray, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ``ids`` and the int64 sums of the (k, ids.size) ``pixels`` of each."""
    order = np.argsort(ids)
    # take gathers single-pixel runs in about 0.6x the time of pixels[:, order]
    return _run_sums(ids.take(order), pixels.take(order, axis=1))


def region_potential(raster: LandRaster, eligible: np.ndarray, regions: LandRaster) -> RegionCounts:
    """Land and eligible pixel counts per region of one band of rows, or of a
    whole raster; :meth:`RegionCounts.potentials` turns them into potential.

    ``regions`` assigns a region id to every pixel of the land raster's
    grid; its NODATA pixels belong to no region. The pixels are summed over
    the runs of equal ids along the rows, then over the sorted runs.
    """
    _check_grid(raster, regions)
    land = raster.codes != raster.nodata
    pixels = np.stack((land, land & eligible)).reshape(2, -1)
    ids, pixels = _merge(*_run_sums(regions.codes.ravel(), pixels))
    keep = ids != regions.nodata
    return RegionCounts(ids[keep], pixels[:, keep], raster.pixel_area_km2)


def _windows(
    bands: Iterator[np.ndarray], classify: Callable[[np.ndarray], np.ndarray], halo: int
) -> Iterator[tuple[np.ndarray, np.ndarray, slice]]:
    """Each band of codes with its flag window, as (band, window, the band's rows in
    it): the last ``halo`` flag rows of the band before, the band's flags and the first
    ``halo`` flag rows of the band after. Every band but the last must be at least
    ``halo`` rows tall, so that its neighbours hold the whole halo."""
    flagged = chain(((codes, classify(codes)) for codes in bands), [(None, ())])
    above = ()  # the last ``halo`` flag rows of the band before, if any
    for (band, flags), (_, after) in pairwise(flagged):
        parts = [rows for rows in (above, flags, after[:halo]) if len(rows)]
        window = np.concatenate(parts) if len(parts) > 1 else flags  # no copy without neighbours
        yield band, window, slice(len(above), len(above) + len(band))
        above = flags[-halo:]


def stream_potential(
    raster_path: str | Path,
    regions_path: str | Path,
    classes: ClassSets,
    buffer_m: float,
    capacity_density_w_m2: float,
    yields: Callable[[int], dict[str, float]],
) -> list[RegionPotential]:
    """Potential of every region from a land and a region raster file, read
    in lockstep band by band (:meth:`AsciiGrid.bands`), so that memory depends
    on :data:`BAND_PIXELS` and the buffer, not on the rasters' height.

    The grids are checked before any data is read. Each land band is classified once into
    flags (one lookup per pixel), and the unknown codes of its own rows are counted, then
    logged once. :func:`eligibility_mask` masks its flags, as codes of :data:`_FLAG_CLASSES`,
    with ``halo = ceil(buffer_m / cellsize) + 1`` flag rows of the neighbouring bands above
    and below (:func:`_windows`; an excluded pixel farther away lies beyond the buffer). Its
    :func:`region_potential` counts merge with ``+`` into the whole rasters' result.
    """
    land, regions = AsciiGrid(raster_path), AsciiGrid(regions_path)
    _check_grid(land, regions)
    nrows = land.shape[0]
    ratio = buffer_m / land.cell_size  # inf for a huge buffer on tiny cells
    halo = min(nrows, math.ceil(ratio) + 1) if ratio < nrows else nrows
    # Bands of four halos keep a window within 1.5 bands; on the benchmark raster, bands of one
    # halo (more halo rows to mask) took 1.03x, 1.13x and 1.21x the time at 10, 30 and 100 km.
    min_rows = 4 * halo
    windows = _windows(land.bands(min_rows), _classifier(classes, land.nodata), halo)
    counts, unknown_px, first_unknown = None, 0, []
    for (codes, window, rows), region_band in zip(windows, regions.bands(min_rows)):
        count, first = _unknown_codes(codes, window[rows])
        unknown_px, first_unknown = unknown_px + count, sorted({*first_unknown, *first})[:10]
        flags = LandRaster(window, land.cell_size, nodata=_NO_FLAG)
        eligible = eligibility_mask(flags, _FLAG_CLASSES, buffer_m)[rows]
        part = region_potential(land.raster(codes), eligible, regions.raster(region_band))
        counts = part if counts is None else counts + part
        del codes, window, flags, eligible, region_band  # hold no band while the next is read
    if unknown_px:
        log.warning(_UNKNOWN_CODES, unknown_px, first_unknown)
    return counts.potentials(capacity_density_w_m2, yields)


def aggregate_potential(
    results: list[RegionPotential], demand_twh: float = DEFAULT_DEMAND_TWH
) -> dict[str, float]:
    """Sum regions and relate the energy potential to a reference demand.

    Returns totals plus, per mount kind, the multiple of ``demand_twh``
    the summed annual energy represents.
    """
    if demand_twh <= 0.0:
        raise InputError("reference demand must be positive")
    summary: dict[str, float] = {
        "total_km2": sum(r.total_km2 for r in results),
        "eligible_km2": sum(r.eligible_km2 for r in results),
        "capacity_gw": sum(r.capacity_gw for r in results),
    }
    kinds = {k for r in results for k in r.energy_twh}
    for kind in sorted(kinds):
        energy = sum(r.energy_twh.get(kind, 0.0) for r in results)
        summary[f"energy_{kind}_twh"] = energy
        summary[f"demand_multiple_{kind}"] = energy / demand_twh
    return summary
