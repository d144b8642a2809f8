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
"""

from __future__ import annotations

import json
import logging
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

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
    def pixel_area_km2(self) -> float:
        return (self.cell_size / 1000.0) ** 2


def read_ascii_grid(path: str | Path) -> LandRaster:
    """Read an ESRI ASCII grid of integer codes.

    Expects the usual header (ncols, nrows, xllcorner, yllcorner, cellsize,
    optional NODATA_value) followed by whitespace-separated int64 values,
    the same number on every data line. The header values must meet
    :data:`_ASCII_HEADER_RULES`.
    """
    path = Path(path)
    header: dict[str, float] = {}
    try:
        # ASCII: numpy 2.4's int64 parser crashes on some non-ASCII characters
        with open(path, encoding="ascii") as fh:
            start = fh.tell()
            for line in iter(fh.readline, ""):
                parts = line.split()
                if parts and parts[0].lower() not in _ASCII_HEADER_RULES:
                    fh.seek(start)  # back to the first data line
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
                header[key] = value
            missing = [k for k in _ASCII_HEADER_RULES if k not in header and k != "nodata_value"]
            if missing:
                raise InputError(f"{path}: missing header keys {missing}")
            with warnings.catch_warnings():
                # an empty data block is reported below as a value count
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read raster {path}: {exc}") from exc
    except InputError:
        raise
    except ValueError as exc:  # numpy's message names the row and column
        raise InputError(
            f"{path}: non-integer raster values or unequal line lengths: {exc}"
        ) from exc
    ncols, nrows = int(header["ncols"]), int(header["nrows"])
    if values.size != ncols * nrows:
        raise InputError(
            f"{path}: expected {ncols * nrows} values ({ncols} x {nrows}), got {values.size}"
        )
    return LandRaster(
        codes=values.reshape(nrows, ncols),
        cell_size=header["cellsize"],
        xllcorner=header["xllcorner"],
        yllcorner=header["yllcorner"],
        nodata=int(header.get("nodata_value", -9999)),
    )


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
    # Here and first: simulate and validate never get here, and scipy is most of their start-up;
    # imported under the masks below it raised peak RSS (ROADMAP: "the scipy import").
    from scipy.ndimage import distance_transform_edt
    codes = raster.codes
    known = classes.include | classes.exclude | classes.neutral
    unknown = ~np.isin(codes, sorted(known)) & (codes != raster.nodata)
    if unknown.any():
        log.warning(
            "%d pixels with unknown class codes %s treated as excluded",
            int(unknown.sum()),
            sorted(np.unique(codes[unknown]).tolist())[:10],
        )
    excluded = np.isin(codes, sorted(classes.exclude)) | unknown
    include = np.isin(codes, sorted(classes.include))
    if not excluded.any():
        return include
    # distance (in pixels) from every pixel to the nearest excluded pixel
    distance_px = distance_transform_edt(~excluded)
    return include & (distance_px * raster.cell_size > buffer_m)


@dataclass(frozen=True)
class RegionPotential:
    region_id: int
    total_km2: float
    eligible_km2: float
    share_pct: float
    capacity_gw: float
    energy_twh: dict[str, float] = field(default_factory=dict)


def _grid(r: LandRaster) -> str:
    return f"shape {r.codes.shape}, cellsize {r.cell_size}, corner ({r.xllcorner}, {r.yllcorner})"


def region_potential(
    raster: LandRaster,
    eligible: np.ndarray,
    regions: LandRaster,
    capacity_density_w_m2: float,
    yields: Callable[[int], dict[str, float]],
) -> list[RegionPotential]:
    """Potential of every region: eligible area, capacity and annual energy.

    ``regions`` assigns a region id to every pixel of the land raster's
    grid; its NODATA pixels belong to no region. Regions come in id order.
    Capacity = eligible area x capacity density; energy per mount kind =
    capacity x that kind's specific yield in ``yields(region_id)``.
    """
    if _grid(regions) != _grid(raster):
        raise InputError(
            f"region raster grid ({_grid(regions)}) does not match "
            f"land raster grid ({_grid(raster)})"
        )
    ids = np.unique(regions.codes)
    index = np.searchsorted(ids, regions.codes.ravel())  # a third of return_inverse's cost
    land = (raster.codes != raster.nodata).ravel()
    total_px = np.bincount(index[land], minlength=ids.size)
    eligible_px = np.bincount(index[land & eligible.ravel()], minlength=ids.size)
    results = []
    for region_id, total, eligible_count in zip(ids.tolist(), total_px, eligible_px):
        if region_id == regions.nodata:
            continue
        total_km2 = float(total) * raster.pixel_area_km2
        eligible_km2 = float(eligible_count) * raster.pixel_area_km2
        capacity_gw = eligible_km2 * 1.0e6 * capacity_density_w_m2 / 1.0e9
        share_pct = 100.0 * eligible_km2 / total_km2 if total_km2 > 0.0 else 0.0
        energy = {kind: capacity_gw * kwh / 1000.0 for kind, kwh in yields(region_id).items()}
        results.append(
            RegionPotential(region_id, total_km2, eligible_km2, share_pct, capacity_gw, energy)
        )
    return results


def aggregate_potential(
    results: list[RegionPotential], demand_twh: float = 2550.0
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
