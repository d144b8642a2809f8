"""Seeded workloads: inputs, command lines and artifact checks.

Each workload is one ``agrivolt`` command on inputs generated from the
benchmark seed. Weather and prices come from the test suite's own
generator (``tests/fixturegen.py``), so the default seed reproduces the
fixture year the tests use; the land-cover and region rasters come from
the generator below. Inputs are written before any timing starts.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import distance_transform_edt

#: Seed of the golden manifest: the fixture year of the test suite.
DEFAULT_SEED = 20150101

_LOCATION = """\
[meta]
schema_version = 1

[location]
latitude = 56.49
longitude = 9.57
"""

# The paper's reference layout (s = 6 m, h = 2 m) for each mount kind with
# the default fields: 100 m electrical field, 50 m ground study at 0.5 m
# cells, July ground map, Apr-Sep growing period. Ground maps dominate.
_PAPER_GRID_INI = _LOCATION + """
[layout]
kinds = tilt, vertical, tracking
spacings_m = 6
heights_m = 2
"""

# Nine layouts with the ground study cut to 5 x 5 cells and one month, so
# the hourly electrical model and the hourly CSV writer dominate.
_HOURLY_YIELD_INI = _LOCATION + """
[layout]
kinds = tilt, vertical, tracking
spacings_m = 4.5 7.5 12
heights_m = 2

[field]
ground_m = 10
ground_cell_m = 2

[crops]
growing_months = 12

[analysis]
ground_map_months = 12
"""

# potential: land-cover raster size and region count
RASTER_SIDE = 2000
RASTER_CELL_M = 100.0
REGION_SEEDS = 50
NODATA = -9999
CONSTANT_YIELDS = {"tilt": 950.0, "vertical": 870.0, "tracking": 1150.0}

# class codes and their shares in the synthetic land cover
_LAND_CLASSES = np.array([211, 212, 231, 242, 243, 321, 311, 112, 121, 512])
_LAND_SHARES = np.array([0.34, 0.08, 0.14, 0.08, 0.06, 0.05, 0.13, 0.06, 0.02, 0.04])


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "potential"
    config: str = ""
    threads: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-grid", "simulate", _PAPER_GRID_INI),
        Workload("hourly-yield", "simulate", _HOURLY_YIELD_INI),
        Workload("hourly-yield-2w", "simulate", _HOURLY_YIELD_INI, threads=2),
        Workload("potential", "potential"),
    )
}


@dataclass
class Inputs:
    """Generated input files of one workload and what the checks need."""

    files: dict[str, Path]
    units: int  # layout cases (simulate) or regions (potential)
    mpix: float  # ground-map cell-months (simulate) or land pixels (potential), 1e6
    expected: dict = field(default_factory=dict)
    sha256: dict[str, str] = field(default_factory=dict)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_dir(out: Path) -> dict[str, str]:
    """SHA-256 of every file in an output directory, by name."""
    return {p.name: sha256_file(p) for p in sorted(out.iterdir()) if p.is_file()}


def make_inputs(workload: Workload, seed: int, work: Path) -> Inputs:
    work.mkdir(parents=True, exist_ok=True)
    if workload.command == "simulate":
        inputs = _simulate_inputs(workload, seed, work)
    else:
        inputs = _potential_inputs(seed, work)
    inputs.sha256 = {name: sha256_file(p) for name, p in inputs.files.items()}
    return inputs


def _simulate_inputs(workload: Workload, seed: int, work: Path) -> Inputs:
    import fixturegen
    from agrivolt.config import load_config
    from agrivolt.scenario import expand_cases

    weather = fixturegen.synthetic_weather(seed=seed)
    times = [s.time for s in weather]
    prices = fixturegen.synthetic_prices(times, seed=seed + 1)
    files = {
        "config": work / "scenario.ini",
        "weather": fixturegen.write_weather_csv(work / "weather.csv", weather),
        "prices": fixturegen.write_price_csv(work / "prices.csv", times, prices),
    }
    files["config"].write_text(workload.config)
    config = load_config(files["config"])
    cases = expand_cases(config)
    months = set(config.ground_map_months) | set(config.growing_months)
    cells = round(config.ground_field_m / config.ground_cell_m) ** 2
    return Inputs(
        files=files,
        units=len(cases),
        mpix=len(cases) * len(months) * cells / 1e6,
        expected={
            "names": _simulate_artifact_names([c.scenario for c in cases]),
            "field_area_m2": config.electrical_field_m**2,
        },
    )


def _simulate_artifact_names(scenarios: list[str]) -> set[str]:
    names = {
        "indicators.csv",
        "monthly_yield.csv",
        "decision_map.csv",
        "comparisons.csv",
    }
    for sid in scenarios:
        names |= {f"hourly_{sid}.csv", f"ground_{sid}.csv", f"ground_{sid}.pgm"}
    return names


def land_rasters(seed: int, side: int = RASTER_SIDE) -> tuple[np.ndarray, np.ndarray]:
    """Seeded land-cover and region rasters on one grid.

    Land cover is a patchwork: classes drawn per 10 x 10 pixel block, with
    a finer per-pixel speckle of the same classes on 5 % of the pixels.
    The study area is the ellipse inscribed in the grid; outside it both
    rasters hold NODATA. Regions are the Voronoi cells of ``REGION_SEEDS``
    random seed pixels inside the study area.
    """
    rng = np.random.default_rng(seed)
    block = 10
    coarse = rng.choice(_LAND_CLASSES, size=(side // block, side // block), p=_LAND_SHARES)
    codes = np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)
    speckle = rng.random((side, side)) < 0.05
    codes[speckle] = rng.choice(_LAND_CLASSES, size=int(speckle.sum()), p=_LAND_SHARES)

    yy, xx = np.mgrid[0:side, 0:side]
    centre = (side - 1) / 2.0
    outside = ((xx - centre) / (side / 2.0)) ** 2 + ((yy - centre) / (side / 2.0)) ** 2 > 1.0
    codes[outside] = NODATA

    seeds = rng.choice(np.flatnonzero(~outside), size=REGION_SEEDS, replace=False)
    seed_ids = np.zeros(side * side, dtype=np.int64)
    seed_ids[seeds] = np.arange(1, REGION_SEEDS + 1)
    seed_ids = seed_ids.reshape(side, side)
    nearest = distance_transform_edt(
        seed_ids == 0, return_distances=False, return_indices=True
    )
    regions = seed_ids[nearest[0], nearest[1]]
    regions[outside] = NODATA
    return codes, regions


def write_ascii_grid(path: Path, codes: np.ndarray, cell_size: float) -> Path:
    # not agrivolt.land.write_ascii_grid: only tests use that helper, so the
    # library may drop it, and the inputs must not depend on the program
    nrows, ncols = codes.shape
    with open(path, "w") as fh:
        fh.write(
            f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\n"
            f"cellsize {cell_size:g}\nNODATA_value {NODATA}\n"
        )
        for row in codes.tolist():
            fh.write(" ".join(map(str, row)) + "\n")
    return path


def _potential_inputs(seed: int, work: Path) -> Inputs:
    codes, regions = land_rasters(seed)
    files = {
        "raster": write_ascii_grid(work / "landcover.asc", codes, RASTER_CELL_M),
        "regions": write_ascii_grid(work / "regions.asc", regions, RASTER_CELL_M),
    }
    pixel_km2 = (RASTER_CELL_M / 1000.0) ** 2
    return Inputs(
        files=files,
        units=len(np.unique(regions[regions != NODATA])),
        mpix=codes.size / 1e6,
        expected={"total_km2": int((codes != NODATA).sum()) * pixel_km2},
    )


def command_args(workload: Workload, inputs: Inputs, out: Path, threads: int) -> list[str]:
    """Arguments after ``python -m agrivolt.cli`` for one timed command."""
    f = inputs.files
    if workload.command == "simulate":
        return [
            "simulate", "--config", str(f["config"]), "--weather", str(f["weather"]),
            "--prices", str(f["prices"]), "--out", str(out), "--threads", str(threads),
        ]
    args = ["potential", "--raster", str(f["raster"]), "--regions", str(f["regions"])]
    for kind, value in CONSTANT_YIELDS.items():
        args += [f"--yield-{kind}", f"{value:g}"]
    return args + ["--out", str(out)]


def setup_args(workload: Workload, inputs: Inputs) -> list[str]:
    """``validate`` on the same inputs: the fixed cost before any work."""
    f = inputs.files
    if workload.command == "simulate":
        return [
            "validate", "--config", str(f["config"]), "--weather", str(f["weather"]),
            "--prices", str(f["prices"]),
        ]
    return ["validate", "--raster", str(f["raster"])]


def check_artifacts(workload: Workload, inputs: Inputs, out: Path) -> list[str]:
    """Problems found in one command's artifacts (empty when correct)."""
    if workload.command == "simulate":
        return _check_simulate(inputs, out)
    return _check_potential(inputs, out)


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_simulate(inputs: Inputs, out: Path) -> list[str]:
    names = {p.name for p in out.iterdir()}
    expected = inputs.expected["names"]
    if names != expected:
        return [
            f"artifact set differs: missing {sorted(expected - names)}, "
            f"extra {sorted(names - expected)}"
        ]
    problems = []
    # the yield indicator must be the field energy of the hourly table
    area = inputs.expected["field_area_m2"]
    for row in _read_rows(out / "indicators.csv"):
        hourly = np.loadtxt(
            out / f"hourly_{row['scenario']}.csv", delimiter=",", skiprows=1,
            usecols=1, ndmin=1,
        )
        if hourly.size not in (8760, 8784):
            problems.append(f"{row['scenario']}: {hourly.size} hourly rows")
            continue
        from_hourly = hourly.sum() / 1000.0 / area
        reported = float(row["electricity_yield_kWh_m2"])
        if not math.isclose(from_hourly, reported, rel_tol=0.0, abs_tol=1e-5):
            problems.append(
                f"{row['scenario']}: yield {reported} != hourly sum {from_hourly:.6f}"
            )
    return problems


def _check_potential(inputs: Inputs, out: Path) -> list[str]:
    names = {p.name for p in out.iterdir()}
    if names != {"regions.csv", "summary.csv"}:
        return [f"artifact set {sorted(names)} != regions.csv, summary.csv"]
    regions = _read_rows(out / "regions.csv")
    summary = {r["quantity"]: float(r["value"]) for r in _read_rows(out / "summary.csv")}
    problems = []
    if len(regions) != inputs.units:
        problems.append(f"{len(regions)} regions, generator made {inputs.units}")
    # each CSV value carries 6 decimals, so sums of n rows agree to n * 5e-7
    tol = 1e-6 * (len(regions) + 1)
    for column, key in (
        ("total_km2", "total_km2"),
        ("eligible_km2", "eligible_km2"),
        ("capacity_GW", "capacity_gw"),
        ("energy_tilt_TWh", "energy_tilt_twh"),
        ("energy_vertical_TWh", "energy_vertical_twh"),
        ("energy_tracking_TWh", "energy_tracking_twh"),
    ):
        column_sum = sum(float(r[column]) for r in regions)
        if not math.isclose(column_sum, summary[key], rel_tol=0.0, abs_tol=tol):
            problems.append(f"summary {key} {summary[key]} != regions sum {column_sum}")
    total = inputs.expected["total_km2"]
    if not math.isclose(summary["total_km2"], total, rel_tol=0.0, abs_tol=1e-6):
        problems.append(f"total_km2 {summary['total_km2']} != generator count {total}")
    if not 0.0 < summary["eligible_km2"] < summary["total_km2"]:
        problems.append(f"eligible_km2 {summary['eligible_km2']} outside (0, total)")
    return problems
