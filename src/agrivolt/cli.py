"""Command line interface.

Subcommands:

* ``simulate``: run the scenario grid, write the full artifact set
* ``decision-map``: run the grid, write only the crop decision map
* ``potential``: land eligibility and regional deployment potential
* ``validate``: check input files and report problems without simulating

Exit codes: 0 success, 2 invalid input, 3 computation failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from collections.abc import Callable
from pathlib import Path

from . import land, outputs, scenario
from .config import load_config
from .errors import ComputationError, InputError
from .layout import MOUNT_KINDS
from .sky import sky_year
from .weather import _parse_float, _records, check_full_year, ingest_prices, ingest_weather

log = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agrivolt",
        description="Agrivoltaic field simulation: PV yield, ground light, land potential",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress details")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the scenario grid, write all artifacts")
    sim.add_argument("--config", required=True, help="scenario INI file")
    sim.add_argument("--weather", required=True, help="hourly weather CSV")
    sim.add_argument("--prices", help="hourly price CSV aligned to the weather year")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--threads", type=int, default=1, help="worker processes")
    sim.add_argument(
        "--wind-shear-exponent",
        type=float,
        help="override the (height/10)^exp wind scaling exponent",
    )

    dm = sub.add_parser("decision-map", help="write only the crop decision map")
    dm.add_argument("--config", required=True)
    dm.add_argument("--weather", required=True)
    dm.add_argument("--out", required=True)
    dm.add_argument("--threads", type=int, default=1)

    pot = sub.add_parser("potential", help="regional deployment potential from rasters")
    pot.add_argument("--raster", required=True, help="land-cover class raster (ASCII grid)")
    pot.add_argument("--regions", required=True, help="region id raster (ASCII grid)")
    pot.add_argument("--classes", help="JSON include/exclude class sets")
    pot.add_argument("--buffer", type=float, default=land.DEFAULT_BUFFER_M,
                     help="exclusion buffer around excluded classes, metres")
    pot.add_argument("--capacity-density", type=float, default=30.0,
                     help="deployable capacity per eligible area, W/m2")
    pot.add_argument("--yields", help="CSV region_id,tilt,vertical,tracking (kWh/kW)")
    pot.add_argument("--yield-tilt", type=float, help="constant tilt yield, kWh/kW")
    pot.add_argument("--yield-vertical", type=float)
    pot.add_argument("--yield-tracking", type=float)
    pot.add_argument("--demand-twh", type=float, default=2550.0,
                     help="reference demand for the summary multiple")
    pot.add_argument("--out", required=True)

    val = sub.add_parser("validate", help="check inputs, simulate nothing")
    val.add_argument("--config")
    val.add_argument("--weather")
    val.add_argument("--prices")
    val.add_argument("--raster")
    val.add_argument("--classes")
    return parser


#: Numeric flags: (argparse dest, predicate on a finite value, requirement).
_NUMERIC_FLAGS = (
    ("wind_shear_exponent", lambda v: True, "a finite number"),
    ("buffer", lambda v: v >= 0.0, "a finite number >= 0"),
    ("capacity_density", lambda v: v > 0.0, "a finite number > 0"),
    ("yield_tilt", lambda v: v >= 0.0, "a finite number >= 0"),
    ("yield_vertical", lambda v: v >= 0.0, "a finite number >= 0"),
    ("yield_tracking", lambda v: v >= 0.0, "a finite number >= 0"),
    ("demand_twh", lambda v: v > 0.0, "a finite number > 0"),
)


def _check_numbers(args: argparse.Namespace) -> None:
    """Reject a numeric flag of the command outside its range, ``nan`` included."""
    for dest, valid, requirement in _NUMERIC_FLAGS:
        value = getattr(args, dest, None)
        if value is not None and not (math.isfinite(value) and valid(value)):
            raise InputError(f"--{dest.replace('_', '-')} must be {requirement}, got {value}")


def _out_dir(path: str) -> Path:
    """The ``--out`` directory, refused when it or its nearest existing
    ancestor is not a directory."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise InputError(f"--out {path}: {existing} is not a directory")
    return out


def _cmd_simulate(args: argparse.Namespace) -> int:
    _check_numbers(args)
    out = _out_dir(args.out)
    config = load_config(args.config, args.wind_shear_exponent)
    weather = ingest_weather(args.weather)
    prices = None
    if args.prices:
        prices = ingest_prices(args.prices, [s.time for s in weather])
    written = scenario.run_scenario(config, weather, prices, out, args.threads)
    print(f"wrote {len(written)} artifacts to {args.out}")
    return 0


def _cmd_decision_map(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    config = load_config(args.config)
    weather = ingest_weather(args.weather)
    target = scenario.run_decision_map(config, weather, out, args.threads)
    print(f"wrote {target}")
    return 0


def _yield_lookup(args: argparse.Namespace) -> Callable[[int], dict[str, float]]:
    """Specific yields (kWh/kW) of a region id: its ``--yields`` row
    (region_id,tilt,vertical,tracking), else the three constant flags."""
    if not args.yields:
        constant = {kind: getattr(args, f"yield_{kind}") for kind in MOUNT_KINDS}
        if None in constant.values():
            raise InputError(
                "potential needs either --yields or all of "
                "--yield-tilt/--yield-vertical/--yield-tracking"
            )
        return lambda region: constant
    path = Path(args.yields)
    table: dict[int, dict[str, float]] = {}
    for row, record in _records(path, ("region_id", *MOUNT_KINDS), "yields"):
        try:
            region = int(record["region_id"])
        except ValueError as exc:
            raise InputError(f"{path}: row {row}: region_id is not an integer") from exc
        table[region] = {kind: _parse_float(record[kind], kind, path, row) for kind in MOUNT_KINDS}
        if min(table[region].values()) < 0.0:
            raise InputError(f"{path}: row {row}: yields must be >= 0")
    if not table:
        raise InputError(f"{path}: no yield rows")

    def lookup(region: int) -> dict[str, float]:
        if region not in table:
            raise InputError(f"--yields has no row for region {region}")
        return table[region]

    return lookup


def _cmd_potential(args: argparse.Namespace) -> int:
    _check_numbers(args)
    out = _out_dir(args.out)
    raster = land.read_ascii_grid(args.raster)
    regions = land.read_ascii_grid(args.regions)
    classes = land.load_class_sets(args.classes) if args.classes else land.DEFAULT_CLASS_SETS
    yields = _yield_lookup(args)
    mask = land.eligibility_mask(raster, classes, args.buffer)
    results = land.region_potential(raster, mask, regions, args.capacity_density, yields)
    summary = land.aggregate_potential(results, args.demand_twh)
    # every region value adds into a total, so a finite summary has finite regions
    if not all(math.isfinite(v) for v in summary.values()):
        raise InputError("the flag values overflow the potential totals")
    out.mkdir(parents=True, exist_ok=True)
    outputs.write_regions_csv(out / "regions.csv", results)
    outputs.write_summary_csv(out / "summary.csv", summary)
    print(f"wrote {out / 'regions.csv'} and {out / 'summary.csv'}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    checked = 0
    config = None
    if args.config:
        config = load_config(args.config)
        print(f"config ok: {args.config}")
        checked += 1
    weather = None
    if args.weather:
        weather = ingest_weather(args.weather)
        if config is not None:
            sky_year(config.location, weather)  # logs beam above top-of-atmosphere
    if args.prices:
        if weather is None:
            raise InputError("--prices validation needs --weather for the timeline")
        prices = ingest_prices(args.prices, [s.time for s in weather])
    if weather is not None:
        # after the prices, so that their rows are checked whatever the year
        check_full_year([s.time for s in weather])
        print(f"weather ok: {args.weather} ({len(weather)} hours)")
        checked += 1
    if args.prices:
        print(f"prices ok: {args.prices} (mean {prices.mean():.2f})")
        checked += 1
    if args.raster:
        raster = land.read_ascii_grid(args.raster)
        print(f"raster ok: {args.raster} {raster.codes.shape}")
        checked += 1
    if args.classes:
        sets = land.load_class_sets(args.classes)
        print(
            f"classes ok: {args.classes} "
            f"({len(sets.include)} include, {len(sets.exclude)} exclude)"
        )
        checked += 1
    if checked == 0:
        raise InputError("validate: nothing to check, pass at least one input")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "decision-map": _cmd_decision_map,
    "potential": _cmd_potential,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code
        log.debug("unexpected failure", exc_info=True)
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
