"""Command line interface.

Subcommands:

* ``simulate``: run the scenario grid, write the full artifact set
* ``decision-map``: run the grid, write only the crop decision map
* ``potential``: land eligibility and regional deployment potential
* ``validate``: check input files and report problems without simulating

Exit codes: 0 success, 2 invalid input, 3 computation failure.

The simulator modules are imported inside the commands that run them, so
``potential`` loads the raster path only.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING

from . import land, outputs
from .errors import InputError

if TYPE_CHECKING:
    import numpy as np

    from .config import ScenarioConfig
    from .weather import Weather

log = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agrivolt",
        description="Agrivoltaic field simulation: PV yield, ground light, land potential",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress details")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the scenario grid, write all artifacts")
    dm = sub.add_parser("decision-map", help="write only the crop decision map")
    for run in (sim, dm):
        run.add_argument("--config", required=True, help="scenario INI file")
        run.add_argument("--weather", required=True, help="hourly weather CSV")
        run.add_argument("--out", required=True, help="output directory")
        run.add_argument("--threads", type=int, default=1, help="worker processes")
    sim.add_argument("--prices", help="hourly price CSV aligned to the weather year")
    sim.add_argument(
        "--wind-shear-exponent",
        type=float,
        help="override the (height/10)^exp wind scaling exponent",
    )

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
    pot.add_argument("--demand-twh", type=float, default=land.DEFAULT_DEMAND_TWH,
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
    ("threads", lambda v: v >= 1, "an integer >= 1"),
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
        if value is None:
            continue
        # an int is finite, and one past the float range overflows math.isfinite
        if not ((isinstance(value, int) or math.isfinite(value)) and valid(value)):
            raise InputError(f"--{dest.replace('_', '-')} must be {requirement}, got {value}")


def _out_dir(path: str) -> Path:
    """The ``--out`` directory, refused when it or its nearest existing
    ancestor is not a directory."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise InputError(f"--out {path}: {existing} is not a directory")
    return out


def _load_run_inputs(
    args: argparse.Namespace,
) -> tuple[ScenarioConfig | None, Weather | None, np.ndarray | None]:
    """The checked inputs of ``simulate``, ``decision-map`` and ``validate``, None
    where not passed, in one order: the config with the ``--wind-shear-exponent``
    override, the weather, its prices, then the full-year check (last, so that a
    price file is checked whatever the weather's length)."""
    config = weather = prices = None
    if args.config:
        from .config import load_config

        config = load_config(args.config, getattr(args, "wind_shear_exponent", None))
    if args.weather:
        from .weather import ingest_weather

        weather = ingest_weather(args.weather)
    if getattr(args, "prices", None):
        if weather is None:
            raise InputError("--prices validation needs --weather for the timeline")
        from .weather import ingest_prices

        prices = ingest_prices(args.prices, weather.times)
    if weather is not None:
        from .sky import check_full_year

        check_full_year(weather.times)
    return config, weather, prices


def _cmd_run(args: argparse.Namespace) -> int:
    """``simulate`` writes every artifact of the sweep, ``decision-map`` only
    ``decision_map.csv``."""
    from . import scenario

    out = _out_dir(args.out)
    config, weather, prices = _load_run_inputs(args)
    if args.command == "decision-map":
        print(f"wrote {scenario.run_decision_map(config, weather, out, args.threads)}")
    else:
        written = scenario.run_scenario(config, weather, prices, out, args.threads)
        print(f"wrote {len(written)} artifacts to {args.out}")
    return 0


def _yield_lookup(args: argparse.Namespace) -> Callable[[int], dict[str, float]]:
    """Specific yields (kWh/kW) of a region id: its ``--yields`` row
    (region_id,tilt,vertical,tracking), else the three constant flags."""
    from .layout import MOUNT_KINDS

    if not args.yields:
        constant = {kind: getattr(args, f"yield_{kind}") for kind in MOUNT_KINDS}
        if None in constant.values():
            raise InputError(
                "potential needs either --yields or all of "
                "--yield-tilt/--yield-vertical/--yield-tracking"
            )
        return lambda region: constant
    from .weather import _parse_float, _records

    path = Path(args.yields)
    table: dict[int, dict[str, float]] = {}
    for row, (region_id, *texts) in _records(path, ("region_id", *MOUNT_KINDS), "yields"):
        try:
            region = int(region_id)
        except ValueError as exc:
            raise InputError(f"{path}: row {row}: region_id is not an integer") from exc
        table[region] = {k: _parse_float(t, k, path, row) for k, t in zip(MOUNT_KINDS, texts)}
        if min(table[region].values()) < 0.0:
            raise InputError(f"{path}: row {row}: yields must be >= 0")

    def lookup(region: int) -> dict[str, float]:
        if region not in table:
            raise InputError(f"--yields has no row for region {region}")
        return table[region]

    return lookup


def _cmd_potential(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    classes = land.load_class_sets(args.classes) if args.classes else land.DEFAULT_CLASS_SETS
    yields = _yield_lookup(args)
    results = land.stream_potential(
        args.raster, args.regions, classes, args.buffer, args.capacity_density, yields
    )
    summary = land.aggregate_potential(results, args.demand_twh)
    # every region value adds into a total, so a finite summary has finite regions
    if not all(math.isfinite(v) for v in summary.values()):
        raise InputError("the flag values overflow the potential totals")
    regions, totals = outputs.write_artifacts(out, [
        ("regions.csv", lambda path: outputs.write_regions_csv(path, results)),
        ("summary.csv", lambda path: outputs.write_summary_csv(path, summary)),
    ])
    print(f"wrote {regions} and {totals}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if not any((args.config, args.weather, args.prices, args.raster, args.classes)):
        raise InputError("validate: nothing to check, pass at least one input")
    config, weather, prices = _load_run_inputs(args)
    if config is not None:
        if weather is not None:
            from .sky import sky_year

            sky_year(config.location, weather)  # logs beam above top-of-atmosphere
        print(f"config ok: {args.config}")
    if weather is not None:
        print(f"weather ok: {args.weather} ({len(weather)} hours)")
    if prices is not None:
        print(f"prices ok: {args.prices} (mean {prices.mean():.2f})")
    if args.raster:
        grid = land.AsciiGrid(args.raster)
        for _ in grid.bands():  # checks every value, one band in memory
            pass
        print(f"raster ok: {args.raster} {grid.shape}")
    if args.classes:
        sets = land.load_class_sets(args.classes)
        print(
            f"classes ok: {args.classes} "
            f"({len(sets.include)} include, {len(sets.exclude)} exclude)"
        )
    return 0


_COMMANDS = {
    "simulate": _cmd_run,
    "decision-map": _cmd_run,
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
        _check_numbers(args)
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code
        log.debug("unexpected failure", exc_info=True)
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
