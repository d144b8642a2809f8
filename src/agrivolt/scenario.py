"""Scenario sweeps: run the layout grid and emit the artifact set.

One scenario run covers the cross product of mount kinds, spacings and
heights from the configuration. Per case it simulates a year of
electricity on the electrical field and accumulates monthly ground
irradiance grids on the smaller ground-study field. One ordered table
of (file name, writer) then holds every artifact: indicators, hourly and
monthly yields, ground maps, the crop decision map and the comparisons.
A decision-map run sweeps only the growing months and writes one entry.

Cases are independent, so the sweep optionally fans out over worker
processes; results are collected in submission order and written by the
parent alone, keeping artifacts byte-identical for any worker count.
"""

from __future__ import annotations

import functools
import logging
import multiprocessing
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import agronomy, indicators, outputs
from .config import ScenarioConfig, case_layout
from .electrical import SimulationResult, simulate_year
from .shading import GroundGrid, ground_irradiance_map
from .sky import SkyYear, sky_year
from .weather import Weather

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CaseSpec:
    scenario: str
    kind: str
    spacing: float
    height: float


@dataclass
class CaseResult:
    spec: CaseSpec
    simulation: SimulationResult
    monthly_grids: dict[int, GroundGrid]

    def combined_grid(self, months: tuple[int, ...]) -> GroundGrid:
        return combine_grids([self.monthly_grids[m] for m in sorted(set(months))])


def case_id(kind: str, spacing: float, height: float) -> str:
    return f"{kind}_s{spacing:g}_h{height:g}"


def expand_cases(config: ScenarioConfig) -> list[CaseSpec]:
    """The scenario grid in deterministic kind-major order."""
    return [
        CaseSpec(scenario=case_id(kind, s, h), kind=kind, spacing=s, height=h)
        for kind in config.kinds
        for s in config.spacings
        for h in config.heights
    ]


def combine_grids(grids: list[GroundGrid]) -> GroundGrid:
    """Sum per-month ground grids into one accumulation period."""
    sums = ("blocked_direct", "blocked_circumsolar", "unshaded_total", "daylight_hours")
    return replace(grids[0], **{name: sum(getattr(g, name) for g in grids) for name in sums})


def run_case(
    config: ScenarioConfig,
    spec: CaseSpec,
    sky: SkyYear,
    monthly: dict[int, SkyYear],
) -> CaseResult:
    """Simulate one grid case: electricity year plus ground grids.

    ``sky`` is :func:`sky.sky_year` of the configured location and
    ``monthly`` its hours by calendar month, for every month any downstream
    artifact needs; grids accumulate per month so ground-map and
    growing-period artifacts can combine them without re-scanning the
    weather.
    """
    field_m = config.electrical_field_m
    electrical = case_layout(config, spec.kind, spec.spacing, spec.height, field_m)
    simulation = simulate_year(electrical, sky, config.panel, config.albedo)
    ground_layout = replace(electrical, field=(config.ground_field_m, config.ground_field_m))
    grids = {
        month: ground_irradiance_map(ground_layout, hours, cell_size=config.ground_cell_m)
        for month, hours in monthly.items()
    }
    return CaseResult(spec=spec, simulation=simulation, monthly_grids=grids)


_WORKER_STATE: dict = {}


def _init_worker(*args) -> None:
    _WORKER_STATE["args"] = args


def _run_case_worker(spec: CaseSpec) -> CaseResult:
    config, sky, monthly = _WORKER_STATE["args"]
    return run_case(config, spec, sky, monthly)


def run_cases(
    config: ScenarioConfig,
    weather: Weather,
    months: tuple[int, ...],
    threads: int = 1,
) -> list[CaseResult]:
    """Run the whole grid, optionally across worker processes.

    Results come back in grid order whatever the worker count, and each
    case's computation is independent of scheduling, so downstream
    artifacts do not depend on ``threads``. The sky year and its month
    groups are derived once, here, and every worker reads them.
    """
    cases = expand_cases(config)
    sky = sky_year(config.location, weather)
    monthly = {m: sky.take(sky.month == m) for m in sorted(set(months))}
    if threads <= 1 or len(cases) == 1:
        return [run_case(config, spec, sky, monthly) for spec in cases]
    workers = min(threads, len(cases))
    with multiprocessing.Pool(
        processes=workers, initializer=_init_worker, initargs=(config, sky, monthly)
    ) as pool:
        return list(pool.imap(_run_case_worker, cases))


def _decision_points(
    config: ScenarioConfig,
    results: list[CaseResult],
    reports: list[indicators.IndicatorReport],
) -> list[agronomy.DecisionPoint]:
    """Sorted decision-map rows: each case's yield against growing-period PAR."""
    points = []
    for r, rep in zip(results, reports):
        growing = r.combined_grid(config.growing_months)
        points.append(
            agronomy.decision_point(
                scenario=r.spec.scenario,
                kind=r.spec.kind,
                spacing=r.spec.spacing,
                height=r.spec.height,
                capacity_density_w_m2=rep.capacity_density_w_m2,
                electricity_yield_kwh_m2=rep.electricity_yield_kwh_m2,
                par_map=agronomy.par_flux(growing.mean_daytime_irradiance()),
                thresholds=config.thresholds,
            )
        )
    return agronomy.sort_decision_points(points)


def _artifacts(
    config: ScenarioConfig, results: list[CaseResult], prices: np.ndarray | None
) -> list[tuple[str, Callable[[Path], None]]]:
    """Every artifact of a sweep in write order: (file name, writer of that path).

    The indicator reports are built here, and the hourly time column once, on
    first use; each ground grid and the decision map only by the writers that
    need them, so a run that writes the decision map alone needs no ground-map
    month and formats no time column.
    """
    reports = [indicators.report(r.simulation, r.spec.scenario, prices) for r in results]
    stamps = functools.cache(lambda: outputs.time_column(results[0].simulation.times))
    simulations = {r.spec.scenario: r.simulation for r in results}
    table = [("indicators.csv", lambda path: outputs.write_indicators_csv(path, reports))]
    for r in results:
        table.append((f"hourly_{r.spec.scenario}.csv",
                      lambda path, sim=r.simulation: outputs.write_hourly_csv(path, sim, stamps())))
    table.append(("monthly_yield.csv", lambda path: outputs.write_monthly_csv(path, simulations)))
    for r in results:  # the csv and the pgm share one combined grid
        grid = functools.cache(functools.partial(r.combined_grid, config.ground_map_months))
        table.append((f"ground_{r.spec.scenario}.csv",
                      lambda path, grid=grid: outputs.write_ground_csv(path, grid())))
        table.append((f"ground_{r.spec.scenario}.pgm",
                      lambda path, grid=grid: outputs.write_ground_pgm(path, grid())))
    points = functools.partial(_decision_points, config, results, reports)
    table.append(("decision_map.csv", lambda path: outputs.write_decision_csv(path, points())))
    table.append(("comparisons.csv", lambda path: outputs.write_comparisons_csv(path, reports)))
    return table


def _sweep(
    config: ScenarioConfig, weather: Weather, prices: np.ndarray | None,
    out_dir: str | Path, threads: int, only: str | None,
) -> list[Path]:
    """Run the grid once and write its artifact table in order, or only the
    artifact named ``only``; ground-map months are swept only for the full set."""
    months = set(config.growing_months)
    if only is None:
        months |= set(config.ground_map_months)
    results = run_cases(config, weather, tuple(sorted(months)), threads)
    # the table refuses overflowing prices, so it is built before the directory
    table = [entry for entry in _artifacts(config, results, prices) if only in (None, entry[0])]
    written = outputs.write_artifacts(Path(out_dir), table)
    log.info("wrote %d artifacts to %s", len(table), Path(out_dir))
    return written


def run_scenario(
    config: ScenarioConfig,
    weather: Weather,
    prices: np.ndarray | None,
    out_dir: str | Path,
    threads: int = 1,
) -> list[Path]:
    """Run the full scenario grid and write every artifact; returns the written paths."""
    return _sweep(config, weather, prices, out_dir, threads, None)


def run_decision_map(
    config: ScenarioConfig,
    weather: Weather,
    out_dir: str | Path,
    threads: int = 1,
) -> Path:
    """Sweep the grid over the growing months and write only the crop decision map."""
    return _sweep(config, weather, None, out_dir, threads, "decision_map.csv")[0]
