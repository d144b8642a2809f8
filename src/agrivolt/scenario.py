"""Scenario sweeps: run the layout grid and emit the artifact set.

One scenario run covers the cross product of mount kinds, spacings and
heights from the configuration. Its yield step simulates each case's year
of electricity on the electrical field and builds its indicator report,
refusing what the artifacts cannot hold; its ground-map step then
accumulates monthly ground irradiance grids on the smaller ground-study
field. Every artifact is then computed, and only then written, from one
ordered table of (file name, writer): indicators, hourly and monthly yields,
ground maps, the crop decision map and the comparisons. A decision-map run
maps only the growing months and writes one entry.

Ground maps are independent, so that step optionally fans out over worker
processes; results are collected in submission order and written by the
parent alone, keeping artifacts byte-identical for any worker count.
"""

from __future__ import annotations

import logging
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
    report: indicators.IndicatorReport
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


def case_yields(
    config: ScenarioConfig, sky: SkyYear, prices: np.ndarray | None = None
) -> list[tuple[CaseSpec, SimulationResult, indicators.IndicatorReport]]:
    """The yield step of a sweep: each grid case's electricity year on the
    electrical field and its indicator report, in :func:`expand_cases` order.

    ``sky`` is :func:`sky.sky_year` of the configured location. The reports
    refuse what the artifacts cannot hold (a price weighting that overflows, a
    capacity that is not positive) with :class:`InputError`, before any ground
    map runs; ``validate`` runs this step too.
    """
    cases = []
    for spec in expand_cases(config):
        layout = case_layout(config, spec.kind, spec.spacing, spec.height,
                             config.electrical_field_m)
        simulation = simulate_year(layout, sky, config.panel, config.albedo)
        cases.append((spec, simulation, indicators.report(simulation, spec.scenario, prices)))
    return cases


def run_case(
    config: ScenarioConfig, spec: CaseSpec, monthly: dict[int, SkyYear]
) -> dict[int, GroundGrid]:
    """The ground-map step of one grid case: its ground grid of each month.

    ``monthly`` holds the sky year's hours by calendar month, for every month
    any downstream artifact needs; grids accumulate per month so ground-map
    and growing-period artifacts can combine them without re-scanning the
    weather.
    """
    layout = case_layout(config, spec.kind, spec.spacing, spec.height, config.ground_field_m)
    return {
        month: ground_irradiance_map(layout, hours, cell_size=config.ground_cell_m)
        for month, hours in monthly.items()
    }


DEFAULT_THREADS = 1  # worker processes of a sweep
_WORKER_STATE: dict = {}


def _init_worker(*args) -> None:
    _WORKER_STATE["args"] = args


def _run_case_worker(spec: CaseSpec) -> dict[int, GroundGrid]:
    config, monthly = _WORKER_STATE["args"]
    return run_case(config, spec, monthly)


def run_cases(
    config: ScenarioConfig,
    weather: Weather,
    months: tuple[int, ...],
    threads: int = DEFAULT_THREADS,
    prices: np.ndarray | None = None,
) -> list[CaseResult]:
    """Run the whole grid: the yield step here, then the ground maps of
    ``months``, optionally across worker processes.

    The sky year and its month groups are derived once, here. A refused
    yield step raises before any ground map runs. Results come back in grid
    order whatever the worker count, and each case's computation is
    independent of scheduling, so downstream artifacts do not depend on
    ``threads``.
    """
    sky = sky_year(config.location, weather)
    yields = case_yields(config, sky, prices)
    monthly = {m: sky.take(sky.month == m) for m in sorted(set(months))}
    specs = [spec for spec, _, _ in yields]
    if threads <= 1 or len(specs) == 1:
        grids = [run_case(config, spec, monthly) for spec in specs]
    else:  # imported here: the yield step alone, as ``validate`` runs it, needs no pool
        import multiprocessing

        with multiprocessing.Pool(processes=min(threads, len(specs)),
                                  initializer=_init_worker, initargs=(config, monthly)) as pool:
            grids = list(pool.imap(_run_case_worker, specs))
    return [CaseResult(*case, monthly_grids=g) for case, g in zip(yields, grids)]


def _decision_points(
    config: ScenarioConfig, results: list[CaseResult]
) -> list[agronomy.DecisionPoint]:
    """Sorted decision-map rows: each case's yield against growing-period PAR."""
    points = []
    for r in results:
        rep, growing = r.report, r.combined_grid(config.growing_months)
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
    config: ScenarioConfig, results: list[CaseResult]
) -> list[tuple[str, Callable[[Path], None]]]:
    """Every artifact of a sweep in write order: (file name, writer of that path),
    with all the writers' data computed first: the hourly time column once, each
    case's ground grid once (its csv and pgm share it) and the decision map."""
    reports = [r.report for r in results]
    stamps = outputs.time_column(results[0].simulation.times)
    simulations = {r.spec.scenario: r.simulation for r in results}
    table = [("indicators.csv", lambda path: outputs.write_indicators_csv(path, reports))]
    for r in results:
        table.append((f"hourly_{r.spec.scenario}.csv",
                      lambda path, sim=r.simulation: outputs.write_hourly_csv(path, sim, stamps)))
    table.append(("monthly_yield.csv", lambda path: outputs.write_monthly_csv(path, simulations)))
    for r in results:
        grid = r.combined_grid(config.ground_map_months)
        table.append((f"ground_{r.spec.scenario}.csv",
                      lambda path, grid=grid: outputs.write_ground_csv(path, grid)))
        table.append((f"ground_{r.spec.scenario}.pgm",
                      lambda path, grid=grid: outputs.write_ground_pgm(path, grid)))
    points = _decision_points(config, results)
    table.append(("decision_map.csv", lambda path: outputs.write_decision_csv(path, points)))
    table.append(("comparisons.csv", lambda path: outputs.write_comparisons_csv(path, reports)))
    return table


def _write(out_dir: str | Path, table: list[tuple[str, Callable[[Path], None]]]) -> list[Path]:
    written = outputs.write_artifacts(Path(out_dir), table)
    log.info("wrote %d artifacts to %s", len(table), Path(out_dir))
    return written


def run_scenario(
    config: ScenarioConfig,
    weather: Weather,
    prices: np.ndarray | None,
    out_dir: str | Path,
    threads: int = DEFAULT_THREADS,
) -> list[Path]:
    """Run the full scenario grid and write every artifact; returns the written paths."""
    months = tuple(sorted(set(config.growing_months) | set(config.ground_map_months)))
    return _write(out_dir, _artifacts(config, run_cases(config, weather, months, threads, prices)))


def run_decision_map(
    config: ScenarioConfig,
    weather: Weather,
    out_dir: str | Path,
    threads: int = DEFAULT_THREADS,
) -> Path:
    """Sweep the grid over the growing months and write only the crop decision map."""
    results = run_cases(config, weather, tuple(sorted(set(config.growing_months))), threads)
    points = _decision_points(config, results)
    table = [("decision_map.csv", lambda path: outputs.write_decision_csv(path, points))]
    return _write(out_dir, table)[0]
