"""Scenario sweeps: run the layout grid and emit the artifact set.

One scenario run covers the cross product of mount kinds, spacings and
heights from the configuration. Per case it simulates a year of
electricity on the electrical field and accumulates monthly ground
irradiance grids on the smaller ground-study field, then derives
indicators, ground map artifacts, the crop decision map, and comparison
tables.

Cases are independent, so the sweep optionally fans out over worker
processes; results are collected in submission order and written by the
parent alone, keeping artifacts byte-identical for any worker count.
"""

from __future__ import annotations

import logging
import multiprocessing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import agronomy, indicators, outputs
from .config import ScenarioConfig, max_rotation_radians, tilt_radians
from .electrical import SimulationResult, simulate_year
from .layout import Layout, build_layout
from .shading import GroundGrid, ground_irradiance_map
from .sky import IrradianceSample

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


def layout_for(config: ScenarioConfig, spec: CaseSpec, field_m: float) -> Layout:
    return build_layout(
        kind=spec.kind,
        spacing=spec.spacing,
        height=spec.height,
        field=(field_m, field_m),
        clearance=config.clearances[spec.kind],
        tilt=tilt_radians(config),
        latitude_deg=config.location.latitude,
        bifaciality=config.bifaciality_vertical if spec.kind == "vertical" else 0.0,
        max_rotation=max_rotation_radians(config),
    )


def combine_grids(grids: list[GroundGrid]) -> GroundGrid:
    """Sum per-month ground grids into one accumulation period."""
    first = grids[0]
    return GroundGrid(
        cell_size=first.cell_size,
        xs=first.xs,
        ys=first.ys,
        blocked_direct=sum(g.blocked_direct for g in grids),
        blocked_circumsolar=sum(g.blocked_circumsolar for g in grids),
        unshaded_total=sum(g.unshaded_total for g in grids),
        daylight_hours=sum(g.daylight_hours for g in grids),
    )


def run_case(
    config: ScenarioConfig,
    spec: CaseSpec,
    weather: list[IrradianceSample],
    months: tuple[int, ...],
) -> CaseResult:
    """Simulate one grid case: electricity year plus ground grids.

    ``months`` lists every calendar month any downstream artifact needs;
    grids accumulate per month so ground-map and growing-period artifacts
    can combine them without re-scanning the weather.
    """
    electrical = layout_for(config, spec, config.electrical_field_m)
    simulation = simulate_year(
        electrical, config.location, weather, config.panel, config.albedo
    )
    ground_layout = layout_for(config, spec, config.ground_field_m)
    grids = {
        month: ground_irradiance_map(
            ground_layout,
            config.location,
            weather,
            months=(month,),
            cell_size=config.ground_cell_m,
        )
        for month in sorted(set(months))
    }
    return CaseResult(spec=spec, simulation=simulation, monthly_grids=grids)


_WORKER_STATE: dict = {}


def _init_worker(config: ScenarioConfig, weather, months) -> None:
    _WORKER_STATE["args"] = (config, weather, months)


def _run_case_worker(spec: CaseSpec) -> CaseResult:
    config, weather, months = _WORKER_STATE["args"]
    return run_case(config, spec, weather, months)


def run_cases(
    config: ScenarioConfig,
    weather: list[IrradianceSample],
    months: tuple[int, ...],
    threads: int = 1,
) -> list[CaseResult]:
    """Run the whole grid, optionally across worker processes.

    Results come back in grid order whatever the worker count, and each
    case's computation is independent of scheduling, so downstream
    artifacts do not depend on ``threads``.
    """
    cases = expand_cases(config)
    if threads <= 1 or len(cases) == 1:
        return [run_case(config, spec, weather, months) for spec in cases]
    workers = min(threads, len(cases))
    with multiprocessing.Pool(
        processes=workers, initializer=_init_worker, initargs=(config, weather, months)
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


def run_scenario(
    config: ScenarioConfig,
    weather: list[IrradianceSample],
    prices: np.ndarray | None,
    out_dir: str | Path,
    threads: int = 1,
) -> list[Path]:
    """Run the full scenario grid and write all artifacts.

    Artifacts: ``indicators.csv``, per-case ``hourly_<id>.csv``,
    ``monthly_yield.csv``, per-case ``ground_<id>.csv`` and ``.pgm``
    (accumulated over the configured ground-map months),
    ``decision_map.csv`` (growing-period crop suitability), and
    ``comparisons.csv``. Returns the written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    months = tuple(sorted(set(config.ground_map_months) | set(config.growing_months)))
    results = run_cases(config, weather, months, threads)

    reports = [
        indicators.report(r.simulation, r.spec.scenario, prices) for r in results
    ]
    written: list[Path] = []

    def emit(name: str, writer, *args) -> None:
        target = out / name
        writer(target, *args)
        written.append(target)

    emit("indicators.csv", outputs.write_indicators_csv, reports)
    for r in results:
        emit(f"hourly_{r.spec.scenario}.csv", outputs.write_hourly_csv, r.simulation)
    emit(
        "monthly_yield.csv",
        outputs.write_monthly_csv,
        {r.spec.scenario: r.simulation for r in results},
    )
    for r in results:
        grid = r.combined_grid(config.ground_map_months)
        emit(f"ground_{r.spec.scenario}.csv", outputs.write_ground_csv, grid)
        emit(f"ground_{r.spec.scenario}.pgm", outputs.write_ground_pgm, grid)
    points = _decision_points(config, results, reports)
    emit("decision_map.csv", outputs.write_decision_csv, points)
    emit("comparisons.csv", outputs.write_comparisons_csv, reports)
    log.info("wrote %d artifacts to %s", len(written), out)
    return written


def run_decision_map(
    config: ScenarioConfig,
    weather: list[IrradianceSample],
    out_dir: str | Path,
    threads: int = 1,
) -> Path:
    """Sweep the grid and write only the crop decision map."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = run_cases(config, weather, tuple(config.growing_months), threads)
    reports = [indicators.report(r.simulation, r.spec.scenario, None) for r in results]
    target = out / "decision_map.csv"
    outputs.write_decision_csv(target, _decision_points(config, results, reports))
    return target
