"""Scenario sweeps: run the layout grid and emit the artifact set.

One scenario run covers the cross product of mount kinds, spacings and
heights from the configuration. Its yield step simulates each case's year
of electricity and builds its indicator report, refusing what the artifacts
cannot hold. In its ground-map step each case maps the ground-study field
by month, writes its hourly and ground-map files and returns its crop
decision point; the cross-case tables come last. Every file goes into a
staging directory, published as the output directory once all are written.

Cases are independent, so the ground-map step optionally fans out over
worker processes; results are collected in submission order, keeping
artifacts byte-identical for any worker count.
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


Case = tuple[CaseSpec, SimulationResult, indicators.IndicatorReport]  # a yield step's


@dataclass
class CaseResult:
    """One grid case after a sweep: its yield step and its decision point."""

    spec: CaseSpec
    simulation: SimulationResult
    report: indicators.IndicatorReport
    point: agronomy.DecisionPoint


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
) -> list[Case]:
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


def case_grids(
    config: ScenarioConfig, spec: CaseSpec, monthly: dict[int, SkyYear]
) -> dict[int, GroundGrid]:
    """One grid case's ground grid of each month of ``monthly``, which holds
    the sky year's hours by calendar month."""
    layout = case_layout(config, spec.kind, spec.spacing, spec.height, config.ground_field_m)
    return {
        month: ground_irradiance_map(layout, hours, cell_size=config.ground_cell_m)
        for month, hours in monthly.items()
    }


def run_case(
    config: ScenarioConfig,
    case: Case,
    monthly: dict[int, SkyYear],
    out: Path | None = None,
    stamps: list[str] | None = None,
) -> agronomy.DecisionPoint:
    """The ground-map step of one case of :func:`case_yields`: its decision
    point over the growing months, and with ``out``, a staging directory, its
    ``hourly_<id>.csv`` (``stamps`` is the time column) and its ground map
    files there; the case's simulation is read only for the hourly file.
    ``monthly`` holds the growing and ground-map months."""
    spec, simulation, report = case
    grids = case_grids(config, spec, monthly)

    def combined(months: tuple[int, ...]) -> GroundGrid:
        return combine_grids([grids[m] for m in sorted(set(months))])

    if out is not None:
        ground = combined(config.ground_map_months)
        outputs.write_table(out, [
            (f"hourly_{spec.scenario}.csv",
             lambda path: outputs.write_hourly_csv(path, simulation, stamps)),
            (f"ground_{spec.scenario}.csv", lambda path: outputs.write_ground_csv(path, ground)),
            (f"ground_{spec.scenario}.pgm", lambda path: outputs.write_ground_pgm(path, ground)),
        ])
    return agronomy.decision_point(
        scenario=spec.scenario,
        kind=spec.kind,
        spacing=spec.spacing,
        height=spec.height,
        capacity_density_w_m2=report.capacity_density_w_m2,
        electricity_yield_kwh_m2=report.electricity_yield_kwh_m2,
        par_map=agronomy.par_flux(combined(config.growing_months).mean_daytime_irradiance()),
        thresholds=config.thresholds,
    )


DEFAULT_THREADS = 1  # worker processes of a sweep
_WORKER_STATE: dict = {}


def _init_worker(*args) -> None:
    _WORKER_STATE["args"] = args


def _run_case_worker(case: Case) -> agronomy.DecisionPoint:
    config, monthly, out, stamps = _WORKER_STATE["args"]
    return run_case(config, case, monthly, out, stamps)


def run_cases(
    config: ScenarioConfig,
    weather: Weather,
    months: tuple[int, ...],
    threads: int = DEFAULT_THREADS,
    prices: np.ndarray | None = None,
    out: Path | None = None,
) -> list[CaseResult]:
    """Run the whole grid: the yield step here, then :func:`run_case` over
    the growing months and ``months`` (with ``out``, the ground-map months),
    optionally across worker processes, which get what they need as
    arguments under any start method.

    The sky year, its month groups and the time column are derived once,
    here. A refused yield step raises before any ground map runs. Results
    come back in grid order whatever the worker count, and each case is
    independent of scheduling, so the artifacts do not depend on ``threads``.
    """
    sky = sky_year(config.location, weather)
    yields = case_yields(config, sky, prices)
    monthly = {m: sky.take(sky.month == m) for m in sorted({*config.growing_months, *months})}
    stamps = None if out is None else outputs.time_column(sky.times)
    if threads <= 1 or len(yields) == 1:
        points = [run_case(config, case, monthly, out, stamps) for case in yields]
    else:  # imported here: the yield step alone, as ``validate`` runs it, needs no pool
        import multiprocessing

        # the hourly columns go to a worker only for the hourly file
        tasks = yields if out is not None else [(spec, None, r) for spec, _, r in yields]
        with multiprocessing.Pool(processes=min(threads, len(yields)), initializer=_init_worker,
                                  initargs=(config, monthly, out, stamps)) as pool:
            points = list(pool.imap(_run_case_worker, tasks))
    return [CaseResult(*case, point) for case, point in zip(yields, points)]


def run_scenario(
    config: ScenarioConfig,
    weather: Weather,
    prices: np.ndarray | None,
    out_dir: str | Path,
    threads: int = DEFAULT_THREADS,
) -> list[Path]:
    """Run the full scenario grid and write every artifact, each case's as it
    finishes, through :func:`outputs.staged`; returns their paths by name."""
    out = Path(out_dir)
    with outputs.staged(out) as staging:
        results = run_cases(config, weather, config.ground_map_months, threads, prices, staging)
        reports = [r.report for r in results]
        simulations = {r.spec.scenario: r.simulation for r in results}
        outputs.write_table(staging, [
            ("indicators.csv", lambda path: outputs.write_indicators_csv(path, reports)),
            ("monthly_yield.csv", lambda path: outputs.write_monthly_csv(path, simulations)),
            _decision_map(results),
            ("comparisons.csv", lambda path: outputs.write_comparisons_csv(path, reports)),
        ])
        names = sorted(path.name for path in staging.iterdir())
    log.info("wrote %d artifacts to %s", len(names), out)
    return [out / name for name in names]


def _decision_map(results: list[CaseResult]) -> tuple[str, Callable[[Path], None]]:
    points = agronomy.sort_decision_points([r.point for r in results])
    return "decision_map.csv", lambda path: outputs.write_decision_csv(path, points)


def run_decision_map(
    config: ScenarioConfig,
    weather: Weather,
    out_dir: str | Path,
    threads: int = DEFAULT_THREADS,
) -> Path:
    """Sweep the grid over the growing months and write only the crop decision map."""
    results = run_cases(config, weather, (), threads)
    written = outputs.write_artifacts(Path(out_dir), [_decision_map(results)])
    log.info("wrote %d artifacts to %s", len(written), Path(out_dir))
    return written[0]
