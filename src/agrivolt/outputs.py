"""Artifact writers: CSV tables and 16-bit PGM ground maps.

Every writer formats numbers through fixed format strings so repeated
runs on identical inputs produce byte-identical files regardless of
platform or thread count.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .layout import MOUNT_KINDS
from .solar import month_index

if TYPE_CHECKING:
    from .agronomy import DecisionPoint
    from .electrical import SimulationResult
    from .indicators import IndicatorReport
    from .land import RegionPotential
    from .shading import GroundGrid

PGM_MAXVAL = 65535


def write_artifacts(out: Path, table: list[tuple[str, Callable[[Path], None]]]) -> list[Path]:
    """Create ``out``, write each (file name, writer of its path) of ``table`` in order."""
    out.mkdir(parents=True, exist_ok=True)
    for name, write in table:
        write(out / name)
    return [out / name for name, _ in table]


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def write_indicators_csv(path: str | Path, reports: list[IndicatorReport]) -> None:
    lines = [
        "scenario,kind,spacing_m,height_m,capacity_density_W_m2,"
        "electricity_yield_kWh_m2,price_weighted_yield_kWh_m2,"
        "shadow_losses_pct,specific_yield_kWh_kW"
    ]
    for r in reports:
        price = "" if r.price_weighted_yield_kwh_m2 is None else _fmt(r.price_weighted_yield_kwh_m2)
        lines.append(
            f"{r.scenario},{r.kind},{r.spacing:g},{r.height:g},"
            f"{_fmt(r.capacity_density_w_m2)},{_fmt(r.electricity_yield_kwh_m2)},"
            f"{price},{_fmt(r.shadow_losses_pct)},{_fmt(r.specific_yield_kwh_kw)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def time_column(times: np.ndarray) -> list[str]:
    """The hourly time column, to the second; every case of a run shares it."""
    return (np.datetime_as_string(times, unit="s") + "Z").tolist()


_HOURLY_ROW = "{},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f},{:.6f}".format


def write_hourly_csv(path: str | Path, result: SimulationResult, stamps: list[str]) -> None:
    """One row per hour; ``stamps`` is :func:`time_column` of ``result.times``."""
    columns = (result.p_w, result.t_cell_c, result.f_es_front,
               result.f_es_rear, result.g_eff_wm2, result.p_noshadow_w)
    rows = map(_HOURLY_ROW, stamps, *(column.tolist() for column in columns))
    header = "time,P_W,T_cell_C,F_ES_front,F_ES_rear,G_eff_Wm2,P_noshadow_W"
    Path(path).write_text("\n".join([header, *rows]) + "\n")


def monthly_daily_yield(result: SimulationResult) -> list[float]:
    """Average daily electricity yield per month, kWh/m2/day.

    A month's days are its hours present / 24, so a year that crosses New
    Year divides each month by the days it really holds.
    """
    area = result.layout.field_area
    months = month_index(result.times)
    sums = np.bincount(months, weights=result.p_w, minlength=12)
    days = np.bincount(months, minlength=12) / 24
    return [sums[m] / 1000.0 / area / days[m] for m in range(12)]


def write_monthly_csv(path: str | Path, results: dict[str, SimulationResult]) -> None:
    """Monthly average daily yield table, one column per scenario."""
    ids = sorted(results)
    lines = ["month," + ",".join(ids)]
    columns = {sid: monthly_daily_yield(results[sid]) for sid in ids}
    for m in range(1, 13):
        lines.append(f"{m}," + ",".join(_fmt(columns[sid][m - 1]) for sid in ids))
    Path(path).write_text("\n".join(lines) + "\n")


def write_ground_csv(path: str | Path, grid: GroundGrid) -> None:
    """Normalized ground irradiance as a dense matrix, southern row first."""
    lines = [",".join([f"{v:.6f}" for v in row]) for row in grid.normalized.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def write_ground_pgm(path: str | Path, grid: GroundGrid) -> None:
    """Normalized ground irradiance as a binary 16-bit PGM image.

    Grayscale value = round(normalized * 65535), big-endian, top image row
    = northern field edge.
    """
    normalized = np.clip(grid.normalized, 0.0, 1.0)
    pixels = np.round(np.flipud(normalized) * PGM_MAXVAL).astype(">u2")
    ny, nx = pixels.shape
    Path(path).write_bytes(f"P5\n{nx} {ny}\n{PGM_MAXVAL}\n".encode("ascii") + pixels.tobytes())


def write_decision_csv(path: str | Path, points: list[DecisionPoint]) -> None:
    lines = ["scenario,kind,s,h,capacity_density,yield_kWh_m2,frac_low,frac_med,frac_high"]
    for p in points:
        lines.append(
            f"{p.scenario},{p.kind},{p.spacing:g},{p.height:g},"
            f"{_fmt(p.capacity_density_w_m2)},{_fmt(p.electricity_yield_kwh_m2)},"
            f"{_fmt(p.frac_low)},{_fmt(p.frac_med)},{_fmt(p.frac_high)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_comparisons_csv(path: str | Path, reports: list[IndicatorReport]) -> None:
    """Cross-scenario comparison table.

    ``specific_yield_normalized`` relates each scenario to the best
    specific yield of its mount kind (the least-shaded configuration);
    ``value_factor`` is the price-weighted over unweighted yield ratio,
    above 1 when production aligns with expensive hours.
    """
    best: dict[str, float] = {}
    for r in reports:
        best[r.kind] = max(best.get(r.kind, 0.0), r.specific_yield_kwh_kw)
    lines = [
        "scenario,kind,s,h,specific_yield_kWh_kW,specific_yield_normalized,"
        "yield_kWh_m2,price_weighted_yield_kWh_m2,value_factor"
    ]
    for r in reports:
        norm = r.specific_yield_kwh_kw / best[r.kind] if best[r.kind] > 0.0 else 0.0
        if r.price_weighted_yield_kwh_m2 is None:
            price = value = ""
        else:
            price = _fmt(r.price_weighted_yield_kwh_m2)
            energy = r.electricity_yield_kwh_m2
            value = _fmt(r.price_weighted_yield_kwh_m2 / energy if energy > 0.0 else 0.0)
        lines.append(
            f"{r.scenario},{r.kind},{r.spacing:g},{r.height:g},"
            f"{_fmt(r.specific_yield_kwh_kw)},{_fmt(norm)},"
            f"{_fmt(r.electricity_yield_kwh_m2)},{price},{value}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_regions_csv(path: str | Path, results: list[RegionPotential]) -> None:
    energy = "".join(f",energy_{kind}_TWh" for kind in MOUNT_KINDS)
    lines = ["region_id,total_km2,eligible_km2,share_pct,capacity_GW" + energy]
    for r in results:
        energies = ",".join(_fmt(r.energy_twh.get(kind, 0.0)) for kind in MOUNT_KINDS)
        lines.append(
            f"{r.region_id},{_fmt(r.total_km2)},{_fmt(r.eligible_km2)},"
            f"{_fmt(r.share_pct)},{_fmt(r.capacity_gw)},{energies}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_csv(path: str | Path, summary: dict[str, float]) -> None:
    lines = ["quantity,value"]
    for key in sorted(summary):
        lines.append(f"{key},{_fmt(summary[key])}")
    Path(path).write_text("\n".join(lines) + "\n")
