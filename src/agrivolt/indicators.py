"""Deployment indicators derived from one simulated year.

All indicators normalise by the field's ground area A_f, not the collector
area, so layouts of different density compare on land use:

* capacity density  C / A_f                      (W/m2)
* electricity yield sum(E) / A_f                 (kWh/m2)
* price-weighted yield sum(E * p) / <p> / A_f    (kWh/m2)
* shadow losses     100 * (1 - E / E_noshadow)   (%)
* specific yield    sum(E) / C                   (kWh/kW)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .electrical import SimulationResult
from .errors import InputError


def capacity_density(capacity_w: float, field_area_m2: float) -> float:
    """Installed nameplate power per ground area, W/m2."""
    return capacity_w / field_area_m2


def electricity_yield(energy_wh: np.ndarray, field_area_m2: float) -> float:
    """Annual electricity per ground area, kWh/m2."""
    return float(np.sum(energy_wh)) / 1000.0 / field_area_m2


def price_weighted_yield(
    energy_wh: np.ndarray, prices: np.ndarray, field_area_m2: float
) -> float:
    """Yield weighted by the hourly market price over its arithmetic mean.

    Equals the plain electricity yield for a flat price series; production
    concentrated in expensive hours scores higher. A zero mean price, or
    prices that overflow the weighted sum, raise :class:`InputError`.
    """
    if len(prices) != len(energy_wh):
        raise InputError(
            f"price series length {len(prices)} does not match {len(energy_wh)} hours"
        )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
        weighted = np.sum(energy_wh * prices) / np.mean(prices) / 1000.0 / field_area_m2
    if not np.isfinite(weighted):
        raise InputError("price weighting undefined: the mean price is zero or the sum overflows")
    return float(weighted)


def shadow_losses(energy_wh: np.ndarray, noshadow_energy_wh: np.ndarray) -> float:
    """Percent of counterfactual (shadow-free) production lost to row shading."""
    reference = float(np.sum(noshadow_energy_wh))
    if reference <= 0.0:
        return 0.0
    return 100.0 * (1.0 - float(np.sum(energy_wh)) / reference)


def specific_yield(energy_wh: np.ndarray, capacity_w: float) -> float:
    """Annual energy per nameplate power, kWh/kW."""
    if capacity_w <= 0.0:
        raise InputError("capacity must be positive")
    return float(np.sum(energy_wh)) / capacity_w


@dataclass(frozen=True)
class IndicatorReport:
    scenario: str
    kind: str
    spacing: float
    height: float
    capacity_density_w_m2: float
    electricity_yield_kwh_m2: float
    price_weighted_yield_kwh_m2: float | None
    shadow_losses_pct: float
    specific_yield_kwh_kw: float


def report(
    result: SimulationResult, scenario: str, prices: np.ndarray | None = None
) -> IndicatorReport:
    """Compute the indicator set for one simulated scenario; a refusal names it."""
    area = result.layout.field_area
    try:
        return IndicatorReport(
            scenario=scenario,
            kind=result.layout.kind,
            spacing=result.layout.spacing,
            height=result.layout.height,
            capacity_density_w_m2=capacity_density(result.capacity_w, area),
            electricity_yield_kwh_m2=electricity_yield(result.p_w, area),
            price_weighted_yield_kwh_m2=(
                None if prices is None else price_weighted_yield(result.p_w, prices, area)
            ),
            shadow_losses_pct=shadow_losses(result.p_w, result.p_noshadow_w),
            specific_yield_kwh_kw=specific_yield(result.p_w, result.capacity_w),
        )
    except InputError as error:
        raise InputError(f"{scenario}: {error}") from None
