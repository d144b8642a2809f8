"""PV module electrical model and the hourly field simulation.

Per collector and hour, the effective irradiance is

    G_eff = [(B + D_circ)(1 - F_ES)(1 - AL) + D_iso + R]_front
          + phi * [same]_rear

with AL the beam angular reflection loss and F_ES the effective shading
factor. Cell temperature follows a wind-dependent heat loss model and the
relative conversion efficiency a six-coefficient fit in irradiance and
temperature (crystalline silicon coefficients), so that output power is

    P = P_STC * eta_rel(G_eff, T_cell) * eta_system * G_eff / G_STC

which returns exactly P_STC at STC (G_eff = 1000 W/m2, T_cell = 25 degC,
eta_system = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .layout import Layout
from .sky import PlaneIrradiance, SkyHour, plane_irradiance
from .solar import incidence_angle, sun_vector
from .shading import ShadingState, UNSHADED, row_shading
from .weather import check_full_year

#: Relative-efficiency coefficients for crystalline silicon modules
#: (irradiance/temperature fit, dimensionless).
HULD_COEFFICIENTS_CSI = (-0.017237, -0.040465, -0.004702, 0.000149, 0.000170, 0.000005)


@dataclass(frozen=True)
class PanelModel:
    """Module electrical parameters.

    stc_efficiency converts collector area to nameplate power at G_STC;
    u0/u1 are the irradiance-to-temperature heat loss coefficients
    (W/m2/K and W s/m3/K); alpha_r shapes the angular reflection loss;
    blocks is the number of series cell blocks per panel reacting to
    partial shading; wind_shear_exponent scales 10 m wind speed down to
    module height via (h/10)^exponent.
    """

    stc_efficiency: float = 0.20
    g_stc: float = 1000.0
    t_stc: float = 25.0
    alpha_r: float = 0.17
    u0: float = 26.92
    u1: float = 6.24
    eta_system: float = 0.86
    blocks: int = 3
    huld: tuple[float, float, float, float, float, float] = HULD_COEFFICIENTS_CSI
    wind_shear_exponent: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.stc_efficiency <= 1.0:
            raise ValueError(f"stc_efficiency out of range (0, 1]: {self.stc_efficiency}")
        if not 0.0 < self.eta_system <= 1.0:
            raise ValueError(f"eta_system out of range (0, 1]: {self.eta_system}")
        if self.alpha_r <= 0.0:
            raise ValueError(f"alpha_r must be positive: {self.alpha_r}")
        if self.blocks < 1:
            raise ValueError("blocks must be >= 1")
        if self.u0 <= 0.0 or self.u1 < 0.0:
            raise ValueError("u0 must be positive, u1 non-negative")


def angular_loss(incidence: float, alpha_r: float = 0.17) -> float:
    """Reflection loss of beam irradiance at the given incidence angle.

    Zero at normal incidence, exactly 1 at grazing incidence (>= pi/2):

        AL = 1 - (1 - exp(-cos(theta)/alpha_r)) / (1 - exp(-1/alpha_r))
    """
    if incidence >= 0.5 * math.pi:
        return 1.0
    scale = 1.0 - math.exp(-1.0 / alpha_r)
    return 1.0 - (1.0 - math.exp(-math.cos(incidence) / alpha_r)) / scale


def wind_at_module(wind10: float, module_height: float, exponent: float = 2.0) -> float:
    """Wind speed scaled from 10 m to module mid height: (h/10)^exp * w10."""
    if module_height <= 0.0:
        raise ValueError(f"module height must be positive: {module_height}")
    try:
        return (module_height / 10.0) ** exponent * wind10
    except OverflowError:
        raise ValueError(f"(h/10)^exp overflows at h = {module_height:g} m, exp = {exponent:g}")


def cell_temperature(
    temp_air: float, g_eff: float, wind_module: float, u0: float = 26.92, u1: float = 6.24
) -> float:
    """Cell temperature in degC: T_amb + G_eff / (u0 + u1 * wind)."""
    return temp_air + g_eff / (u0 + u1 * wind_module)


def relative_efficiency(g_eff: float, t_cell: float, panel: PanelModel) -> float:
    """Efficiency relative to STC; clamped at zero, exactly 1 at STC."""
    ratio = g_eff / panel.g_stc
    # checked post-division: a subnormal g_eff can underflow the ratio to 0
    if ratio <= 0.0:
        return 0.0
    k1, k2, k3, k4, k5, k6 = panel.huld
    lg = math.log(ratio)
    dt = t_cell - panel.t_stc
    eta = 1.0 + k1 * lg + k2 * lg * lg + dt * (k3 + k4 * lg + k5 * lg * lg) + k6 * dt * dt
    return max(0.0, eta)


def effective_irradiance(
    poa: PlaneIrradiance, shading: ShadingState, incidence: float, alpha_r: float
) -> float:
    """One face's contribution to G_eff: shadows and reflection losses hit
    only the beam-like components, diffuse sky and ground light pass."""
    al = angular_loss(incidence, alpha_r)
    return poa.beamlike * (1.0 - shading.f_es) * (1.0 - al) + poa.isotropic + poa.reflected


def power_output(
    g_eff: float,
    temp_air: float,
    wind_module: float,
    p_stc: float,
    panel: PanelModel,
) -> tuple[float, float, float]:
    """(power W, cell temperature degC, relative efficiency) for one collector."""
    if g_eff <= 0.0:
        return 0.0, temp_air, 0.0
    t_cell = cell_temperature(temp_air, g_eff, wind_module, panel.u0, panel.u1)
    eta = relative_efficiency(g_eff, t_cell, panel)
    power = p_stc * eta * panel.eta_system * g_eff / panel.g_stc
    return power, t_cell, eta


@dataclass
class SimulationResult:
    """Hourly output of one layout over one weather year.

    Power arrays are field totals in W (one entry per hour, so numerically
    equal to Wh); temperature, shading and irradiance columns are averages
    over the rows of the field. ``p_noshadow_w`` is the counterfactual with
    row shading switched off (F_ES = 0), everything else identical.
    """

    layout: Layout
    panel: PanelModel
    times: list[datetime]
    p_w: np.ndarray
    p_noshadow_w: np.ndarray
    t_cell_c: np.ndarray
    f_es_front: np.ndarray
    f_es_rear: np.ndarray
    g_eff_wm2: np.ndarray
    capacity_w: float = field(init=False)

    def __post_init__(self) -> None:
        self.capacity_w = (
            self.panel.stc_efficiency * self.panel.g_stc * self.layout.collector_area
        )

    @property
    def energy_kwh(self) -> float:
        return float(self.p_w.sum()) / 1000.0

    @property
    def noshadow_energy_kwh(self) -> float:
        return float(self.p_noshadow_w.sum()) / 1000.0


def simulate_year(
    layout: Layout,
    sky: list[SkyHour],
    panel: PanelModel | None = None,
    albedo: float = 0.2,
) -> SimulationResult:
    """Hourly field production for one complete year of sky hours.

    Rows fall into at most two shading classes per hour (the sun-side edge
    row is never shaded; all others share the nearest-neighbour shadow), so
    each hour evaluates the module model once per class and weighs by row
    count. The open rows' output is also the shading counterfactual of
    every row.
    """
    panel = panel or PanelModel()
    times = [hour.sample.time for hour in sky]
    check_full_year(times)

    n = len(sky)
    p_w = np.zeros(n)
    p_ns_w = np.zeros(n)
    t_cell = np.zeros(n)
    f_front = np.zeros(n)
    f_rear = np.zeros(n)
    g_eff_out = np.zeros(n)

    rows = layout.row_count
    row_area = layout.row_length * layout.height
    p_stc_row = panel.stc_efficiency * panel.g_stc * row_area
    bifacial = layout.bifaciality > 0.0
    wind_factor = wind_at_module(1.0, layout.mid_height, panel.wind_shear_exponent)

    for i, hour in enumerate(sky):
        sample, sun = hour.sample, hour.sun
        t_cell[i] = sample.temp_air
        if sample.ghi <= 0.0 or sun.altitude <= 0.0:
            continue

        front = layout.orientation(sun)
        inc_front = incidence_angle(sun, front)
        poa_front = plane_irradiance(hour, front, inc_front, albedo)
        if bifacial:
            rear = layout.rear_orientation(front)
            inc_rear = incidence_angle(sun, rear)
            poa_rear = plane_irradiance(hour, rear, inc_rear, albedo)
        else:
            poa_rear = PlaneIrradiance(0.0, 0.0, 0.0, 0.0)
            inc_rear = 0.5 * math.pi

        # geometric shadows exist regardless of face; they only act on the
        # face the beam currently lights, and a face without beam-like light
        # loses nothing to them
        if poa_front.beamlike > 0.0 or (bifacial and poa_rear.beamlike > 0.0):
            geom = layout.row_geometry(front)
            n_open, n_shaded, state = row_shading(geom, sun_vector(sun), panel.blocks)
        else:
            n_open, n_shaded, state = rows, 0, UNSHADED

        w_mod = wind_factor * sample.wind10
        phi = layout.bifaciality
        p_sum = t_sum = g_sum = 0.0
        for count, st in ((n_open, UNSHADED), (n_shaded, state)):
            if count == 0:
                continue
            g = effective_irradiance(poa_front, st, inc_front, panel.alpha_r)
            if bifacial:
                g += phi * effective_irradiance(poa_rear, st, inc_rear, panel.alpha_r)
            p_row, t_row, _ = power_output(g, sample.temp_air, w_mod, p_stc_row, panel)
            p_sum += count * p_row
            t_sum += count * t_row
            g_sum += count * g
            if st is UNSHADED:
                # without shadows every row would produce what the open rows do
                p_ns_w[i] = p_sum + n_shaded * p_row
        p_w[i], t_cell[i], g_eff_out[i] = p_sum, t_sum / rows, g_sum / rows
        share = n_shaded / rows
        if poa_front.beamlike > 0.0:
            f_front[i] = share * state.f_es
        if poa_rear.beamlike > 0.0:
            f_rear[i] = share * state.f_es

    return SimulationResult(
        layout=layout,
        panel=panel,
        times=times,
        p_w=p_w,
        p_noshadow_w=p_ns_w,
        t_cell_c=t_cell,
        f_es_front=f_front,
        f_es_rear=f_rear,
        g_eff_wm2=g_eff_out,
    )
