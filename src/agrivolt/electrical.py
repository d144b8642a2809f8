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

import numpy as np

from .layout import Layout
from .shading import N_TB, row_shading
from .sky import DEFAULT_ALBEDO, PlaneIrradiance, SkyYear, check_full_year, plane_irradiance
from .solar import SolarPosition, incidence_angle, math_map, sun_vector

#: Relative-efficiency coefficients for crystalline silicon modules
#: (irradiance/temperature fit, dimensionless).
HULD_COEFFICIENTS_CSI = (-0.017237, -0.040465, -0.004702, 0.000149, 0.000170, 0.000005)


#: Most series cell blocks per module. The shading model passes over the lit
#: hours once per block: a million blocks took 40 s on a one-case grid.
MAX_BLOCKS = 100


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
    blocks: int = N_TB
    huld: tuple[float, float, float, float, float, float] = HULD_COEFFICIENTS_CSI
    wind_shear_exponent: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.stc_efficiency <= 1.0:
            raise ValueError(f"stc_efficiency out of range (0, 1]: {self.stc_efficiency}")
        if not 0.0 < self.eta_system <= 1.0:
            raise ValueError(f"eta_system out of range (0, 1]: {self.eta_system}")
        if self.alpha_r <= 0.0:
            raise ValueError(f"alpha_r must be positive: {self.alpha_r}")
        if not 1 <= self.blocks <= MAX_BLOCKS:
            raise ValueError(f"blocks must be between 1 and {MAX_BLOCKS}: {self.blocks}")
        if self.u0 <= 0.0 or self.u1 < 0.0:
            raise ValueError("u0 must be positive, u1 non-negative")

    def nameplate_w(self, collector_area: float) -> float:
        """Nameplate power of ``collector_area`` m2 of modules at G_STC, W."""
        return self.stc_efficiency * self.g_stc * collector_area


def angular_loss(incidence, alpha_r: float = PanelModel.alpha_r):
    """Reflection loss of beam irradiance at the given incidence angle.

    Zero at normal incidence, exactly 1 at grazing incidence (>= pi/2):

        AL = 1 - (1 - exp(-cos(theta)/alpha_r)) / (1 - exp(-1/alpha_r))
    """
    grazing = np.asarray(incidence) >= 0.5 * math.pi
    scale = 1.0 - math.exp(-1.0 / alpha_r)
    decay = math_map(math.exp, np.where(grazing, 0.0, -np.cos(incidence) / alpha_r))
    return np.where(grazing, 1.0, 1.0 - (1.0 - decay) / scale)[()]


def wind_at_module(
    wind10: float, module_height: float, exponent: float = PanelModel.wind_shear_exponent
) -> float:
    """Wind speed scaled from 10 m to module mid height: (h/10)^exp * w10."""
    if module_height <= 0.0:
        raise ValueError(f"module height must be positive: {module_height}")
    try:
        return (module_height / 10.0) ** exponent * wind10
    except OverflowError:
        raise ValueError(f"(h/10)^exp overflows at h = {module_height:g} m, exp = {exponent:g}")


def cell_temperature(
    temp_air, g_eff, wind_module, u0: float = PanelModel.u0, u1: float = PanelModel.u1
):
    """Cell temperature in degC: T_amb + G_eff / (u0 + u1 * wind)."""
    return temp_air + g_eff / (u0 + u1 * wind_module)


def relative_efficiency(g_eff, t_cell, panel: PanelModel):
    """Efficiency relative to STC; clamped at zero, exactly 1 at STC."""
    ratio = np.asarray(g_eff, dtype=float) / panel.g_stc
    # checked post-division: a subnormal g_eff can underflow the ratio to 0
    dark = ratio <= 0.0
    k1, k2, k3, k4, k5, k6 = panel.huld
    lg = math_map(math.log, np.where(dark, 1.0, ratio))
    dt = t_cell - panel.t_stc
    eta = 1.0 + k1 * lg + k2 * lg * lg + dt * (k3 + k4 * lg + k5 * lg * lg) + k6 * dt * dt
    return np.where(dark | ~(eta > 0.0), 0.0, eta)[()]


def effective_irradiance(poa: PlaneIrradiance, f_es, incidence, alpha_r: float):
    """One face's contribution to G_eff: shadows (effective shading factor
    ``f_es``) and reflection losses hit only the beam-like components,
    diffuse sky and ground light pass."""
    al = angular_loss(incidence, alpha_r)
    return poa.beamlike * (1.0 - f_es) * (1.0 - al) + poa.isotropic + poa.reflected


def power_output(g_eff, temp_air, wind_module, p_stc: float, panel: PanelModel):
    """(power W, cell temperature degC, relative efficiency) for one collector;
    a collector without light sits at ambient temperature."""
    dark = np.asarray(g_eff) <= 0.0
    t_cell = cell_temperature(temp_air, g_eff, wind_module, panel.u0, panel.u1)
    eta = relative_efficiency(g_eff, t_cell, panel)
    power = np.where(dark, 0.0, p_stc * eta * panel.eta_system * g_eff / panel.g_stc)
    return power[()], np.where(dark, temp_air, t_cell)[()], np.where(dark, 0.0, eta)[()]


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
    times: np.ndarray
    p_w: np.ndarray
    p_noshadow_w: np.ndarray
    t_cell_c: np.ndarray
    f_es_front: np.ndarray
    f_es_rear: np.ndarray
    g_eff_wm2: np.ndarray
    capacity_w: float = field(init=False)

    def __post_init__(self) -> None:
        self.capacity_w = self.panel.nameplate_w(self.layout.collector_area)


def simulate_year(
    layout: Layout,
    sky: SkyYear,
    panel: PanelModel | None = None,
    albedo: float = DEFAULT_ALBEDO,
) -> SimulationResult:
    """Hourly field production for one complete sky year, all lit hours at once.

    Rows fall into at most two shading classes per hour (the sun-side edge
    row is never shaded; all others share the nearest-neighbour shadow), so
    the module model runs once over the lit hours of both classes stacked,
    each face's angular loss once per hour, and weighs by row count. The
    open rows' output is also the shading counterfactual of every row.
    """
    panel = panel or PanelModel()
    check_full_year(sky.times)
    lit = ~((sky.ghi <= 0.0) | (sky.altitude <= 0.0))
    day = sky.take(lit)
    sun = SolarPosition(day.altitude, day.azimuth)
    rows = layout.row_count
    p_stc_row = panel.nameplate_w(layout.row_length * layout.height)
    bifacial = layout.bifaciality > 0.0
    wind_factor = wind_at_module(1.0, layout.mid_height, panel.wind_shear_exponent)

    # numpy follows IEEE arithmetic silently, as Python floats do
    with np.errstate(all="ignore"):
        w_mod = wind_factor * day.wind10
        front = layout.orientation(sun)
        inc_front = incidence_angle(sun, front)
        poa_front = plane_irradiance(day, front, inc_front, albedo)
        lights_front, lights_rear = poa_front.beamlike > 0.0, False
        if bifacial:
            rear = layout.rear_orientation(front)
            inc_rear = incidence_angle(sun, rear)
            poa_rear = plane_irradiance(day, rear, inc_rear, albedo)
            lights_rear = poa_rear.beamlike > 0.0
        # geometric shadows exist regardless of face; they only act on the
        # face the beam currently lights, and a face without beam-like light
        # loses nothing to them
        shading = row_shading(layout.row_geometry(front), sun_vector(sun), panel.blocks)
        n_shaded = np.where(lights_front | lights_rear, shading.shaded_rows, 0)
        shaded = n_shaded > 0
        f_es = np.where(shaded, shading.f_es, 0.0)
        f = np.stack([np.zeros_like(f_es), f_es])  # the open rows, then the shaded rows
        g = effective_irradiance(poa_front, f, inc_front, panel.alpha_r)
        if bifacial:
            g = g + layout.bifaciality * effective_irradiance(poa_rear, f, inc_rear, panel.alpha_r)
        p, t, _ = power_output(g, day.temp_air, w_mod, p_stc_row, panel)
        p_sum, t_sum, g_sum = (0.0 + (rows - n_shaded) * x[0] for x in (p, t, g))
        # without shadows every row would produce what the open rows do
        p_noshadow = p_sum + n_shaded * p[0]
        p_sum, t_sum, g_sum = (
            np.where(shaded, total + n_shaded * x[1], total)
            for total, x in zip((p_sum, t_sum, g_sum), (p, t, g))
        )
        share_es = n_shaded / rows * f_es

    def hourly(values, idle=None):
        out = np.zeros(len(sky)) if idle is None else idle.copy()
        out[lit] = values
        return out

    return SimulationResult(
        layout=layout,
        panel=panel,
        times=sky.times,
        p_w=hourly(p_sum),
        p_noshadow_w=hourly(p_noshadow),
        t_cell_c=hourly(t_sum / rows, sky.temp_air),
        f_es_front=hourly(np.where(lights_front, share_es, 0.0)),
        f_es_rear=hourly(np.where(lights_rear, share_es, 0.0)),
        g_eff_wm2=hourly(g_sum / rows),
    )
