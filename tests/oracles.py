"""Independent brute-force reference implementations for cross-checks.

Everything here deliberately avoids the analytic shortcuts the package
uses (interval overlaps, projected-parallelogram affine inverses,
distance transforms, closed-form tracker rotation). The tests compare
the fast production routines against these slow, geometry-literal
routes on randomized and hand-picked cases. ``row_shading_fractions``
is the one exception: it spreads the production shading state over the
rows so that it can be compared with the per-row oracle. The reference
artifact writers format one value at a time; the bulk writers of
``agrivolt.outputs`` must match them byte for byte.

``reference_field_year`` runs the yield model one hour at a time, with
scalar ``math`` copies of the transposition, row shading and module
formulas; the production model evaluates all hours as arrays and must
match it bit for bit. ``reference_sky_columns`` does the same for the sky
year, with the per-hour sun and sky forms below (``solar_position``,
``eccentricity_correction``, ``toa_horizontal``, ``anisotropy_index``,
``diffuse_fraction``, ``horizon_brightening``) over weather rows; the
fixture generator computes its sun with them too. ``ground_shadow_mask``
and ``reference_ground_irradiance_map`` build the ground shadow map one
hour at a time, testing every cell against every row and adding every
cell's mask into the grids. The production places one interval per
shaded (line of cells, row) over blocks of hours, and adds each hour's
weights per run of cells that the interval ends cut; its masks and maps
must match these bit for bit; ``ground_shadow_masks`` gathers the
production's per-run masks to each cell for that comparison.
``check_hourly``, ``check_full_year`` and ``check_price_timeline`` are
the per-``datetime`` loops that once checked the time axis; the
production checks run as array expressions over the ``datetime64``
column and must raise the same messages. ``reference_ingest_weather`` and
``reference_ingest_prices`` read their files one row at a time, parsing
each row as it is read; the production reads each file into columns and
parses them whole, and must give the same arrays or the same refusal.
``reference_ingest_yields`` checks each yields row as it is read; the
production reads the whole file first, and must give the same table or
the same refusal.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from agrivolt.electrical import PanelModel, SimulationResult, wind_at_module
from agrivolt.layout import MOUNT_KINDS, Layout, RowGeometry
from agrivolt.land import ClassSets, LandRaster, RegionPotential
from agrivolt.shading import MIN_BLOCK_SHADOW_FRACTION, GroundGrid, _run_masks, row_shading
from agrivolt.sky import MIN_SUN_ALTITUDE, SkyYear
from agrivolt.errors import MAX_LISTED, InputError, listed
from agrivolt.weather import CLOSURE_TOLERANCE_WM2, WEATHER_COLUMNS, Weather, _check_hourly
from agrivolt.solar import (
    SOLAR_CONSTANT,
    SUPPORTED_YEARS,
    GeoLocation,
    PlaneOrientation,
    SolarPosition,
    incidence_angle,
    stamp_text,
    sun_vector,
)

_EPS = 1.0e-9

_J2000 = datetime(2000, 1, 1, 12, 0, 0, tzinfo=timezone.utc)


def _row_base(geom: RowGeometry, index: int) -> np.ndarray:
    return geom.origin + index * geom.pitch


def row_corners(geom: RowGeometry, index: int) -> np.ndarray:
    """The four corner points of row ``index``, shape (4, 3)."""
    base = _row_base(geom, index)
    return np.array([base, base + geom.along, base + geom.along + geom.rise, base + geom.rise])


def row_shading_fractions(geom: RowGeometry, sun_vec3: np.ndarray) -> np.ndarray:
    """Per-row geometric shading fractions F_GS from ``row_shading``.

    Rows with a sun-side neighbour share the production state's fraction;
    the edge row on the sun side has zero.
    """
    fractions = np.zeros(geom.count)
    shading = row_shading(geom, sun_vec3)
    if shading.shaded_rows == 0:
        return fractions
    fractions[:] = shading.f_gs
    # neighbours shade from the +pitch side when pitch and normal point the
    # same way relative to the sun; the last row in that direction has none
    tau = float(np.dot(geom.pitch, geom.normal)) / float(np.dot(sun_vec3, geom.normal))
    fractions[geom.count - 1 if tau > 0.0 else 0] = 0.0
    return fractions


def rasterized_row_shading(
    geom: RowGeometry,
    sun_vec3: np.ndarray,
    row_index: int,
    step: float = 0.01,
) -> float:
    """Shaded area fraction of one row, by sampling the rectangle.

    The row rectangle is sampled at ``step`` resolution (cell centres in
    both in-plane directions); from each sample a ray is cast toward the
    sun and intersected against every other row rectangle. The returned
    value is the fraction of samples whose ray hits any neighbour.
    """
    s_dot_n = float(np.dot(sun_vec3, geom.normal))
    if abs(s_dot_n) < 1.0e-12:
        return 0.0  # sun in the collector plane: zero-area shadows only

    nu = max(1, int(round(geom.length / step)))
    nv = max(1, int(round(geom.height / step)))
    u = (np.arange(nu) + 0.5) / nu  # fractions of the along edge
    v = (np.arange(nv) + 0.5) / nv  # fractions of the rise edge
    uu, vv = np.meshgrid(u, v)
    base = _row_base(geom, row_index)
    points = (
        base[None, :]
        + uu.reshape(-1, 1) * geom.along[None, :]
        + vv.reshape(-1, 1) * geom.rise[None, :]
    )

    # All rows share one normal; precompute the sample-plane offsets.
    p_dot_n = points @ geom.normal
    along_sq = float(np.dot(geom.along, geom.along))
    rise_sq = float(np.dot(geom.rise, geom.rise))

    shaded = np.zeros(points.shape[0], dtype=bool)
    for j in range(geom.count):
        if j == row_index:
            continue
        other = _row_base(geom, j)
        t = (float(np.dot(other, geom.normal)) - p_dot_n) / s_dot_n
        candidates = t > _EPS  # neighbour must sit sun-side of the sample
        if not candidates.any():
            continue
        hits = points[candidates] + t[candidates, None] * sun_vec3[None, :]
        rel = hits - other[None, :]
        hu = (rel @ geom.along) / along_sq
        hv = (rel @ geom.rise) / rise_sq
        inside = (hu >= -_EPS) & (hu <= 1.0 + _EPS) & (hv >= -_EPS) & (hv <= 1.0 + _EPS)
        shaded[candidates] |= inside
        if shaded.all():
            break
    return float(shaded.mean())


def rasterized_ground_mask(
    geom: RowGeometry,
    sun_vec3: np.ndarray,
    xx: np.ndarray,
    yy: np.ndarray,
) -> np.ndarray:
    """Ground shadow mask by explicit ray casting from each cell centre.

    For every ground point (x, y, 0) a ray is cast toward the sun and
    intersected against each row rectangle in 3D (ray-plane intersection
    followed by an in-rectangle test), independent of the production
    route that projects the rectangles down onto the ground plane.
    """
    blocked = np.zeros(xx.shape, dtype=bool)
    if sun_vec3[2] <= 0.0:
        return blocked
    s_dot_n = float(np.dot(sun_vec3, geom.normal))
    if abs(s_dot_n) < 1.0e-12:
        return blocked

    p_dot_n = xx * geom.normal[0] + yy * geom.normal[1]
    along_sq = float(np.dot(geom.along, geom.along))
    rise_sq = float(np.dot(geom.rise, geom.rise))

    for j in range(geom.count):
        base = _row_base(geom, j)
        t = (float(np.dot(base, geom.normal)) - p_dot_n) / s_dot_n
        candidates = t > _EPS
        if not candidates.any():
            continue
        hx = xx[candidates] + t[candidates] * sun_vec3[0]
        hy = yy[candidates] + t[candidates] * sun_vec3[1]
        hz = t[candidates] * sun_vec3[2]
        rel = np.stack(
            [hx - base[0], hy - base[1], hz - base[2]], axis=-1
        )
        hu = (rel @ geom.along) / along_sq
        hv = (rel @ geom.rise) / rise_sq
        inside = (hu >= -_EPS) & (hu <= 1.0 + _EPS) & (hv >= -_EPS) & (hv <= 1.0 + _EPS)
        mask = np.zeros(xx.shape, dtype=bool)
        mask[candidates] = inside
        blocked |= mask
    return blocked


def ground_shadow_mask(
    geom: RowGeometry, sun_vec3: np.ndarray, xx: np.ndarray, yy: np.ndarray
) -> np.ndarray:
    """Boolean mask of ground cells whose view of the sun a row blocks.

    Each row rectangle projects along the sun vector onto z = 0 as a
    parallelogram; a cell is blocked when its centre falls inside any
    row's parallelogram. Projection uses the affine inverse of the
    parallelogram edges, evaluated vectorized over the whole grid.
    """
    blocked = np.zeros(xx.shape, dtype=bool)
    sz = sun_vec3[2]
    if sz <= 0.0:
        return blocked

    def project(point: np.ndarray) -> np.ndarray:
        return point[:2] - (point[2] / sz) * sun_vec3[:2]

    g0 = project(geom.origin)
    a = project(geom.origin + geom.along) - g0
    b = project(geom.origin + geom.rise) - g0
    det = a[0] * b[1] - a[1] * b[0]
    if abs(det) < 1.0e-12:
        return blocked  # edge-on shadow with zero area
    dx = xx - g0[0]
    dy = yy - g0[1]
    u0 = (dx * b[1] - dy * b[0]) / det
    v0 = (a[0] * dy - a[1] * dx) / det
    # the pitch is horizontal, so row d just translates the parallelogram
    pu = (geom.pitch[0] * b[1] - geom.pitch[1] * b[0]) / det
    pv = (a[0] * geom.pitch[1] - a[1] * geom.pitch[0]) / det
    for d in range(geom.count):
        u = u0 - d * pu
        v = v0 - d * pv
        blocked |= (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (v <= 1.0)
    return blocked


def ground_shadow_masks(geom: RowGeometry, sun_vecs: np.ndarray, xs: np.ndarray,
                        ys: np.ndarray) -> np.ndarray:
    """The production's masks, not an oracle: the per-run masks of
    ``shading._run_masks``, which ground maps add up, gathered to each cell.
    (H, ny, nx) for (H, 3) sun vectors, (ny, nx) for one, over cell centres
    ``xs`` by ``ys``."""
    cells, runs, masks = _run_masks(geom, sun_vecs, xs, ys)
    masks = np.array([*masks], dtype=bool).reshape(-1, runs)
    return masks[:, cells] if sun_vecs.ndim == 2 else masks[0, cells]


def rows_at_hour(geom: RowGeometry, i: int) -> RowGeometry:
    """The rows at hour ``i`` of an hourly geometry; fixed rows are their own."""
    if geom.normal.ndim == 1:
        return geom
    return replace(geom, origin=geom.origin[i], rise=geom.rise[i], normal=geom.normal[i])


def reference_ground_irradiance_map(
    layout: Layout, hours: SkyYear, cell_size: float = 0.5
) -> GroundGrid:
    """Ground shadow map in the per-hour form: one :func:`ground_shadow_mask`
    per lit hour, added into the grids hour by hour."""
    nx = max(1, int(round(layout.field[0] / cell_size)))
    ny = max(1, int(round(layout.field[1] / cell_size)))
    xs = (np.arange(nx) + 0.5) * cell_size
    ys = (np.arange(ny) + 0.5) * cell_size
    xx, yy = np.meshgrid(xs, ys)

    blocked_direct = np.zeros((ny, nx))
    blocked_circ = np.zeros((ny, nx))
    unshaded_total = 0.0
    daylight_hours = 0

    sun = SolarPosition(hours.altitude, hours.azimuth)
    geoms = layout.row_geometry(layout.orientation(sun))
    sun_vecs = sun_vector(sun)
    columns = (hours.ghi, hours.bhi, hours.dhi, hours.k1, hours.k_hori, hours.altitude)
    for i, (ghi, bhi, dhi, k1, k_hori, altitude) in enumerate(zip(*(c.tolist() for c in columns))):
        if ghi <= 0.0:
            continue
        daylight_hours += 1
        direct_h = bhi
        circ_h = k1 * dhi
        iso_h = k_hori * (1.0 - k1) * dhi
        unshaded_total += direct_h + circ_h + iso_h
        if altitude <= MIN_SUN_ALTITUDE or direct_h + circ_h <= 0.0:
            continue
        mask = ground_shadow_mask(rows_at_hour(geoms, i), sun_vecs[i], xx, yy)
        if direct_h > 0.0:
            blocked_direct += direct_h * mask
        if circ_h > 0.0:
            blocked_circ += circ_h * mask

    return GroundGrid(
        cell_size=cell_size,
        xs=xs,
        ys=ys,
        blocked_direct=blocked_direct,
        blocked_circumsolar=blocked_circ,
        unshaded_total=unshaded_total,
        daylight_hours=daylight_hours,
    )


def brute_force_eligibility(
    raster: LandRaster,
    classes: ClassSets,
    buffer_m: float,
) -> np.ndarray:
    """Eligibility by all-pairs pixel-centre distances.

    A pixel is eligible when its class is in the include set and no
    excluded pixel centre (excluded class, or any code outside all three
    sets that is not NODATA) lies within ``buffer_m``. NODATA pixels are
    transparent: never eligible, never excluding.
    """
    codes = raster.codes
    known = classes.include | classes.exclude | classes.neutral
    unknown = ~np.isin(codes, sorted(known)) & (codes != raster.nodata)
    excluded = np.isin(codes, sorted(classes.exclude)) | unknown
    include = np.isin(codes, sorted(classes.include))

    exc_rows, exc_cols = np.nonzero(excluded)
    if exc_rows.size == 0:
        return include

    eligible = np.zeros(codes.shape, dtype=bool)
    inc_rows, inc_cols = np.nonzero(include)
    for r, c in zip(inc_rows, inc_cols):
        d2 = (exc_rows - r) ** 2 + (exc_cols - c) ** 2
        min_d = math.sqrt(float(d2.min())) * raster.cell_size
        eligible[r, c] = min_d > buffer_m
    return eligible


def reference_region_potential(
    raster: LandRaster,
    eligible: np.ndarray,
    regions: LandRaster,
    capacity_density_w_m2: float,
    yields,
) -> list[RegionPotential]:
    """Per-region potential by one full-raster mask per region.

    The region ids are the distinct values of ``regions`` other than its
    NODATA; each region's land and eligible pixels are counted with its
    own ``regions == id`` mask over the whole grid.
    """
    region_ids = sorted(int(v) for v in np.unique(regions.codes) if v != regions.nodata)
    results = []
    for rid in region_ids:
        in_region = (regions.codes == rid) & (raster.codes != raster.nodata)
        total_km2 = float(in_region.sum()) * raster.pixel_area_km2
        eligible_km2 = float((in_region & eligible).sum()) * raster.pixel_area_km2
        capacity_gw = eligible_km2 * 1.0e6 * capacity_density_w_m2 / 1.0e9
        energy = {
            kind: capacity_gw * yield_kwh_kw / 1000.0
            for kind, yield_kwh_kw in yields(rid).items()
        }
        results.append(
            RegionPotential(
                region_id=rid,
                total_km2=total_km2,
                eligible_km2=eligible_km2,
                share_pct=100.0 * eligible_km2 / total_km2 if total_km2 > 0.0 else 0.0,
                capacity_gw=capacity_gw,
                energy_twh=energy,
            )
        )
    return results


def sweep_min_incidence(
    sun: SolarPosition, step_deg: float = 0.5
) -> tuple[float, float]:
    """Smallest incidence angle over a dense sweep of tracker rotations.

    Rotations run the full +-90 deg range about a horizontal north-south
    axis at ``step_deg`` resolution; positive rotations face the plane
    west, negative east. Returns ``(best_rotation_rad, min_incidence_rad)``.
    """
    best_rot = 0.0
    best_inc = math.inf
    steps = int(round(180.0 / step_deg))
    for k in range(steps + 1):
        rot = math.radians(-90.0 + k * step_deg)
        if rot >= 0.0:
            plane = PlaneOrientation(tilt=rot, azimuth=math.pi / 2.0)
        else:
            plane = PlaneOrientation(tilt=-rot, azimuth=-math.pi / 2.0)
        inc = incidence_angle(sun, plane)
        if inc < best_inc:
            best_inc = inc
            best_rot = rot
    return best_rot, best_inc


def _incidence(sun: SolarPosition, plane: PlaneOrientation) -> float:
    cos_inc = math.sin(sun.altitude) * math.cos(plane.tilt) + math.cos(sun.altitude) * math.sin(
        plane.tilt
    ) * math.cos(sun.azimuth - plane.azimuth)
    return math.acos(min(1.0, max(-1.0, cos_inc)))


def _plane_irradiance(
    bhi: float, dhi: float, ghi: float, altitude: float, k1: float, k_hori: float,
    tilt: float, incidence: float, albedo: float,
) -> tuple[float, float, float]:
    """(beam-like, isotropic, reflected) irradiance on a plane in one hour."""
    direct = circumsolar = 0.0
    if altitude > MIN_SUN_ALTITUDE:
        cos_inc = math.cos(incidence)
        if cos_inc > 0.0:
            direct = bhi * cos_inc / math.sin(altitude)
            circumsolar = k1 * dhi * cos_inc / math.sin(altitude)
    sky_view = 0.5 * (1.0 + math.cos(tilt))
    isotropic = k_hori * (1.0 - k1) * dhi * sky_view
    reflected = albedo * ghi * 0.5 * (1.0 - math.cos(tilt))
    return direct + circumsolar, isotropic, reflected


def _effective_irradiance(
    poa: tuple[float, float, float], f_es: float, incidence: float, alpha_r: float
) -> float:
    beamlike, isotropic, reflected = poa
    al = 1.0
    if incidence < 0.5 * math.pi:
        scale = 1.0 - math.exp(-1.0 / alpha_r)
        al = 1.0 - (1.0 - math.exp(-math.cos(incidence) / alpha_r)) / scale
    return beamlike * (1.0 - f_es) * (1.0 - al) + isotropic + reflected


def _power_output(
    g_eff: float, temp_air: float, wind_module: float, p_stc: float, panel: PanelModel
) -> tuple[float, float]:
    """(power W, cell temperature degC) of one collector."""
    if g_eff <= 0.0:
        return 0.0, temp_air
    t_cell = temp_air + g_eff / (panel.u0 + panel.u1 * wind_module)
    ratio = g_eff / panel.g_stc
    eta = 0.0
    if ratio > 0.0:
        k1, k2, k3, k4, k5, k6 = panel.huld
        lg = math.log(ratio)
        dt = t_cell - panel.t_stc
        eta = max(
            0.0, 1.0 + k1 * lg + k2 * lg * lg + dt * (k3 + k4 * lg + k5 * lg * lg) + k6 * dt * dt
        )
    return p_stc * eta * panel.eta_system * g_eff / panel.g_stc, t_cell


def _row_shading(geom: RowGeometry, sun_vec3: np.ndarray, n_tb: int) -> tuple[int, float]:
    """(shaded rows, effective shading factor) for one sun position."""
    if geom.count < 2:
        return 0, 0.0
    s_dot_n = float(np.dot(sun_vec3, geom.normal))
    if abs(s_dot_n) < 1.0e-12:
        return 0, 0.0
    tau = float(np.dot(geom.pitch, geom.normal)) / s_dot_n
    if abs(tau) < 1.0e-12:
        return 0, 0.0
    direction = 1 if tau > 0.0 else -1
    shift = direction * geom.pitch - (direction * tau) * sun_vec3
    length, height = float(np.linalg.norm(geom.along)), float(np.linalg.norm(geom.rise))
    du = float(np.dot(shift, geom.along / length))
    dv = float(np.dot(shift, geom.rise / height))
    u_lo, u_hi = max(0.0, du), min(length, du + length)
    v_lo, v_hi = max(0.0, dv), min(height, dv + height)
    if u_hi <= u_lo or v_hi <= v_lo:
        return 0, 0.0
    f_gs = (u_hi - u_lo) * (v_hi - v_lo) / (length * height)
    strip = height / n_tb
    min_area = MIN_BLOCK_SHADOW_FRACTION * length * strip
    n_sb = 0
    for k in range(n_tb):
        overlap_v = min(v_hi, (k + 1) * strip) - max(v_lo, k * strip)
        if overlap_v > 0.0 and (u_hi - u_lo) * overlap_v > min_area:
            n_sb += 1
    return geom.count - 1, 1.0 - (1.0 - f_gs) * (1.0 - n_sb / (n_tb + 1.0))


def reference_field_year(
    layout: Layout, sky: SkyYear, panel: PanelModel | None = None, albedo: float = 0.2
) -> tuple[np.ndarray, ...]:
    """Hourly field output in the plain per-hour, two-evaluation form.

    Each hour derives each face's incidence angle anew for every use, gates
    the shading state per face on that face's beam-like light, and runs
    the whole field twice: once with the hour's shading and once with none
    for the counterfactual. Returns ``(p_w, p_noshadow_w, t_cell_c,
    f_es_front, f_es_rear, g_eff_wm2)`` as
    :func:`agrivolt.electrical.simulate_year` does.
    """
    panel = panel or PanelModel()
    n = len(sky)
    p_w, p_ns_w, t_cell = np.zeros(n), np.zeros(n), np.zeros(n)
    f_front, f_rear, g_eff_out = np.zeros(n), np.zeros(n), np.zeros(n)
    rows = layout.row_count
    p_stc_row = panel.stc_efficiency * panel.g_stc * (layout.row_length * layout.height)
    bifacial = layout.bifaciality > 0.0
    columns = (sky.bhi, sky.dhi, sky.ghi, sky.temp_air, sky.wind10, sky.altitude, sky.azimuth,
               sky.k1, sky.k_hori)

    for i, (bhi, dhi, ghi, temp_air, wind10, alt, az, k1, k_hori) in enumerate(
        zip(*(c.tolist() for c in columns))
    ):
        t_cell[i] = temp_air
        if ghi <= 0.0 or alt <= 0.0:
            continue
        sun = SolarPosition(alt, az)
        front = layout.orientation(sun)
        hour = (bhi, dhi, ghi, alt, k1, k_hori)
        poa_front = _plane_irradiance(*hour, front.tilt, _incidence(sun, front), albedo)
        poa_rear = (0.0, 0.0, 0.0)
        if bifacial:
            rear = layout.rear_orientation(front)
            poa_rear = _plane_irradiance(*hour, rear.tilt, _incidence(sun, rear), albedo)
        n_shaded, f_es = 0, 0.0
        if poa_front[0] > 0.0 or poa_rear[0] > 0.0:
            geom = layout.row_geometry(front)
            n_shaded, f_es = _row_shading(geom, sun_vector(sun), panel.blocks)
        w_mod = wind_at_module(wind10, layout.mid_height, panel.wind_shear_exponent)

        def field_power(shaded_f_es: float) -> tuple[float, float, float]:
            p_sum = t_sum = g_sum = 0.0
            for count, fs in ((rows - n_shaded, 0.0), (n_shaded, shaded_f_es)):
                if count == 0:
                    continue
                g = _effective_irradiance(
                    poa_front, fs if poa_front[0] > 0.0 else 0.0, _incidence(sun, front),
                    panel.alpha_r,
                )
                if bifacial:
                    g += layout.bifaciality * _effective_irradiance(
                        poa_rear, fs if poa_rear[0] > 0.0 else 0.0, _incidence(sun, rear),
                        panel.alpha_r,
                    )
                p_row, t_row = _power_output(g, temp_air, w_mod, p_stc_row, panel)
                p_sum += count * p_row
                t_sum += count * t_row
                g_sum += count * g
            return p_sum, t_sum / rows, g_sum / rows

        p_w[i], t_cell[i], g_eff_out[i] = field_power(f_es)
        p_ns_w[i] = field_power(0.0)[0]
        share = n_shaded / rows
        if poa_front[0] > 0.0:
            f_front[i] = share * f_es
        if poa_rear[0] > 0.0:
            f_rear[i] = share * f_es
    return p_w, p_ns_w, t_cell, f_front, f_rear, g_eff_out


@dataclass(frozen=True)
class IrradianceSample:
    """One hour of measured weather.

    bhi/dhi/ghi are beam, diffuse and global irradiance on the horizontal
    plane in W/m2; temp_air in degC; wind10 is wind speed at 10 m in m/s.
    """

    time: datetime
    bhi: float
    dhi: float
    ghi: float
    temp_air: float
    wind10: float


def _days_since_j2000(time: datetime) -> float:
    if time.tzinfo is None:
        raise ValueError("naive datetime given; timestamps must be UTC-aware")
    return (time - _J2000).total_seconds() / 86400.0


def solar_position(location: GeoLocation, time: datetime) -> SolarPosition:
    """Sun altitude and azimuth of one timestamp (see :func:`agrivolt.solar.solar_position`)."""
    if time.year not in SUPPORTED_YEARS:
        raise ValueError(f"timestamp outside supported range 1950-2100: {time.isoformat()}")
    n = _days_since_j2000(time)

    mean_lon = (280.460 + 0.9856474 * n) % 360.0
    mean_anom = math.radians((357.528 + 0.9856003 * n) % 360.0)
    ecl_lon = math.radians(
        mean_lon + 1.915 * math.sin(mean_anom) + 0.020 * math.sin(2.0 * mean_anom)
    )
    obliquity = math.radians(23.439 - 4.0e-7 * n)

    right_asc = math.atan2(math.cos(obliquity) * math.sin(ecl_lon), math.cos(ecl_lon))
    declination = math.asin(math.sin(obliquity) * math.sin(ecl_lon))

    gmst_deg = (280.46061837 + 360.98564736629 * n) % 360.0
    hour_angle = math.radians(gmst_deg + location.longitude) - right_asc
    hour_angle = math.atan2(math.sin(hour_angle), math.cos(hour_angle))

    lat = math.radians(location.latitude)
    sin_alt = (
        math.sin(lat) * math.sin(declination)
        + math.cos(lat) * math.cos(declination) * math.cos(hour_angle)
    )
    altitude = math.asin(min(1.0, max(-1.0, sin_alt)))
    # measured from south, positive toward west (afternoon hour angles > 0)
    azimuth = math.atan2(
        math.sin(hour_angle),
        math.cos(hour_angle) * math.sin(lat) - math.tan(declination) * math.cos(lat),
    )
    return SolarPosition(altitude=altitude, azimuth=azimuth)


def eccentricity_correction(time: datetime) -> float:
    """Sun-earth distance correction factor for the day of year (dimensionless)."""
    doy = time.timetuple().tm_yday
    x = 2.0 * math.pi * (doy - 1 + (time.hour - 12) / 24.0) / 365.0
    return (
        1.00011
        + 0.034221 * math.cos(x)
        + 0.00128 * math.sin(x)
        + 0.000719 * math.cos(2.0 * x)
        + 0.000077 * math.sin(2.0 * x)
    )


def toa_horizontal(sun: SolarPosition, time: datetime) -> float:
    """Top-of-atmosphere direct irradiance on a horizontal surface, W/m2, for
    an already computed sun; zero whenever the sun is at or below the horizon."""
    if sun.altitude <= 0.0:
        return 0.0
    return SOLAR_CONSTANT * eccentricity_correction(time) * math.sin(sun.altitude)


def anisotropy_index(sample: IrradianceSample, toa_horizontal: float) -> float:
    """Fraction of diffuse treated as circumsolar: measured beam over
    top-of-atmosphere beam, clamped to [0, 1]. Zero for dark hours."""
    if toa_horizontal <= 0.0 or sample.bhi <= 0.0:
        return 0.0
    return min(1.0, sample.bhi / toa_horizontal)


def diffuse_fraction(sample: IrradianceSample) -> float:
    """Diffuse share of global horizontal irradiance, in [0, 1]; 1 when dark."""
    if sample.ghi <= 0.0:
        return 1.0
    return min(1.0, max(0.0, sample.dhi / sample.ghi))


def horizon_brightening(diffuse_frac: float, altitude: float) -> float:
    """Horizon brightening factor >= 1, strongest for clear skies."""
    f = min(1.0, max(0.0, diffuse_frac))
    alt = max(0.0, altitude)
    return 1.0 + math.sqrt(1.0 - f) * math.sin(0.5 * alt) ** 3


#: The columns of :class:`agrivolt.sky.SkyYear` besides ``times``.
SKY_COLUMNS = ("month", "bhi", "dhi", "ghi", "temp_air", "wind10", "altitude", "azimuth", "toa",
               "k1", "k_hori")


def reference_sky_columns(
    location: GeoLocation, weather: list[IrradianceSample]
) -> dict[str, np.ndarray]:
    """The columns of :func:`agrivolt.sky.sky_year`, each hour's sun and sky
    derived on its own with the scalar forms above."""
    rows = []
    for s in weather:
        sun = solar_position(location, s.time)
        toa = toa_horizontal(sun, s.time)
        k_hori = horizon_brightening(diffuse_fraction(s), sun.altitude)
        k1 = anisotropy_index(s, toa)
        rows.append((s.time.month, s.bhi, s.dhi, s.ghi, s.temp_air, s.wind10, sun.altitude,
                     sun.azimuth, toa, k1, k_hori))
    return {
        name: np.array(column, dtype=np.int64 if name == "month" else float)
        for name, column in zip(SKY_COLUMNS, zip(*rows))
    }


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def reference_write_hourly_csv(path: str | Path, result: SimulationResult) -> None:
    """The hourly CSV, one timestamp and one value at a time."""
    lines = ["time,P_W,T_cell_C,F_ES_front,F_ES_rear,G_eff_Wm2,P_noshadow_W"]
    for i, stamp in enumerate(result.times.tolist()):
        lines.append(
            f"{stamp.strftime('%Y-%m-%dT%H:%M:%SZ')},{_fmt(result.p_w[i])},"
            f"{_fmt(result.t_cell_c[i])},{_fmt(result.f_es_front[i])},"
            f"{_fmt(result.f_es_rear[i])},{_fmt(result.g_eff_wm2[i])},"
            f"{_fmt(result.p_noshadow_w[i])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def reference_write_ground_csv(path: str | Path, grid: GroundGrid) -> None:
    """The ground CSV, one numpy value at a time, southern row first."""
    lines = [",".join(_fmt(v) for v in row) for row in grid.normalized]
    Path(path).write_text("\n".join(lines) + "\n")


# The checks of the time column, one timestamp at a time: the production
# checks run as array expressions and must raise the same messages.


def check_hourly(times: list[datetime], path: Path) -> None:
    """:func:`agrivolt.weather._check_hourly` over aware datetimes."""
    hour = timedelta(hours=1)
    missing: list[str] = []  # the first few of ``n_missing``
    n_missing = 0
    duplicates: list[str] = []
    for prev, cur in zip(times, times[1:]):
        if cur == prev:
            duplicates.append(cur.isoformat())
            continue
        if cur < prev:
            raise InputError(f"{path}: timestamps not increasing at {cur.isoformat()}")
        expect = prev + hour
        while expect < cur:
            n_missing += 1
            if n_missing <= MAX_LISTED:
                missing.append(expect.isoformat())
            expect += hour
    if duplicates:
        raise InputError(f"{path}: duplicate timestamps: {listed(duplicates)}")
    if n_missing:
        raise InputError(f"{path}: missing hours: {listed(missing, n_missing)}")


def check_full_year(times: list[datetime]) -> None:
    """:func:`agrivolt.sky.check_full_year` over aware datetimes."""
    if len(times) not in (8760, 8784):
        raise InputError(
            f"weather must cover one full year of hourly samples, got {len(times)} rows"
        )
    for prev, cur in zip(times, times[1:]):
        if (cur - prev).total_seconds() != 3600.0:
            raise InputError(f"weather not hourly after {prev.isoformat()}: step {cur - prev}")


def check_price_timeline(stamps: list[datetime], times: list[datetime], path: Path) -> None:
    """The alignment check of :func:`agrivolt.weather.ingest_prices` over aware
    datetimes of equal length."""
    for i, (got, want) in enumerate(zip(stamps, times)):
        if got != want:
            raise InputError(
                f"{path}: price timeline diverges from weather at row {i + 2}: "
                f"{got.isoformat()} != {want.isoformat()}"
            )


# The weather, price and yields readers one row at a time: each row is parsed
# as it is read, so a refusal names the first bad row, and a file that cannot
# be read is refused at the row where reading fails.


def _reference_records(path: Path, columns: tuple[str, ...], what: str):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{path}: empty file")
            missing = [c for c in columns if c not in header]
            if missing:
                raise InputError(f"{path}: missing {what} columns {missing}")
            at = [max(i for i, name in enumerate(header) if name == c) for c in columns]
            row_num = 1
            for row_num, row in enumerate(filter(None, reader), start=2):
                yield row_num, [row[i] if i < len(row) else "" for i in at]
            if row_num == 1:
                raise InputError(f"{path}: no data rows")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def _reference_micros(text: str, path: Path, row: int, years: range | None) -> int:
    """A timestamp as UTC microseconds since 1970, naive ones read as UTC;
    refused outside ``years`` (None: any)."""
    cleaned = text.strip().replace("Z", "+00:00")
    try:
        stamp = datetime.fromisoformat(cleaned)
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        stamp = stamp.astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise InputError(f"{path}: row {row}: bad timestamp {text!r}: {exc}") from exc
    if years is not None and stamp.year not in years:
        raise InputError(f"{path}: row {row}: year {stamp.year} is outside 1950-2100")
    return (stamp - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(microseconds=1)


def _reference_float(text: str, column: str, path: Path, row: int) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise InputError(
            f"{path}: row {row}: column {column!r} is not a number: {text!r}"
        ) from exc
    if not math.isfinite(value):
        raise InputError(f"{path}: row {row}: column {column!r} is not finite: {text!r}")
    return value


def reference_ingest_weather(path: Path) -> Weather:
    """:func:`agrivolt.weather.ingest_weather`, parsing one row at a time."""
    micros, values = [], []
    for row, (stamp, *fields) in _reference_records(path, WEATHER_COLUMNS, "weather"):
        micros.append(_reference_micros(stamp, path, row, SUPPORTED_YEARS))
        values.append([_reference_float(text, column, path, row)
                       for text, column in zip(fields, WEATHER_COLUMNS[1:])])
    times = np.array(micros, dtype="M8[us]")
    bhi, dhi, ghi, temp_air, wind10 = np.array(values).T.copy()
    negative = np.flatnonzero((bhi < 0.0) | (dhi < 0.0) | (ghi < 0.0) | (wind10 < 0.0)) + 2
    if negative.size:
        raise InputError(
            f"{path}: negative irradiance or wind in rows {listed(negative.tolist())}"
        )
    repaired = np.abs(ghi - (bhi + dhi)) > CLOSURE_TOLERANCE_WM2
    ghi = np.where(repaired, bhi + dhi, ghi)
    _check_hourly(times, path)
    return Weather(times, bhi, dhi, ghi, temp_air, wind10)


def reference_ingest_prices(path: Path, times: np.ndarray) -> np.ndarray:
    """:func:`agrivolt.weather.ingest_prices`, parsing one row at a time."""
    micros, prices = [], []
    for row, (stamp, price) in _reference_records(path, ("time", "price"), "price"):
        micros.append(_reference_micros(stamp, path, row, None))
        prices.append(_reference_float(price, "price", path, row))
    if len(micros) != len(times):
        raise InputError(f"{path}: {len(micros)} price rows for {len(times)} weather hours")
    stamps = np.array(micros, dtype="M8[us]")
    diverge = np.flatnonzero(stamps != times)
    if diverge.size:
        i = diverge[0]
        raise InputError(
            f"{path}: price timeline diverges from weather at row {i + 2}: "
            f"{stamp_text(stamps[i])} != {stamp_text(times[i])}"
        )
    series = np.array(prices)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(series))
    if mean == 0.0 or not math.isfinite(mean):
        raise InputError(f"{path}: mean price is {mean}, price weighting undefined")
    return series


def reference_ingest_yields(path: Path) -> dict[int, dict[str, float]]:
    """:func:`agrivolt.weather.ingest_yields`, checking one row at a time."""
    table: dict[int, dict[str, float]] = {}
    for row, (region_id, *texts) in _reference_records(path, ("region_id", *MOUNT_KINDS),
                                                       "yields"):
        try:
            region = int(region_id)
        except ValueError as exc:
            raise InputError(f"{path}: row {row}: region_id is not an integer") from exc
        if region in table:
            raise InputError(f"{path}: row {row}: region {region} given twice")
        table[region] = {k: _reference_float(t, k, path, row) for k, t in zip(MOUNT_KINDS, texts)}
        if min(table[region].values()) < 0.0:
            raise InputError(f"{path}: row {row}: yields must be >= 0")
    return table
