"""Row-on-row shading and ground-level shadow maps.

All shading is resolved by projecting collector rectangles along the sun
vector. Two targets matter:

* other collector planes, giving the geometric row shading fraction F_GS
  and the count of shaded electrical blocks N_SB per collector, and
* the ground plane z = 0, giving per-cell shadow masks that accumulate
  into a normalized ground irradiance map.

Because every row in a layout is an identical rectangle repeated at a
uniform horizontal pitch, the shadow a neighbour casts on a collector
plane is that collector's own rectangle translated in-plane, and the
shadow of the m-th neighbour is translated m times as far. Whatever part
of a farther neighbour's shadow lands on the collector is therefore
contained in the nearest sun-side neighbour's shadow, so the union over
the full neighbour set equals the nearest neighbour's contribution. That
reduces F_GS to a pair of interval overlaps; the claim is exercised
against a brute-force rasterized oracle in the test suite.

Shadows only ever remove the beam-like irradiance components (direct and
circumsolar); isotropic and ground-reflected light always arrive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import Layout, RowGeometry
from .sky import MIN_SUN_ALTITUDE, SkyYear
from .solar import SolarPosition, sun_vector

#: A shadow must cover more than this fraction of a block's area to count
#: the block as shaded; keeps sliver intersections from tripping N_SB.
MIN_BLOCK_SHADOW_FRACTION = 1.0e-3


@dataclass(frozen=True)
class RowShading:
    """Shading of a layout's rows, one entry per sun position.

    ``shaded_rows`` rows share the shadow of their nearest sun-side neighbour,
    the others are open. A shaded row loses the area fraction ``f_gs`` and
    ``n_sb`` of its electrical blocks, so that the beam-like irradiance on it
    drops by the effective shading factor ``f_es``. All zero where no row is
    shaded.
    """

    shaded_rows: np.ndarray
    f_gs: np.ndarray
    n_sb: np.ndarray
    f_es: np.ndarray


def effective_shading_factor(f_gs, n_sb, n_tb: int = 3):
    """Electrical shading factor: 1 - (1 - F_GS) * (1 - N_SB / (N_TB + 1)).

    Blocks react to partial shading much harder than the shaded area alone
    suggests; with no shaded block this degrades gracefully to F_GS.
    """
    if not np.all((0.0 <= f_gs) & (f_gs <= 1.0)):
        raise ValueError(f"f_gs out of range [0, 1]: {f_gs}")
    if not np.all((0 <= n_sb) & (n_sb <= n_tb)):
        raise ValueError(f"n_sb out of range [0, {n_tb}]: {n_sb}")
    return 1.0 - (1.0 - f_gs) * (1.0 - n_sb / (n_tb + 1.0))


def shaded_blocks(
    u_extent, v_lo, v_hi, length: float, height, n_tb: int = 3,
    min_fraction: float = MIN_BLOCK_SHADOW_FRACTION,
):
    """Count shaded blocks for a rectangular shadow on one collector.

    Blocks are n_tb equal strips stacked across the collector short axis
    (v direction). A strip counts as shaded when the shadow rectangle
    (u extent ``u_extent``, v span [v_lo, v_hi]) overlaps more than
    ``min_fraction`` of the strip area.
    """
    strip = height / n_tb
    min_area = min_fraction * length * strip
    count = 0
    for k in range(n_tb):
        top, bottom = (k + 1) * strip, k * strip
        overlap_v = np.where(top < v_hi, top, v_hi) - np.where(bottom > v_lo, bottom, v_lo)
        count = count + ((overlap_v > 0.0) & (u_extent * overlap_v > min_area))
    return np.where((u_extent <= 0.0) | (v_hi <= v_lo), 0, count)[()]


def _shadow_rectangle(geom: RowGeometry, sun_vecs: np.ndarray):
    """In-plane shadow offsets (du, dv) of the nearest sun-side neighbour,
    and where one exists.

    None exists when the sun is parallel to the plane, the rows are coplanar
    with the sun, or the layout has a single row. The row at the far end of
    the field from the sun has no sun-side neighbour and stays unshaded.
    """
    s_dot_n = np.vecdot(sun_vecs, geom.normal)
    # neighbour at offset d casts onto the plane only if it sits sun-side,
    # i.e. d * (pitch . n) / (s . n) > 0
    tau = np.vecdot(geom.pitch, geom.normal) / s_dot_n
    casts = ~(np.abs(s_dot_n) < 1.0e-12) & ~(np.abs(tau) < 1.0e-12) & (geom.count >= 2)
    direction = np.where(tau > 0.0, 1.0, -1.0)[..., None]
    shift = direction * geom.pitch - (direction * tau[..., None]) * sun_vecs
    u_hat = geom.along / geom.length
    v_hat = geom.rise / np.asarray(geom.height)[..., None]
    return np.vecdot(shift, u_hat), np.vecdot(shift, v_hat), casts


def row_shading(geom: RowGeometry, sun_vecs: np.ndarray, n_tb: int = 3) -> RowShading:
    """Shading of the rows of a layout for each sun vector ((3,) or (H, 3)).

    The row on the sun side of the field has no sun-side neighbour and stays
    unshaded; all remaining rows share the state cast by their nearest
    sun-side neighbour (which contains every farther neighbour's shadow).

    The state is purely geometric and face independent: the same shadow
    applies to whichever collector face the beam currently lights.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        du, dv, casts = _shadow_rectangle(geom, sun_vecs)
        length, height = geom.length, geom.height
        # Python's max(0, x) and min(side, x + side), bit for bit
        u_lo, u_hi = np.where(du > 0.0, du, 0.0), du + length
        u_hi = np.where(u_hi < length, u_hi, length)
        v_lo, v_hi = np.where(dv > 0.0, dv, 0.0), dv + height
        v_hi = np.where(v_hi < height, v_hi, height)
        shaded = casts & ~(u_hi <= u_lo) & ~(v_hi <= v_lo)
        f_gs = np.where(shaded, (u_hi - u_lo) * (v_hi - v_lo) / (length * height), 0.0)
        n_sb = np.where(shaded, shaded_blocks(u_hi - u_lo, v_lo, v_hi, length, height, n_tb), 0)
        f_es = effective_shading_factor(f_gs, n_sb, n_tb)
    return RowShading(np.where(shaded, geom.count - 1, 0)[()], f_gs[()], n_sb[()], f_es[()])


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


@dataclass
class GroundGrid:
    """Accumulated ground-level irradiance over a study period.

    ``blocked_direct`` and ``blocked_circumsolar`` hold per-cell energy in
    Wh/m2 removed by shadows; ``unshaded_total`` is the energy every cell
    would receive without the plant (identical for all cells on flat
    ground); ``daylight_hours`` counts hours with nonzero global
    irradiance in the period.
    """

    cell_size: float
    xs: np.ndarray
    ys: np.ndarray
    blocked_direct: np.ndarray
    blocked_circumsolar: np.ndarray
    unshaded_total: float
    daylight_hours: int

    @property
    def normalized(self) -> np.ndarray:
        """Per-cell received / unshaded irradiance, in [0, 1]."""
        if self.unshaded_total <= 0.0:
            return np.ones_like(self.blocked_direct)
        blocked = self.blocked_direct + self.blocked_circumsolar
        return 1.0 - blocked / self.unshaded_total

    def mean_daytime_irradiance(self) -> np.ndarray:
        """Per-cell mean received irradiance over daylight hours, W/m2."""
        if self.daylight_hours == 0:
            return np.zeros_like(self.blocked_direct)
        received = self.unshaded_total - self.blocked_direct - self.blocked_circumsolar
        return received / self.daylight_hours


def ground_irradiance_map(
    layout: Layout, hours: SkyYear, cell_size: float = 0.5
) -> GroundGrid:
    """Accumulate the ground-level shadow map over the given sky hours.

    Horizontal components per hour: the full measured beam, the
    circumsolar share k1 of the diffuse (both blocked wherever a collector
    sits between cell and sun) and the horizon-brightened isotropic
    remainder (never blocked; the ground-reflected term vanishes on a
    horizontal receiver). Cells sit at the centres of a ``cell_size`` grid
    covering the layout field.
    """
    nx = max(1, int(round(layout.field[0] / cell_size)))
    ny = max(1, int(round(layout.field[1] / cell_size)))
    xs = (np.arange(nx) + 0.5) * cell_size
    ys = (np.arange(ny) + 0.5) * cell_size
    xx, yy = np.meshgrid(xs, ys)

    blocked_direct = np.zeros((ny, nx))
    blocked_circ = np.zeros((ny, nx))
    unshaded_total = 0.0
    daylight_hours = 0

    # one array pass for the period: numpy calls on one hour's scalars cost more
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
        mask = ground_shadow_mask(geoms.hour(i), sun_vecs[i], xx, yy)
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
