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
from .sky import MIN_SUN_ALTITUDE, SkyHour
from .solar import sun_vector

#: A shadow must cover more than this fraction of a block's area to count
#: the block as shaded; keeps sliver intersections from tripping N_SB.
MIN_BLOCK_SHADOW_FRACTION = 1.0e-3


@dataclass(frozen=True)
class ShadingState:
    """Shading of one collector for one hour.

    f_gs is the shaded area fraction, n_sb the number of shaded electrical
    blocks out of n_tb, f_es the effective shading factor applied to the
    beam-like irradiance.
    """

    f_gs: float
    n_sb: int
    f_es: float


UNSHADED = ShadingState(f_gs=0.0, n_sb=0, f_es=0.0)


def effective_shading_factor(f_gs: float, n_sb: int, n_tb: int = 3) -> float:
    """Electrical shading factor: 1 - (1 - F_GS) * (1 - N_SB / (N_TB + 1)).

    Blocks react to partial shading much harder than the shaded area alone
    suggests; with no shaded block this degrades gracefully to F_GS.
    """
    if not 0.0 <= f_gs <= 1.0:
        raise ValueError(f"f_gs out of range [0, 1]: {f_gs}")
    if not 0 <= n_sb <= n_tb:
        raise ValueError(f"n_sb out of range [0, {n_tb}]: {n_sb}")
    return 1.0 - (1.0 - f_gs) * (1.0 - n_sb / (n_tb + 1.0))


def shaded_blocks(
    u_extent: float,
    v_lo: float,
    v_hi: float,
    length: float,
    height: float,
    n_tb: int = 3,
    min_fraction: float = MIN_BLOCK_SHADOW_FRACTION,
) -> int:
    """Count shaded blocks for a rectangular shadow on one collector.

    Blocks are n_tb equal strips stacked across the collector short axis
    (v direction). A strip counts as shaded when the shadow rectangle
    (u extent ``u_extent``, v span [v_lo, v_hi]) overlaps more than
    ``min_fraction`` of the strip area.
    """
    if u_extent <= 0.0 or v_hi <= v_lo:
        return 0
    strip = height / n_tb
    min_area = min_fraction * length * strip
    count = 0
    for k in range(n_tb):
        overlap_v = min(v_hi, (k + 1) * strip) - max(v_lo, k * strip)
        if overlap_v > 0.0 and u_extent * overlap_v > min_area:
            count += 1
    return count


def _shadow_rectangle(
    geom: RowGeometry, sun_vec3: np.ndarray
) -> tuple[float, float, int] | None:
    """In-plane shadow offset (du, dv) of the nearest sun-side neighbour.

    Returns None when no neighbour can shade (sun parallel to the plane,
    rows coplanar with the sun, or a single-row layout). The int is the
    pitch direction (+1/-1) of the shading neighbours; the row at the
    opposite end of the field has none and stays unshaded.
    """
    if geom.count < 2:
        return None
    normal = geom.normal
    s_dot_n = float(np.dot(sun_vec3, normal))
    if abs(s_dot_n) < 1.0e-12:
        return None
    # neighbour at offset d casts onto the plane only if it sits sun-side,
    # i.e. d * (pitch . n) / (s . n) > 0
    tau = float(np.dot(geom.pitch, normal)) / s_dot_n
    if abs(tau) < 1.0e-12:
        return None
    direction = 1 if tau > 0.0 else -1
    shift = direction * geom.pitch - (direction * tau) * sun_vec3
    u_hat = geom.along / geom.length
    v_hat = geom.rise / geom.height
    return float(np.dot(shift, u_hat)), float(np.dot(shift, v_hat)), direction


def row_shading(
    geom: RowGeometry, sun_vec3: np.ndarray, n_tb: int = 3
) -> tuple[int, int, ShadingState]:
    """Shading state of the rows of a layout for one sun position.

    Returns ``(unshaded_rows, shaded_rows, state)``: the row on the sun
    side of the field has no sun-side neighbour and stays unshaded; all
    remaining rows share the state cast by their nearest sun-side
    neighbour (which contains every farther neighbour's shadow).

    The state is purely geometric and face independent: the same shadow
    applies to whichever collector face the beam currently lights.
    """
    rect = _shadow_rectangle(geom, sun_vec3)
    if rect is None:
        return geom.count, 0, UNSHADED
    du, dv, _ = rect
    length, height = geom.length, geom.height
    u_lo, u_hi = max(0.0, du), min(length, du + length)
    v_lo, v_hi = max(0.0, dv), min(height, dv + height)
    if u_hi <= u_lo or v_hi <= v_lo:
        return geom.count, 0, UNSHADED
    f_gs = (u_hi - u_lo) * (v_hi - v_lo) / (length * height)
    n_sb = shaded_blocks(u_hi - u_lo, v_lo, v_hi, length, height, n_tb)
    state = ShadingState(f_gs=f_gs, n_sb=n_sb, f_es=effective_shading_factor(f_gs, n_sb, n_tb))
    return 1, geom.count - 1, state


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
    layout: Layout, hours: list[SkyHour], cell_size: float = 0.5
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

    for hour in hours:
        sample, sun = hour.sample, hour.sun
        if sample.ghi <= 0.0:
            continue
        daylight_hours += 1
        direct_h = sample.bhi
        circ_h = hour.k1 * sample.dhi
        iso_h = hour.k_hori * (1.0 - hour.k1) * sample.dhi
        unshaded_total += direct_h + circ_h + iso_h
        if sun.altitude <= MIN_SUN_ALTITUDE or direct_h + circ_h <= 0.0:
            continue
        geom = layout.row_geometry(layout.orientation(sun))
        mask = ground_shadow_mask(geom, sun_vector(sun), xx, yy)
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
