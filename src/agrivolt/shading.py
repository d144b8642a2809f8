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

#: Hours whose ground masks are built at once; bounds the (hours, cells) arrays.
_MASK_CHUNK_HOURS = 64


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


def _first_passing(value_at, bound, strict: bool, guess: np.ndarray, n: int) -> np.ndarray:
    """Least index in [0, n] where non-decreasing ``value_at`` passes ``bound`` (``>`` if
    ``strict``, else ``>=``; n passes), walked to from ``guess`` until both sides decide it."""
    def passes(i):
        value = value_at(np.clip(i, 0, n - 1))
        return (i >= n) | ((value > bound) if strict else (value >= bound))

    i = np.clip(guess, 0, n)
    while (step := ~passes(i) * 1 - ((i > 0) & passes(i - 1))).any():
        i = i + step
    return i


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def ground_shadow_masks(
    geom: RowGeometry, sun_vecs: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Masks of the ground cells whose view of the sun a row blocks: (H, ny, nx)
    for (H, 3) sun vectors, (ny, nx) for one, over cell centres ``xs`` by ``ys``.

    Each row projects along the sun onto z = 0 as a parallelogram with edges
    ``a`` and ``b``; a cell is blocked when its affine coordinates (u, v) in
    any row's lie in [0, 1]. Rows run along x or y, so ``a`` has a component
    exactly 0 and ``v`` takes one value per cell line along the rows. On a
    line that a row's v range covers, ``u`` is a chain of correctly rounded
    monotone operations of the cell, so its cells with 0 <= u <= 1 form one
    interval. Each end is placed analytically, then decided by the same ``u``
    expression on both sides: the masks match the per-cell test bit for bit.
    """
    if geom.along[2] != 0.0 or np.count_nonzero(geom.along) != 1:
        raise ValueError(f"rows must run along x or y, not along {geom.along}")
    sun = np.atleast_2d(sun_vecs)
    sz = sun[:, 2]
    along_x = geom.along[0] != 0.0

    def project(point: np.ndarray) -> np.ndarray:
        return point[..., :2] - (point[..., 2] / sz)[:, None] * sun[:, :2]

    g0 = project(geom.origin)
    a0, a1 = (project(geom.origin + geom.along) - g0).T
    b0, b1 = (project(geom.origin + geom.rise) - g0).T
    det = a0 * b1 - a1 * b0
    dx, dy = xs - g0[:, :1], ys - g0[:, 1:]
    # the pitch is horizontal, so row d just translates the parallelogram
    pu = (geom.pitch[0] * b1 - geom.pitch[1] * b0) / det
    pv = (a0 * geom.pitch[1] - a1 * geom.pitch[0]) / det
    # a1 (rows along x) or a0 (along y) is exactly 0, so v0 is one value per grid
    # row or column, up to the sign of a zero: take it at the line's first cell
    line_dx, line_dy = (dx[:, :1], dy) if along_x else (dx, dy[:, :1])
    v0 = (a0[:, None] * line_dy - a1[:, None] * line_dx) / det[:, None]
    v = v0[:, :, None] - np.arange(geom.count) * pv[:, None, None]
    # no shadow below the horizon, nor an edge-on one with zero area
    casts = (sz > 0.0) & ~(np.abs(det) < 1.0e-12)
    h, line, d = np.nonzero((v >= 0.0) & (v <= 1.0) & casts[:, None, None])

    run, b0, b1, det, pu = (xs if along_x else ys), b0[h], b1[h], det[h], pu[h]
    line_d = (dy if along_x else dx)[h, line]
    slope = (b1 if along_x else -b0) / det  # du per unit run, never 0 where |det| >= 1e-12
    sign = np.where(slope < 0.0, -1.0, 1.0)

    def signed_u(r: np.ndarray) -> np.ndarray:  # sign * u at run index r: non-decreasing
        dx_c, dy_c = (dx[h, r], line_d) if along_x else (line_d, dy[h, r])
        return sign * ((dx_c * b1 - dy_c * b0) / det - d * pu)

    # 0 <= u <= 1 is bound <= sign * u <= bound + 1
    w0, bound = signed_u(np.zeros_like(h)), np.where(sign > 0.0, 0.0, -1.0)
    start = run.searchsorted(run[0] + (bound - w0) / np.abs(slope), "left")
    stop = run.searchsorted(run[0] + (bound + 1.0 - w0) / np.abs(slope), "right")
    start = _first_passing(signed_u, bound, False, start, run.size)
    stop = _first_passing(signed_u, bound + 1.0, True, stop, run.size)

    # merge each (hour, line)'s intervals where consecutive ones overlap or touch
    group = h * v.shape[1] + line  # hits come sorted by hour, line and row
    same = group[1:] == group[:-1]
    joined = same & (np.maximum(start[1:], start[:-1]) <= np.minimum(stop[1:], stop[:-1]))
    first = np.flatnonzero(np.r_[True, ~joined])[: group.size]
    start, stop = np.minimum.reduceat(start, first), np.maximum.reduceat(stop, first)
    group = group[first]
    rank = np.arange(group.size) - group.searchsorted(group)
    r = np.arange(run.size, dtype=np.min_scalar_type(run.size))
    r, axis = (r, 2) if along_x else (r[:, None], 1)
    masks = np.zeros((len(sun), ys.size, xs.size), dtype=bool)
    for k in range(rank.max(initial=-1) + 1):  # the k-th merged interval of each line
        ends = np.zeros((2, len(sun) * v.shape[1]), dtype=r.dtype)
        ends[:, group[rank == k]] = start[rank == k], stop[rank == k]
        lo, hi = np.expand_dims(ends.reshape(2, len(sun), -1), axis + 1)
        masks |= (r >= lo) & (r < hi)
    return masks if sun_vecs.ndim == 2 else masks[0]


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

    direct, circ, iso = hours.bhi, hours.k1 * hours.dhi, hours.k_hori * (1.0 - hours.k1) * hours.dhi
    daylight = hours.ghi > 0.0
    # a running sum in hour order (np.sum would add pairwise and round differently)
    unshaded_total = float(np.cumsum(np.append(0.0, (direct + circ + iso)[daylight]))[-1])
    lit = np.flatnonzero(daylight & (hours.altitude > MIN_SUN_ALTITUDE) & (direct + circ > 0.0))

    # direct and circumsolar; an hour without one adds +0.0 to its grid: no change
    weights = np.maximum(np.stack([direct, circ], axis=-1)[lit], 0.0)[:, :, None, None]
    blocked = np.zeros((2, ny, nx))
    for first in range(0, lit.size, _MASK_CHUNK_HOURS):
        chunk = lit[first:first + _MASK_CHUNK_HOURS]
        sun = SolarPosition(hours.altitude[chunk], hours.azimuth[chunk])
        geoms = layout.row_geometry(layout.orientation(sun))
        masks = ground_shadow_masks(geoms, sun_vector(sun), xs, ys)
        for mask, weight in zip(masks, weights[first:first + _MASK_CHUNK_HOURS]):
            blocked += weight * mask  # hour by hour, in order: never a pairwise sum

    return GroundGrid(
        cell_size=cell_size,
        xs=xs,
        ys=ys,
        blocked_direct=blocked[0],
        blocked_circumsolar=blocked[1],
        unshaded_total=unshaded_total,
        daylight_hours=int(np.count_nonzero(daylight)),
    )
