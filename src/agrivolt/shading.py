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
from itertools import pairwise

import numpy as np

from .layout import DEFAULT_CELL_SIZE, Layout, RowGeometry
from .sky import MIN_SUN_ALTITUDE, SkyYear
from .solar import SolarPosition, sun_vector

#: Series cell blocks per module (N_TB), stacked across its short axis.
N_TB = 3

#: A shadow must cover more than this fraction of a block's area to count
#: the block as shaded; keeps sliver intersections from tripping N_SB.
MIN_BLOCK_SHADOW_FRACTION = 1.0e-3

#: Hours whose ground shadows are placed and painted at once; bounds the arrays per map.
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


def effective_shading_factor(f_gs, n_sb, n_tb: int = N_TB):
    """Electrical shading factor: 1 - (1 - F_GS) * (1 - N_SB / (N_TB + 1)).

    Blocks react to partial shading much harder than the shaded area alone
    suggests; with no shaded block this degrades gracefully to F_GS.
    """
    if not np.all((0.0 <= f_gs) & (f_gs <= 1.0)):
        raise ValueError(f"f_gs out of range [0, 1]: {f_gs}")
    if not np.all((0 <= n_sb) & (n_sb <= n_tb)):
        raise ValueError(f"n_sb out of range [0, {n_tb}]: {n_sb}")
    return 1.0 - (1.0 - f_gs) * (1.0 - n_sb / (n_tb + 1.0))


def shaded_blocks(u_extent, v_lo, v_hi, length: float, height, n_tb: int = N_TB):
    """Count shaded blocks for a rectangular shadow on one collector.

    Blocks are n_tb equal strips stacked across the collector short axis
    (v direction). A strip counts as shaded when the shadow rectangle
    (u extent ``u_extent``, v span [v_lo, v_hi]) overlaps more than
    :data:`MIN_BLOCK_SHADOW_FRACTION` of the strip area.
    """
    strip = height / n_tb
    min_area = MIN_BLOCK_SHADOW_FRACTION * length * strip
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


def row_shading(geom: RowGeometry, sun_vecs: np.ndarray, n_tb: int = N_TB) -> RowShading:
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


def _index_range(coords, offset, slope, shift, det, step):
    """Per entry k, the indices [lo, hi) of sorted ``coords`` where ((coords[r] - offset) * slope
    - shift) / det - step, monotone in r, lies in [0, 1]: guessed from r = 0, then walked."""
    rate = slope / det
    sign = np.where(rate < 0.0, -1.0, 1.0)

    def signed(r):  # sign * value at r, clipped into coords, in one buffer: non-decreasing
        value = np.take(coords, r, mode="clip")
        for op, term in ((np.subtract, offset), (np.multiply, slope), (np.subtract, shift),
                         (np.divide, det), (np.subtract, step), (np.multiply, sign)):
            op(value, term, out=value)
        return value

    # 0 <= value <= 1 is bound <= sign * value <= bound + 1
    w0, bound = signed(np.zeros(sign.shape, int)), np.where(sign > 0.0, 0.0, -1.0)
    lo = coords.searchsorted(coords[0] + (bound - w0) / np.abs(rate), "left")
    hi = coords.searchsorted(coords[0] + (bound + 1.0 - w0) / np.abs(rate), "right")
    return (_first_passing(signed, bound, False, lo, coords.size),
            _first_passing(signed, bound + 1.0, True, hi, coords.size))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _shadow_intervals(geom: RowGeometry, sun_vecs: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Merged intervals (hour, line, start, stop) of the cells [start, stop) whose view of the
    sun a row blocks, on lines of cells along the rows, sorted; no two touch. Each row projects
    along the sun onto z = 0 as a parallelogram with edges ``a`` and ``b``; a cell is blocked
    when its affine coordinates (u, v) in any row's lie in [0, 1]. ``a`` has a component
    exactly 0, so ``v`` is one value per line, monotone in it, as ``u`` is in the cell on a
    line: a row covers a range of lines and one interval on each, both exact per cell."""
    if geom.along[2] != 0.0 or np.count_nonzero(geom.along) != 1:
        raise ValueError(f"rows must run along x or y, not along {geom.along}")
    parts = np.atleast_2d(sun_vecs), geom.origin, geom.along, geom.rise, geom.pitch
    if geom.along[0] == 0.0:  # rows along y, mirrored in the diagonal: u and v keep their bits
        parts, xs, ys = [v[..., [1, 0, 2]] for v in parts], ys, xs
    sun, origin, along, rise, pitch = parts
    sz = sun[:, 2]

    def project(point: np.ndarray) -> np.ndarray:
        return point[..., :2] - (point[..., 2] / sz)[:, None] * sun[:, :2]

    g0 = project(origin)
    a0, a1 = (project(origin + along) - g0).T
    b0, b1 = (project(origin + rise) - g0).T
    det = a0 * b1 - a1 * b0
    # the pitch is horizontal, so row d just translates the parallelogram
    pu = (pitch[0] * b1 - pitch[1] * b0) / det
    pv = (a0 * pitch[1] - a1 * pitch[0]) / det
    # no shadow below the horizon, nor an edge-on one with zero area
    casts = (sz > 0.0) & ~(np.abs(det) < 1.0e-12)
    h, d = np.nonzero(np.broadcast_to(casts[:, None], (casts.size, geom.count)))
    # v = (a0 * dy - a1 * dx) / det - d * pv of each (hour, row) at a line's first cell
    lo, hi = _index_range(ys, g0[h, 1], a0[h], (xs[0] - g0[h, 0]) * a1[h], det[h], d * pv[h])

    def place(h, d, lo, hi):  # the merged intervals of some hours' (hour, row) line ranges
        count = np.maximum(hi - lo, 0)
        pair = np.repeat(np.arange(h.size), count)
        line = np.arange(pair.size) - np.repeat(np.cumsum(count) - count - lo, count)
        order = np.argsort(h[pair] * ys.size + line, kind="stable")  # rows stay in order
        h, d, line = h[pair[order]], d[pair[order]], line[order]
        # u = (dx * b1 - dy * b0) / det - d * pu of each (hour, line, row) along its line
        shift = (ys[line] - g0[h, 1]) * b0[h]
        start, stop = _index_range(xs, g0[h, 0], b1[h], shift, det[h], d * pu[h])
        h, line, start, stop = (x[start < stop] for x in (h, line, start, stop))  # no empty ones
        # merge each (hour, line)'s intervals where consecutive ones overlap or touch
        group = h * ys.size + line
        joined = (group[1:] == group[:-1]) & (
            np.maximum(start[1:], start[:-1]) <= np.minimum(stop[1:], stop[:-1]))
        head = np.flatnonzero(np.r_[True, ~joined])[: group.size]
        start, stop = np.minimum.reduceat(start, head), np.maximum.reduceat(stop, head)
        return h[head], line[head], start, stop

    # the (hour, line, row) candidates of at most _MASK_CHUNK_HOURS hours at once: bounded memory
    blocks = pairwise(h.searchsorted(np.r_[0:max(sz.size, 1):_MASK_CHUNK_HOURS, sz.size]))
    placed = [place(*(x[i:j] for x in (h, d, lo, hi))) for i, j in blocks]
    return tuple(np.concatenate(column) for column in zip(*placed))


def _run_masks(geom: RowGeometry, sun_vecs: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Each cell's run, (ny, nx), the number of runs, and each hour's mask over the runs:
    the ends of the :func:`_shadow_intervals` cut each line into runs that share every mask."""
    h, line, start, stop = _shadow_intervals(geom, sun_vecs, xs, ys)
    lines, n = (ys.size, xs.size) if geom.along[0] != 0.0 else (xs.size, ys.size)
    cut = np.zeros((lines, n + 1), dtype=bool)  # a line's slot n only ends its runs
    cut[:, 0] = cut[line, start] = cut[line, stop] = True
    run_of = cut.cumsum().reshape(lines, n + 1) - 1
    hours, runs = len(np.atleast_2d(sun_vecs)), run_of[-1, -1] + 1

    def masks():  # merged intervals neither touch nor overlap: a run toggles once an hour
        for first in range(0, hours, _MASK_CHUNK_HOURS):
            i, j = h.searchsorted([first, first + _MASK_CHUNK_HOURS])
            toggles = np.zeros((min(hours - first, _MASK_CHUNK_HOURS), runs), dtype=bool)
            hour, ends = h[i:j] - first, run_of[line[i:j], np.stack([start[i:j], stop[i:j]])]
            toggles[hour, ends[0]] = toggles[hour, ends[1]] = True
            yield from np.logical_xor.accumulate(toggles, axis=1)

    return (run_of[:, :n] if geom.along[0] != 0.0 else run_of[:, :n].T), runs, masks()


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
    layout: Layout, hours: SkyYear, cell_size: float = DEFAULT_CELL_SIZE
) -> GroundGrid:
    """Accumulate the ground-level shadow map over the given sky hours.

    Horizontal components per hour: the full measured beam, the
    circumsolar share k1 of the diffuse (both blocked wherever a collector
    sits between cell and sun) and the horizon-brightened isotropic
    remainder (never blocked; the ground-reflected term vanishes on a
    horizontal receiver). Cells sit at the centres of a ``cell_size`` grid
    covering the layout field.
    """
    xs, ys = ((np.arange(max(1, round(side / cell_size))) + 0.5) * cell_size
              for side in layout.field)

    direct, circ, iso = hours.bhi, hours.k1 * hours.dhi, hours.k_hori * (1.0 - hours.k1) * hours.dhi
    daylight = hours.ghi > 0.0
    # a running sum in hour order (np.sum would add pairwise and round differently)
    unshaded_total = float(np.cumsum(np.append(0.0, (direct + circ + iso)[daylight]))[-1])
    lit = np.flatnonzero(daylight & (hours.altitude > MIN_SUN_ALTITUDE) & (direct + circ > 0.0))

    # direct and circumsolar; an hour without one adds +0.0 to its grid: no change
    weights = np.maximum(np.stack([direct, circ], axis=-1)[lit], 0.0)[:, :, None]
    sun = SolarPosition(hours.altitude[lit], hours.azimuth[lit])
    geoms = layout.row_geometry(layout.orientation(sun))
    cells, runs, masks = _run_masks(geoms, sun_vector(sun), xs, ys)
    blocked = np.zeros((2, runs))
    for mask, weight in zip(masks, weights):
        blocked += weight * mask  # hour by hour, in order: never a pairwise sum
    blocked = blocked[:, cells]  # each cell's in-order sums are its run's, bit for bit

    return GroundGrid(cell_size, xs, ys, blocked_direct=blocked[0], blocked_circumsolar=blocked[1],
                      unshaded_total=unshaded_total, daylight_hours=int(np.count_nonzero(daylight)))
