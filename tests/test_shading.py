"""Row-on-row shading and ground shadow maps, checked against ray casting."""

from __future__ import annotations

import math
import zlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixturegen
from agrivolt import shading
from agrivolt.layout import MOUNT_KINDS, build_layout
from agrivolt.shading import (
    GroundGrid,
    _first_passing,
    _shadow_intervals,
    effective_shading_factor,
    ground_irradiance_map,
    row_shading,
    shaded_blocks,
)
from agrivolt.sky import MIN_SUN_ALTITUDE
from agrivolt.solar import SolarPosition, sun_vector
from conftest import reference_layout
from oracles import (
    ground_shadow_mask,
    ground_shadow_masks,
    rasterized_ground_mask,
    rasterized_row_shading,
    reference_ground_irradiance_map,
    row_shading_fractions,
    rows_at_hour,
)


def layout_geometry(kind, spacing, height, sun, field=(30.0, 30.0), **kwargs):
    layout = build_layout(
        kind, spacing, height, field=field, latitude_deg=56.49, **kwargs
    )
    geom = layout.row_geometry(layout.orientation(sun))
    return layout, geom


class TestEffectiveShadingFactor:
    def test_reference_value(self):
        """Half the area shaded, one of three blocks hit: 1 - 0.5 * 0.75."""
        assert effective_shading_factor(0.5, 1, 3) == pytest.approx(0.625, rel=1e-12)

    def test_no_shadow_no_loss(self):
        assert effective_shading_factor(0.0, 0, 3) == 0.0

    def test_full_shadow_full_loss(self):
        assert effective_shading_factor(1.0, 3, 3) == 1.0

    def test_area_only_degrades_to_geometric_fraction(self):
        assert effective_shading_factor(0.3, 0, 3) == pytest.approx(0.3, rel=1e-12)

    def test_never_below_geometric_fraction(self):
        for f_gs in (0.0, 0.2, 0.5, 0.9):
            for n_sb in range(4):
                assert effective_shading_factor(f_gs, n_sb, 3) >= f_gs - 1e-12

    def test_monotone_in_blocks(self):
        values = [effective_shading_factor(0.4, n, 3) for n in range(4)]
        assert values == sorted(values)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            effective_shading_factor(1.5, 0, 3)
        with pytest.raises(ValueError):
            effective_shading_factor(0.5, 4, 3)
        with pytest.raises(ValueError):
            effective_shading_factor(0.5, -1, 3)


class TestShadedBlocks:
    def test_full_cover_hits_all_blocks(self):
        assert shaded_blocks(10.0, 0.0, 2.0, 10.0, 2.0, n_tb=3) == 3

    def test_bottom_strip_only(self):
        # strips are 2/3 m tall; a shadow up to 0.5 m touches only the first
        assert shaded_blocks(10.0, 0.0, 0.5, 10.0, 2.0, n_tb=3) == 1

    def test_straddling_two_strips(self):
        assert shaded_blocks(10.0, 0.5, 0.9, 10.0, 2.0, n_tb=3) == 2

    def test_sliver_below_threshold_ignored(self):
        # 0.05% of one strip's area does not count as shaded
        strip = 2.0 / 3.0
        assert shaded_blocks(10.0, 0.0, 0.0005 * strip, 10.0, 2.0, n_tb=3) == 0

    def test_degenerate_shadow(self):
        assert shaded_blocks(0.0, 0.0, 1.0, 10.0, 2.0) == 0
        assert shaded_blocks(5.0, 1.0, 1.0, 10.0, 2.0) == 0


class TestRowShading:
    def test_reference_interval_overlap(self):
        """45 deg tilted rows, h=2, s=3, sun due south at 20 deg altitude.

        The nearest-neighbour shadow then covers 43.39% of the collector
        and two of three blocks; the value doubles as a regression anchor
        and is confirmed by the 1 cm ray-cast oracle.
        """
        sun = SolarPosition(altitude=math.radians(20.0), azimuth=0.0)
        _, geom = layout_geometry("tilt", 3.0, 2.0, sun, tilt=math.radians(45.0))
        state = row_shading(geom, sun_vector(sun))
        assert geom.count - state.shaded_rows == 1
        assert state.shaded_rows == geom.count - 1
        assert state.f_gs == pytest.approx(0.4339337890, abs=1e-9)
        assert state.n_sb == 2
        assert state.f_es == pytest.approx(
            1.0 - (1.0 - state.f_gs) * (1.0 - 2.0 / 4.0), rel=1e-12
        )
        oracle = rasterized_row_shading(geom, sun_vector(sun), geom.count // 2, 0.01)
        assert state.f_gs == pytest.approx(oracle, abs=0.005)

    def test_single_row_never_shaded(self):
        sun = SolarPosition(altitude=math.radians(15.0), azimuth=0.0)
        _, geom = layout_geometry("tilt", 12.0, 2.0, sun, field=(10.0, 10.0))
        assert geom.count == 1
        state = row_shading(geom, sun_vector(sun))
        assert (geom.count - state.shaded_rows, state.shaded_rows) == (1, 0)
        assert state.f_gs == 0.0

    def test_high_sun_clears_all_rows(self):
        sun = SolarPosition(altitude=math.radians(75.0), azimuth=0.0)
        _, geom = layout_geometry("tilt", 6.0, 1.0, sun)
        state = row_shading(geom, sun_vector(sun))
        assert state.shaded_rows == 0 or state.f_gs == 0.0

    def test_sun_along_vertical_planes_casts_nothing(self):
        """Sun due south grazes north-south vertical rows edge-on."""
        sun = SolarPosition(altitude=math.radians(30.0), azimuth=0.0)
        _, geom = layout_geometry("vertical", 6.0, 2.0, sun)
        assert row_shading(geom, sun_vector(sun)).shaded_rows == 0

    def test_fractions_leave_sun_side_edge_row_open(self):
        sun = SolarPosition(altitude=math.radians(15.0), azimuth=math.radians(-60.0))
        _, geom = layout_geometry("vertical", 3.0, 2.0, sun)
        fractions = row_shading_fractions(geom, sun_vector(sun))
        assert fractions.shape == (geom.count,)
        # morning sun from the east: the easternmost row (last index, rows
        # pitch eastward from x = 0) has no sun-side neighbour
        assert fractions[-1] == 0.0
        assert np.all(fractions[:-1] == fractions[0])
        assert fractions[0] > 0.0

    def test_fractions_match_shared_state(self):
        sun = SolarPosition(altitude=math.radians(22.0), azimuth=math.radians(30.0))
        _, geom = layout_geometry("tilt", 4.5, 2.0, sun)
        state = row_shading(geom, sun_vector(sun))
        fractions = row_shading_fractions(geom, sun_vector(sun))
        if state.shaded_rows:
            assert np.sort(fractions)[-1] == pytest.approx(state.f_gs, rel=1e-12)
            assert np.count_nonzero(fractions == 0.0) == 1

    @pytest.mark.parametrize("kind", ["tilt", "vertical", "tracking"])
    def test_randomized_against_ray_cast_oracle(self, kind):
        """Interval-overlap shading equals brute-force rectangle sampling."""
        # crc32, not hash(): hash() is salted per process, which would make
        # the drawn cases differ between runs.
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        for _ in range(8):
            spacing = float(rng.choice([3.0, 4.5, 6.0]))
            height = float(rng.choice([1.0, 2.0, 3.0]))
            sun = SolarPosition(
                altitude=math.radians(rng.uniform(2.0, 60.0)),
                azimuth=math.radians(rng.uniform(-170.0, 170.0)),
            )
            _, geom = layout_geometry(
                kind, spacing, height, sun, field=(12.0, 12.0)
            )
            fractions = row_shading_fractions(geom, sun_vector(sun))
            for idx in {0, geom.count // 2, geom.count - 1}:
                # 1 cm sampling: coarser steps alias on the near-grazing
                # shadow boundaries that low sun altitudes produce.
                oracle = rasterized_row_shading(geom, sun_vector(sun), idx, 0.01)
                assert fractions[idx] == pytest.approx(oracle, abs=0.006)


class TestGroundShadowMask:
    """One hour's mask, from the same function that builds a chunk of hours."""

    def grid(self, extent=30.0, cell=0.5):
        return (np.arange(int(extent / cell)) + 0.5) * cell

    def test_night_mask_empty(self):
        sun = SolarPosition(altitude=math.radians(20.0), azimuth=0.0)
        _, geom = layout_geometry("vertical", 6.0, 2.0, sun)
        xs = self.grid()
        down = np.array([0.3, 0.2, -0.9])
        mask = ground_shadow_masks(geom, down, xs, xs)
        assert mask.shape == (xs.size, xs.size)
        assert not mask.any()

    def test_vertical_rows_cast_analytic_band(self):
        """Sun due east at 45 deg: each wall (1 m clearance, 2 m tall at
        x = 6k) shades exactly x in [6k - 3, 6k - 1]."""
        sun = SolarPosition(altitude=math.radians(45.0), azimuth=-0.5 * math.pi)
        _, geom = layout_geometry("vertical", 6.0, 2.0, sun)
        xs = self.grid(cell=0.25)
        mask = ground_shadow_masks(geom, sun_vector(sun), xs, xs)
        expected_cols = np.zeros_like(xs, dtype=bool)
        for k in range(geom.count):
            x_row = 6.0 * k
            expected_cols |= (xs >= x_row - 3.0) & (xs <= x_row - 1.0)
        np.testing.assert_array_equal(mask[0], expected_cols)
        # shadow bands run the length of the rows: all grid rows identical
        assert np.all(mask == mask[0][None, :])

    def test_shadow_area_scales_with_sun_altitude(self):
        xs = self.grid()
        areas = []
        for alt_deg in (50.0, 30.0, 15.0):
            sun = SolarPosition(altitude=math.radians(alt_deg), azimuth=0.0)
            _, geom = layout_geometry("tilt", 6.0, 2.0, sun)
            areas.append(ground_shadow_masks(geom, sun_vector(sun), xs, xs).mean())
        assert areas[0] < areas[1] < areas[2]

    @pytest.mark.parametrize("kind", ["tilt", "vertical", "tracking"])
    def test_randomized_against_ray_cast_oracle(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        xs = self.grid(extent=20.0, cell=0.5)
        xx, yy = np.meshgrid(xs, xs)
        for _ in range(6):
            sun = SolarPosition(
                altitude=math.radians(rng.uniform(3.0, 55.0)),
                azimuth=math.radians(rng.uniform(-150.0, 150.0)),
            )
            _, geom = layout_geometry(
                kind,
                float(rng.choice([3.0, 4.5, 6.0])),
                float(rng.choice([1.0, 2.0, 3.0])),
                sun,
                field=(20.0, 20.0),
            )
            impl = ground_shadow_masks(geom, sun_vector(sun), xs, xs)
            oracle = rasterized_ground_mask(geom, sun_vector(sun), xx, yy)
            assert np.array_equal(impl, oracle)


#: Sun azimuths that put the sun in a row's plane or square to it: the shadow
#: of a vertical row is then edge-on, or its edges run along a grid axis.
GRID_AZIMUTHS = (0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi, -math.pi)


@st.composite
def mask_cases(draw):
    """A layout, a ground grid and a few hours of sun for the hour-axis masks.

    Fields need not be a whole number of cells, and one shorter than the
    spacing holds a single row. Suns sit anywhere above the horizon, just
    above ``MIN_SUN_ALTITUDE``, below the horizon, at the azimuths of
    ``GRID_AZIMUTHS`` or a hair off them. ``edge_on`` swaps an hour's sun for
    one in the plane of its rows, tipped off it by ``eps`` along the normal,
    so that the shadow's area (``det``) falls near the 1e-12 cut-off.
    """
    height = draw(st.floats(0.5, 3.0))
    hair = st.sampled_from([-1e-10, -1e-12, -1e-13, 1e-13, 1e-12, 1e-10])
    altitude = st.one_of(
        st.floats(MIN_SUN_ALTITUDE, 0.5 * math.pi, exclude_min=True),
        st.sampled_from([float(np.nextafter(MIN_SUN_ALTITUDE, 1.0)), MIN_SUN_ALTITUDE + 1e-9]),
        st.floats(-0.5 * math.pi, 0.0),
    )
    azimuth = st.one_of(
        st.floats(-math.pi, math.pi),
        st.sampled_from(GRID_AZIMUTHS),
        st.builds(lambda base, off: base + off, st.sampled_from(GRID_AZIMUTHS), hair),
    )
    suns = draw(st.lists(st.tuples(altitude, azimuth), min_size=1, max_size=8))
    edge_on = draw(st.lists(
        st.tuples(st.integers(0, len(suns) - 1), st.floats(-1.0, 1.0),
                  st.one_of(hair, st.sampled_from([0.0, 1e-9, -1e-9, 1e-15]))),
        max_size=3,
    ))
    return dict(
        kind=draw(st.sampled_from(MOUNT_KINDS)),
        spacing=draw(st.floats(height, 12.0)),  # >= height: no layout kind overlaps
        height=height,
        field=(draw(st.floats(0.7, 24.0)), draw(st.floats(0.7, 24.0))),
        cell=draw(st.floats(0.3, 2.0)),
        suns=suns,
        edge_on=edge_on,
    )


def case_geometry(case):
    """The rows, the sun vectors (with the edge-on hours of ``case`` tipped in)
    and the cell centres of a :func:`mask_cases` case."""
    layout = build_layout(
        case["kind"], case["spacing"], case["height"], field=case["field"], latitude_deg=56.49,
    )
    sun = SolarPosition(*(np.array(c) for c in zip(*case["suns"])))
    geom = layout.row_geometry(layout.orientation(sun))
    sun_vecs = sun_vector(sun)
    for i, mix, eps in case["edge_on"]:
        rows = rows_at_hour(geom, i)
        rise = rows.rise / np.linalg.norm(rows.rise)
        in_plane = mix * rows.along / rows.length + (rise if rise[2] >= 0.0 else -rise)
        tipped = in_plane + eps * rows.normal
        sun_vecs[i] = tipped / np.linalg.norm(tipped)
    cell = case["cell"]
    xs, ys = ((np.arange(max(1, round(side / cell))) + 0.5) * cell for side in case["field"])
    return geom, sun_vecs, xs, ys


class TestGroundShadowMasksOverHours:
    """The masks of many hours at once equal the per-hour, per-cell, per-row
    oracle, ``oracles.ground_shadow_mask``, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=mask_cases())
    def test_matches_per_hour_oracle(self, case):
        layout = build_layout(
            case["kind"], case["spacing"], case["height"], field=case["field"],
            latitude_deg=56.49,
        )
        sun = SolarPosition(*(np.array(c) for c in zip(*case["suns"])))
        geom = layout.row_geometry(layout.orientation(sun))
        sun_vecs = sun_vector(sun)
        for i, mix, eps in case["edge_on"]:
            rows = rows_at_hour(geom, i)
            rise = rows.rise / np.linalg.norm(rows.rise)
            in_plane = mix * rows.along / rows.length + (rise if rise[2] >= 0.0 else -rise)
            tipped = in_plane + eps * rows.normal
            sun_vecs[i] = tipped / np.linalg.norm(tipped)
        cell = case["cell"]
        nx, ny = (max(1, int(round(extent / cell))) for extent in case["field"])
        xs, ys = (np.arange(nx) + 0.5) * cell, (np.arange(ny) + 0.5) * cell
        xx, yy = np.meshgrid(xs, ys)

        masks = ground_shadow_masks(geom, sun_vecs, xs, ys)
        assert masks.shape == (len(sun_vecs), ny, nx)
        for i, sun_vec in enumerate(sun_vecs):
            rows = rows_at_hour(geom, i)
            expected = ground_shadow_mask(rows, sun_vec, xx, yy)
            assert np.array_equal(masks[i], expected), i
            assert np.array_equal(ground_shadow_masks(rows, sun_vec, xs, ys), expected), i

    @settings(max_examples=150, deadline=None)
    @given(case=mask_cases())
    def test_mirror_in_the_diagonal_transposes_the_masks(self, case):
        """Swapping x and y in the rows, the suns and the cell centres transposes
        every mask bit for bit, for rows along either axis."""
        layout = build_layout(
            case["kind"], case["spacing"], case["height"], field=case["field"],
            latitude_deg=56.49,
        )
        sun = SolarPosition(*(np.array(c) for c in zip(*case["suns"])))
        geom = layout.row_geometry(layout.orientation(sun))
        sun_vecs = sun_vector(sun)
        cell = case["cell"]
        xs, ys = ((np.arange(max(1, round(side / cell))) + 0.5) * cell for side in case["field"])

        def mirror(v: np.ndarray) -> np.ndarray:
            return v[..., [1, 0, 2]]

        mirrored = replace(geom, **{name: mirror(getattr(geom, name))
                                    for name in ("origin", "along", "rise", "pitch", "normal")})
        masks = ground_shadow_masks(geom, sun_vecs, xs, ys)
        flipped = ground_shadow_masks(mirrored, mirror(sun_vecs), ys, xs)
        assert np.array_equal(flipped, masks.transpose(0, 2, 1))

    def test_rows_off_the_grid_axes_rejected(self):
        sun = SolarPosition(altitude=math.radians(30.0), azimuth=0.0)
        _, geom = layout_geometry("tilt", 6.0, 2.0, sun)
        skewed = replace(geom, along=np.array([3.0, 4.0, 0.0]))
        xs = np.arange(4) + 0.5
        with pytest.raises(ValueError, match="along x or y"):
            ground_shadow_masks(skewed, sun_vector(sun), xs, xs)


class TestFirstPassing:
    """The walk that settles each interval end: from any guess, however far
    off, it lands on the first index whose value passes the bound. The
    analytic guesses of the masks are rarely off, so the mask tests alone
    seldom exercise it."""

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(-3, 3), min_size=1, max_size=30),
        bound=st.integers(-4, 4),
        strict=st.booleans(),
        data=st.data(),
    )
    def test_any_guess_lands_on_first_passing_index(self, values, bound, strict, data):
        ordered = np.sort(np.array(values, dtype=float))  # with plateaus
        n = ordered.size
        guesses = np.array(data.draw(st.lists(st.integers(-3, n + 3), min_size=1, max_size=6)))
        found = _first_passing(lambda r: ordered[r], float(bound), strict, guesses, n)
        expected = np.searchsorted(ordered, float(bound), "right" if strict else "left")
        assert np.array_equal(found, np.full(guesses.size, expected))


class TestCheckedGuesses:
    """Each interval end and line-range end starts from an analytic guess that
    ``_first_passing`` checks on both sides, walking only refused guesses. Guesses
    moved off by whole cells or lines must settle on the ends of the unmoved call."""

    @staticmethod
    def nudged(offsets, walked):
        """``shading._first_passing`` with every guess moved by one of ``offsets``,
        recording in ``walked`` how many ends of each call the walk then moves."""
        walk = shading._first_passing

        def moved(value_at, bound, strict, guess, n):
            guess = np.clip(guess + np.resize(offsets, guess.size), 0, n)
            found = walk(value_at, bound, strict, guess, n)
            walked.append(np.count_nonzero(found != guess))
            return found

        return moved

    @settings(max_examples=100, deadline=None)
    @given(
        case=mask_cases(),
        offsets=st.lists(st.integers(1, 4).flatmap(lambda k: st.sampled_from([-k, k])),
                         min_size=1, max_size=7),
    )
    def test_moved_guesses_settle_on_the_same_intervals(self, case, offsets):
        geom, sun_vecs, xs, ys = case_geometry(case)
        expected = _shadow_intervals(geom, sun_vecs, xs, ys)
        with mock.patch.object(shading, "_first_passing", self.nudged(offsets, [])):
            found = _shadow_intervals(geom, sun_vecs, xs, ys)
        for name, got, want in zip(("hour", "line", "start", "stop"), found, expected):
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("kind", MOUNT_KINDS)
    def test_moved_guesses_are_walked(self, sky, kind):
        """On a July map every end is moved, so the walk settles ends of the line
        ranges and of the intervals of every block of hours, and the map keeps its bits."""
        july = sky.take(sky.month == 7)
        layout = reference_layout(kind, 10.0)
        expected = ground_irradiance_map(layout, july, cell_size=0.5)
        walked = []
        with mock.patch.object(shading, "_first_passing", self.nudged([2, -1, -3, 1], walked)):
            grid = ground_irradiance_map(layout, july, cell_size=0.5)
        # both ends of the line ranges, then both ends of each block's intervals
        assert len(walked) > 4 and min(walked) > 0
        assert_same_grid_bits(grid, expected)


def assert_same_grid_bits(grid: GroundGrid, expected: GroundGrid) -> None:
    for name in ("xs", "ys", "blocked_direct", "blocked_circumsolar"):
        assert np.array_equal(
            getattr(grid, name).view(np.int64), getattr(expected, name).view(np.int64)
        ), name
    assert np.float64(grid.unshaded_total).view(np.int64) == np.float64(
        expected.unshaded_total
    ).view(np.int64)
    assert grid.daylight_hours == expected.daylight_hours


class TestGroundMapMatchesPerHourReference:
    """The hour-axis ground map adds the same masks in the same hour order as
    ``oracles.reference_ground_irradiance_map``, one hour at a time: every
    accumulated grid keeps its bits."""

    @pytest.mark.parametrize("spacing", [3.0, 6.0])
    @pytest.mark.parametrize("kind", MOUNT_KINDS)
    def test_july_reference_field(self, sky, kind, spacing):
        july = sky.take(sky.month == 7)
        layout = reference_layout(kind, 50.0, spacing=spacing)
        assert_same_grid_bits(
            ground_irradiance_map(layout, july, cell_size=0.5),
            reference_ground_irradiance_map(layout, july, cell_size=0.5),
        )

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_any_layout_over_any_hours(self, sky, data):
        """Any kind, spacing, height, field and cell size (a 1 x 1 grid and a
        single row included) over any subset of a month's hours (none lit, or
        none at all, included)."""
        height = data.draw(st.floats(0.5, 3.0), label="height")
        layout = build_layout(
            data.draw(st.sampled_from(MOUNT_KINDS), label="kind"),
            data.draw(st.floats(height, 12.0), label="spacing"),
            height,
            field=(data.draw(st.floats(0.7, 24.0), label="x"),
                   data.draw(st.floats(0.7, 24.0), label="y")),
            latitude_deg=56.49,
        )
        one_cell = data.draw(st.integers(0, 7), label="one cell") == 7
        cell = 50.0 if one_cell else data.draw(st.floats(0.5, 2.0), label="cell")
        month = sky.take(sky.month == data.draw(st.integers(1, 12), label="month"))
        lit = (month.ghi > 0.0) & (month.altitude > MIN_SUN_ALTITUDE)
        share = data.draw(st.sampled_from([1.0, 0.3, 0.03, 0.0]), label="share of hours")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        keep = rng.random(len(month.ghi)) < share
        if data.draw(st.booleans(), label="unlit only"):
            keep &= ~lit
        hours = month.take(keep)
        assert_same_grid_bits(
            ground_irradiance_map(layout, hours, cell_size=cell),
            reference_ground_irradiance_map(layout, hours, cell_size=cell),
        )

    @pytest.mark.parametrize("kind", MOUNT_KINDS)
    def test_five_by_five_december_grid(self, sky, kind):
        """The ground study of the ``hourly-yield`` benchmark: 10 m at 2 m
        cells, December, spacings 4.5, 7.5 and 12 m."""
        december = sky.take(sky.month == 12)
        for spacing in (4.5, 7.5, 12.0):
            layout = reference_layout(kind, 10.0, spacing=spacing)
            grid = ground_irradiance_map(layout, december, cell_size=2.0)
            assert grid.blocked_direct.shape == (5, 5)
            assert_same_grid_bits(
                grid, reference_ground_irradiance_map(layout, december, cell_size=2.0)
            )


class TestGroundIrradianceMap:
    def test_reference_july_maps(self, july_maps):
        """The three July maps on the reference layout (s=6, h=2)."""
        tilt = july_maps["tilt"].normalized
        assert float(tilt.min()) == pytest.approx(0.57, abs=0.05)
        assert 0.82 <= float(tilt.mean()) <= 0.86

    def test_normalized_range(self, july_maps):
        for grid in july_maps.values():
            normalized = grid.normalized
            assert float(normalized.min()) >= 0.0
            assert float(normalized.max()) <= 1.0 + 1e-12

    def test_moving_shadows_span_narrower_than_fixed(self, july_maps):
        """Tracking and vertical shadows wander over the day, so their maps
        are flatter than the fixed south-facing rows'."""
        spans = {
            kind: float(grid.normalized.max() - grid.normalized.min())
            for kind, grid in july_maps.items()
        }
        assert spans["tracking"] < spans["tilt"]
        assert spans["vertical"] < spans["tilt"]

    def test_grid_covers_field_at_cell_size(self, july_maps):
        grid = july_maps["tilt"]
        assert grid.normalized.shape == (100, 100)
        assert grid.cell_size == 0.5
        assert grid.xs[0] == pytest.approx(0.25)
        assert grid.xs[-1] == pytest.approx(49.75)

    def test_denser_rows_remove_more_light(self, sky):
        july = sky.take(sky.month == 7)
        means = []
        for spacing in (12.0, 6.0, 3.0):
            layout = build_layout(
                "tilt", spacing, 2.0, field=(24.0, 24.0), latitude_deg=56.49
            )
            grid = ground_irradiance_map(layout, july, cell_size=1.0)
            means.append(float(grid.normalized.mean()))
        assert means[0] > means[1] > means[2]

    def test_empty_period_is_fully_lit(self, sky):
        layout = build_layout("tilt", 6.0, 2.0, field=(10.0, 10.0), latitude_deg=56.49)
        dark = sky.take(np.flatnonzero(sky.ghi <= 0.0)[:48])
        grid = ground_irradiance_map(layout, dark, cell_size=1.0)
        assert grid.daylight_hours == 0
        assert grid.unshaded_total == 0.0
        np.testing.assert_array_equal(grid.normalized, 1.0)

    def test_daylight_hours_counted(self, weather, foulum, july_maps):
        expected = sum(
            1
            for t, ghi in zip(weather.times.tolist(), weather.ghi)
            if t.month == 7 and ghi > 0.0
        )
        assert july_maps["tilt"].daylight_hours == expected

    def test_unshaded_total_accumulates_horizontal_light(self, july_maps):
        """All kinds see the same sky: identical unshaded baselines."""
        totals = {k: g.unshaded_total for k, g in july_maps.items()}
        assert totals["tilt"] == pytest.approx(totals["vertical"], rel=1e-12)
        assert totals["tilt"] == pytest.approx(totals["tracking"], rel=1e-12)
        assert totals["tilt"] > 0.0

    def test_mean_daytime_irradiance_consistent(self, july_maps):
        grid = july_maps["vertical"]
        received = grid.unshaded_total - grid.blocked_direct - grid.blocked_circumsolar
        np.testing.assert_allclose(
            grid.mean_daytime_irradiance(), received / grid.daylight_hours
        )
