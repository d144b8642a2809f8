"""Land-cover rasters, eligibility buffering, and regional potential."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agrivolt import land
from agrivolt.errors import InputError
from agrivolt.land import (
    DEFAULT_BUFFER_M,
    DEFAULT_CLASS_SETS,
    ClassSets,
    LandRaster,
    RegionPotential,
    aggregate_potential,
    eligibility_mask,
    load_class_sets,
    read_ascii_grid,
    region_potential,
)
from fixturegen import write_ascii_grid
from oracles import brute_force_eligibility, reference_region_potential

FARM, CITY, FOREST, SHRUB = 211, 112, 311, 324
#: Land codes at the ends of the int64 range.
EDGE_CODES = [-(2**63), -(2**63) + 1, 2**63 - 2, 2**63 - 1]
#: The default sets with class codes at both ends of the int64 range.
FAR_CLASS_SETS = ClassSets(
    include=DEFAULT_CLASS_SETS.include | {2**63 - 1},
    exclude=DEFAULT_CLASS_SETS.exclude | {-(2**63)},
    neutral=DEFAULT_CLASS_SETS.neutral | {2**63 - 2},
)


def make_raster(codes, cell_size=100.0, nodata=-9999):
    return LandRaster(
        codes=np.asarray(codes, dtype=np.int64), cell_size=cell_size, nodata=nodata
    )


class TestAsciiGridIO:
    def test_round_trip(self, tmp_path):
        raster = LandRaster(
            codes=np.array([[211, 112, 231], [311, -9999, 211]], dtype=np.int64),
            cell_size=250.0,
            xllcorner=4200.0,
            yllcorner=-130.5,
            nodata=-9999,
        )
        path = tmp_path / "grid.asc"
        write_ascii_grid(path, raster)
        back = read_ascii_grid(path)
        np.testing.assert_array_equal(back.codes, raster.codes)
        assert back.cell_size == 250.0
        assert back.xllcorner == 4200.0
        assert back.yllcorner == -130.5
        assert back.nodata == -9999

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\n211 211\n")
        with pytest.raises(InputError, match="cellsize"):
            read_ascii_grid(path)
        header = {"ncols": "2", "nrows": "1", "xllcorner": "0", "yllcorner": "0",
                  "cellsize": "100", "NODATA_value": "-9999"}
        for key, value in (
            ("ncols", "abc"), ("ncols", "-1"), ("ncols", "0"), ("ncols", "2.5"),
            ("nrows", "-1"), ("cellsize", "0"), ("cellsize", "-100"), ("cellsize", "nan"),
            ("xllcorner", "inf"), ("yllcorner", "nan"), ("NODATA_value", "-9999.5"),
            ("NODATA_value", "nan"),
        ):
            lines = [f"{k} {value if k == key else v}" for k, v in header.items()]
            path.write_text("\n".join([*lines, "211 211"]) + "\n")
            with pytest.raises(InputError, match=f"{key.lower()} must be"):
                read_ascii_grid(path)
        # a key given twice is refused by name, even with the same value
        lines = [f"{k} {v}" for k, v in header.items()]
        path.write_text("\n".join([*lines, "NCOLS 2", "211 211"]) + "\n")
        with pytest.raises(InputError, match="header key ncols given twice"):
            read_ascii_grid(path)

    def test_nodata_beyond_float_precision(self, tmp_path, caplog):
        """A NODATA above 2**53 reads exactly, so its pixels stay NODATA: no
        unknown code is warned about or counted as land."""
        nodata = 2**53 + 1
        codes = np.array([[nodata], [FARM]])
        paths = (
            write_grid(tmp_path / "land.asc", codes, 100.0, nodata, 1),
            write_grid(tmp_path / "regions.asc", np.ones_like(codes), 100.0, -9999, 1),
        )
        assert read_ascii_grid(paths[0]).nodata == nodata
        with caplog.at_level("WARNING", logger="agrivolt.land"):
            (region,) = land.stream_potential(
                *paths, DEFAULT_CLASS_SETS, 100.0, 30.0, constant({})
            )
        assert caplog.text == ""
        assert region.total_km2 == region.eligible_km2 == (100.0 / 1000.0) ** 2

    def test_value_count_mismatch(self, tmp_path):
        path = tmp_path / "short.asc"
        path.write_text(
            "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 100\n211 211 211\n"
        )
        with pytest.raises(InputError, match="expected 6"):
            read_ascii_grid(path)

    def test_non_integer_values(self, tmp_path, monkeypatch):
        path = tmp_path / "float.asc"
        header = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 100\n"
        path.write_text(header + "21.5 211\n")
        with pytest.raises(InputError, match="non-integer"):
            read_ascii_grid(path)
        # in a later band the message names the file's data row, as in one band
        rows = ["211 211"] * 6
        rows[4] = "211 21.5"
        path.write_text(header.replace("nrows 1", "nrows 6") + "\n".join(["", *rows]) + "\n")
        for band_rows in (1, 2, 3, 4, 6):
            monkeypatch.setattr(land, "BAND_PIXELS", 2 * band_rows)
            with pytest.raises(InputError, match=r"'21\.5' to int64 at row 4, column 2\.$"):
                read_ascii_grid(path)
        # one past either end of int64
        for value in ("9223372036854775808", "-9223372036854775809"):
            path.write_text(header + f"{value} 211\n")
            with pytest.raises(InputError, match="non-integer"):
                read_ascii_grid(path)
        path.write_text(header + "9223372036854775807 -9223372036854775808\n")
        assert read_ascii_grid(path).codes.tolist() == [[2**63 - 1, -(2**63)]]

    def test_header_first_and_equal_line_lengths(self, tmp_path, monkeypatch):
        path = tmp_path / "grid.asc"
        header = ["ncols 2", "nrows 2", "xllcorner 0", "yllcorner 0", "cellsize 100"]
        path.write_text("\n".join(header[:4] + ["211 211", header[4], "211 211"]) + "\n")
        with pytest.raises(InputError, match=r"missing header keys \['cellsize'\]"):
            read_ascii_grid(path)
        path.write_text("\n".join(header + ["211 211", "NODATA_value -1", "211 211"]) + "\n")
        with pytest.raises(InputError, match="non-integer"):
            read_ascii_grid(path)
        path.write_text("\n".join(header + ["211 211 211", "211"]) + "\n")
        with pytest.raises(InputError, match="unequal line lengths"):
            read_ascii_grid(path)
        # blank lines anywhere and one line for the whole grid are still fine
        path.write_text("\n".join(["", *header, "", "211 212 213 214", "  "]) + "\n")
        np.testing.assert_array_equal(read_ascii_grid(path).codes, [[211, 212], [213, 214]])
        # a line of another length in a later band names the file's data row, as
        # in one band; one line for the whole grid reads in bands of any height
        rows = ["211 211"] * 6
        rows[4] = "211 211 211"
        wrong = "\n".join([*header, "", *rows[:3], "", *rows[3:]]).replace("nrows 2", "nrows 6")
        for band_rows in (1, 2, 3, 4, 6):
            monkeypatch.setattr(land, "BAND_PIXELS", 2 * band_rows)
            path.write_text(wrong + "\n")
            with pytest.raises(InputError, match="columns changed from 2 to 3 at row 5;"):
                read_ascii_grid(path)
            path.write_text("\n".join([*header, "211 212 213 214"]) + "\n")
            np.testing.assert_array_equal(read_ascii_grid(path).codes, [[211, 212], [213, 214]])

    def test_empty_data_block(self, tmp_path, recwarn):
        path = tmp_path / "empty.asc"
        for data in ("", "\n  \n"):
            path.write_text("ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 100\n" + data)
            with pytest.raises(InputError, match="expected 2 values .* got 0"):
                read_ascii_grid(path)
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            read_ascii_grid(tmp_path / "nope.asc")
        latin1 = tmp_path / "latin1.asc"
        latin1.write_bytes(b"ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n\xe9\n")
        with pytest.raises(InputError, match="cannot read"):
            read_ascii_grid(latin1)
        # valid UTF-8 but not ASCII: an Arabic-Indic digit, a private-use character
        unicode = tmp_path / "unicode.asc"
        for text in ("\u0663", "\U000f0000"):
            unicode.write_text(f"ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n{text}\n")
            with pytest.raises(InputError, match="cannot read"):
                read_ascii_grid(unicode)

    def test_default_nodata(self, tmp_path):
        path = tmp_path / "plain.asc"
        path.write_text(
            "ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 100\n211\n"
        )
        assert read_ascii_grid(path).nodata == -9999


class TestEligibilityMask:
    def test_pure_farmland_all_eligible(self):
        raster = make_raster(np.full((5, 5), FARM))
        assert eligibility_mask(raster).all()

    def test_adjacent_exclusion_at_exact_buffer_distance(self):
        """With 100 m cells and a 100 m buffer, the four edge neighbours of a
        settlement pixel sit exactly at the buffer distance and stay blocked
        (the buffer is a strict 'more than' test)."""
        codes = np.full((5, 5), FARM)
        codes[2, 2] = CITY
        mask = eligibility_mask(make_raster(codes), buffer_m=100.0)
        assert not mask[2, 2]
        assert not mask[1, 2] and not mask[3, 2]
        assert not mask[2, 1] and not mask[2, 3]
        # diagonal neighbours are ~141.4 m away and clear the buffer
        assert mask[1, 1] and mask[1, 3] and mask[3, 1] and mask[3, 3]
        assert mask[0, 0] and mask[4, 4]

    def test_wider_buffer_blocks_diagonals(self):
        codes = np.full((5, 5), FARM)
        codes[2, 2] = CITY
        mask = eligibility_mask(make_raster(codes), buffer_m=150.0)
        assert not mask[1, 1] and not mask[3, 3]
        assert mask[0, 2] and mask[2, 0]  # 200 m, beyond the buffer

    def test_zero_buffer_keeps_neighbours(self):
        codes = np.full((3, 3), FARM)
        codes[1, 1] = FOREST
        mask = eligibility_mask(make_raster(codes), buffer_m=0.0)
        assert not mask[1, 1]
        assert mask.sum() == 8

    def test_neutral_classes_do_not_block(self):
        """Shrub is neither agricultural nor excluded: not eligible itself,
        but it casts no buffer either."""
        codes = np.full((3, 3), FARM)
        codes[1, 1] = SHRUB
        mask = eligibility_mask(make_raster(codes), buffer_m=100.0)
        assert not mask[1, 1]
        assert mask.sum() == 8

    def test_unknown_code_warns_and_blocks(self, caplog):
        codes = np.full((3, 3), FARM)
        codes[1, 1] = 999
        with caplog.at_level("WARNING", logger="agrivolt.land"):
            mask = eligibility_mask(make_raster(codes), buffer_m=100.0)
        assert any("unknown" in rec.message for rec in caplog.records)
        assert not mask[1, 1]
        # the unknown pixel also casts a buffer, like any excluded pixel
        assert not mask[0, 1] and not mask[1, 0]
        assert mask[0, 0]

    def test_nodata_is_transparent(self):
        """Pixels outside the study area neither qualify nor block."""
        codes = np.full((3, 3), FARM)
        codes[1, 1] = -9999
        mask = eligibility_mask(make_raster(codes), buffer_m=100.0)
        assert not mask[1, 1]
        assert mask.sum() == 8

    def test_default_buffer_is_100m(self):
        assert DEFAULT_BUFFER_M == 100.0

    def test_matches_brute_force_on_random_rasters(self):
        rng = np.random.default_rng(11)
        pool = np.array([FARM, 231, CITY, FOREST, SHRUB, 511, -9999])
        for trial in range(8):
            codes = rng.choice(pool, size=(12, 14))
            raster = make_raster(codes, cell_size=float(rng.integers(50, 400)))
            buffer_m = float(rng.uniform(0.0, 600.0))
            fast = eligibility_mask(raster, DEFAULT_CLASS_SETS, buffer_m)
            slow = brute_force_eligibility(raster, DEFAULT_CLASS_SETS, buffer_m)
            np.testing.assert_array_equal(fast, slow, err_msg=f"trial {trial}")

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_at_the_buffer_edge(self, data):
        """The buffer test is exact on 1 x n, n x 1 and up to 20 x 20 rasters,
        with no excluded pixels or only excluded ones, at buffers of cell *
        sqrt(dy**2 + dx**2) and the floats either side of them, and at buffers
        of 0 and 1e308 (or inf or nan) on cells of 1e-300."""
        shape = data.draw(
            st.one_of(
                st.tuples(st.just(1), st.integers(1, 40)),
                st.tuples(st.integers(1, 40), st.just(1)),
                st.tuples(st.integers(1, 20), st.integers(1, 20)),
            ),
            label="shape",
        )
        pool = data.draw(
            st.sampled_from([
                [FARM, 231, CITY, FOREST, SHRUB, 511, -9999],
                [FARM, FARM, FARM, FARM, CITY],
                [FARM, SHRUB, -9999],  # nothing excluded
                [CITY, FOREST, 999],  # everything excluded
            ]),
            label="classes",
        )
        size = shape[0] * shape[1]
        codes = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        cell_size = data.draw(
            st.sampled_from([1e-300, 0.01, 1.0, 30.0, 100.0, 500.0]) | st.floats(0.01, 500.0),
            label="cell size",
        )
        offset = st.integers(0, 3) | st.integers(0, 40)
        dy, dx = data.draw(st.tuples(offset, offset), label="edge offset")
        edge = cell_size * math.sqrt(dy * dy + dx * dx)  # a pixel distance
        edges = st.sampled_from([edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf)])
        extremes = st.sampled_from([0.0, 1e308, math.inf, math.nan])
        buffer_m = data.draw((edges | extremes).map(float), label="buffer")
        raster = make_raster(np.reshape(codes, shape), cell_size=cell_size)
        fast = eligibility_mask(raster, DEFAULT_CLASS_SETS, buffer_m)
        slow = brute_force_eligibility(raster, DEFAULT_CLASS_SETS, buffer_m)
        np.testing.assert_array_equal(fast, slow)

    def test_matches_scipy_edt_on_large_rasters(self):
        """On rasters too large for the all-pairs oracle, the mask equals the
        one from scipy's Euclidean distance transform (a test-only dependency),
        for sparse and dense exclusions and buffers of up to 140 cells."""
        from scipy.ndimage import distance_transform_edt

        rng = np.random.default_rng(18)
        for trial in range(12):
            dense = rng.choice([0.0005, 0.01, 0.2, 0.6])
            codes = np.where(rng.random((300, 400)) < dense, CITY, FARM)
            codes[rng.random(codes.shape) < 0.05] = -9999
            cell_size = float(rng.choice([1.0, 25.0, 100.0, 333.3]))
            dy, dx = rng.integers(0, rng.choice([4, 12, 100]), size=2)
            buffer_m = cell_size * math.sqrt(dy * dy + dx * dx)  # a pixel distance
            buffer_m = float(rng.choice([buffer_m, np.nextafter(buffer_m, 0.0)]))
            raster = make_raster(codes, cell_size=cell_size)
            distance_px = distance_transform_edt(codes != CITY)
            expected = (codes == FARM) & (distance_px * cell_size > buffer_m)
            np.testing.assert_array_equal(
                eligibility_mask(raster, DEFAULT_CLASS_SETS, buffer_m), expected,
                err_msg=f"trial {trial}",
            )


class TestClassSets:
    def test_overlap_rejected(self):
        with pytest.raises(InputError, match="both"):
            ClassSets(include=frozenset({211, 112}), exclude=frozenset({112}))

    def test_defaults_cover_inventory(self):
        assert 211 in DEFAULT_CLASS_SETS.include
        assert 231 in DEFAULT_CLASS_SETS.include
        assert 112 in DEFAULT_CLASS_SETS.exclude
        assert 311 in DEFAULT_CLASS_SETS.exclude
        assert 512 in DEFAULT_CLASS_SETS.exclude
        assert 324 in DEFAULT_CLASS_SETS.neutral

    def test_load_from_json(self, tmp_path):
        path = tmp_path / "classes.json"
        path.write_text('{"include": [1, 2], "exclude": [3], "neutral": [4]}')
        sets = load_class_sets(path)
        assert sets.include == frozenset({1, 2})
        assert sets.exclude == frozenset({3})
        assert sets.neutral == frozenset({4})

    def test_load_neutral_optional(self, tmp_path):
        path = tmp_path / "classes.json"
        path.write_text('{"include": [1], "exclude": [2]}')
        assert load_class_sets(path).neutral == frozenset()

    def test_load_missing_include(self, tmp_path):
        path = tmp_path / "classes.json"
        path.write_text('{"exclude": [2]}')
        with pytest.raises(InputError, match="include"):
            load_class_sets(path)

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "classes.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="cannot read"):
            load_class_sets(path)
        path.write_bytes(b'{"include": [1], "exclude": [2], "neutral": ["caf\xe9"]}')
        with pytest.raises(InputError, match="cannot read"):
            load_class_sets(path)
        for text in (
            '{"include": ["x"], "exclude": [2]}',
            '{"include": [1], "exclude": [[2]]}',
            '{"include": [1], "exclude": [2], "neutral": 3}',
            '{"include": [1], "exclude": [2], "neutral": "34"}',
            '{"include": [211.7], "exclude": [2]}',
            '{"include": ["212"], "exclude": [2]}',
            '{"include": [true], "exclude": [2]}',
        ):
            path.write_text(text)
            with pytest.raises(InputError, match="class codes must be integers"):
                load_class_sets(path)
        for text in ("[1, 2]", '"include"', "3"):
            path.write_text(text)
            with pytest.raises(InputError, match="malformed 'include' list"):
                load_class_sets(path)


def on_grid(raster, regions):
    """Region ids as a raster on ``raster``'s grid."""
    return replace(raster, codes=np.asarray(regions, dtype=np.int64))


def constant(yields):
    return lambda region_id: yields


class TestRegionPotential:
    def test_capacity_arithmetic_large_region(self):
        """17,000 eligible km2-scale pixels of 100 km2 each at 30 W/m2 give
        exactly 51,000 GW (1.7e12 m2 x 30 W/m2 / 1e9)."""
        codes = np.full((170, 100), FARM)
        raster = make_raster(codes, cell_size=10_000.0)
        eligible = np.ones_like(codes, dtype=bool)
        regions = on_grid(raster, np.ones_like(codes))
        counts = region_potential(raster, eligible, regions)
        (pot,) = counts.potentials(30.0, constant({"tilt": 1000.0}))
        assert pot.total_km2 == pytest.approx(1.7e6, rel=1e-12)
        assert pot.eligible_km2 == pytest.approx(1.7e6, rel=1e-12)
        assert pot.share_pct == 100.0
        assert pot.capacity_gw == 51000.0
        assert pot.energy_twh["tilt"] == pytest.approx(51000.0, rel=1e-12)

    def test_energy_from_specific_yields(self):
        """8341 km2 eligible at 30 W/m2 is 250.23 GW; a yield of 850 kWh/kW
        turns that into 212.6955 TWh."""
        codes = np.full((83, 101), FARM)
        codes[0, :42] = FOREST  # 8383 - 42 = 8341 farm pixels
        raster = make_raster(codes, cell_size=1000.0)
        eligible = np.isin(codes, [FARM])
        regions = on_grid(raster, np.ones_like(codes))
        (pot,) = region_potential(raster, eligible, regions).potentials(
            30.0, constant({"vertical": 850.0, "tilt": 1000.0})
        )
        assert eligible.sum() == 8341
        assert pot.eligible_km2 == pytest.approx(8341.0, rel=1e-12)
        assert pot.capacity_gw == pytest.approx(250.23, rel=1e-12)
        assert pot.energy_twh["vertical"] == pytest.approx(212.6955, rel=1e-9)
        assert pot.energy_twh["tilt"] == pytest.approx(250.23, rel=1e-9)

    def test_region_selection_and_share(self):
        codes = np.full((4, 4), FARM)
        codes[0, 0] = CITY
        raster = make_raster(codes, cell_size=1000.0)
        regions = np.zeros((4, 4), dtype=np.int64)
        regions[:, 2:] = 7
        eligible = eligibility_mask(raster, buffer_m=0.0)
        counts = region_potential(raster, eligible, on_grid(raster, regions))
        pots = counts.potentials(25.0, constant({}))
        pot = {p.region_id: p for p in pots}[7]
        assert pot.region_id == 7
        assert pot.total_km2 == pytest.approx(8.0)
        assert pot.eligible_km2 == pytest.approx(8.0)
        assert pot.share_pct == pytest.approx(100.0)

    def test_nodata_not_counted_in_total(self):
        codes = np.full((3, 3), FARM)
        codes[0, 0] = -9999
        raster = make_raster(codes, cell_size=1000.0)
        regions = on_grid(raster, np.ones((3, 3)))
        eligible = eligibility_mask(raster)
        (pot,) = region_potential(raster, eligible, regions).potentials(30.0, constant({}))
        assert pot.total_km2 == pytest.approx(8.0)

    def test_shape_mismatch_rejected(self):
        raster = make_raster(np.full((3, 3), FARM))
        eligible = np.ones((3, 3), dtype=bool)
        for regions in (
            on_grid(raster, np.ones((2, 3))),
            replace(on_grid(raster, np.ones((3, 3))), cell_size=1000.0),
            replace(on_grid(raster, np.ones((3, 3))), xllcorner=5000.0),
            replace(on_grid(raster, np.ones((3, 3))), yllcorner=-100.0),
        ):
            with pytest.raises(InputError, match="shape") as info:
                region_potential(raster, eligible, regions)
            assert "does not match" in str(info.value)

    def test_counts_of_row_bands_add_up(self):
        """Counts of disjoint rows add up with ``+`` to the whole raster's, in id
        order, also when one part or both hold no region."""
        codes = np.full((4, 3), FARM)
        codes[3, 0] = CITY
        regions = np.array([[-9999] * 3, [-9999] * 3, [5, 2, 2], [2, -9999, 9]])
        eligible = eligibility_mask(make_raster(codes))

        def counts(rows):
            raster = make_raster(codes[rows])
            return region_potential(raster, eligible[rows], on_grid(raster, regions[rows]))

        top, bottom, whole = counts(slice(0, 2)), counts(slice(2, 4)), counts(slice(0, 4))
        assert top.ids.size == 0
        sums = (((top + top) + bottom, whole), (bottom + top, whole), (top + top, top))
        for total, expected in sums:
            np.testing.assert_array_equal(total.ids, expected.ids)
            np.testing.assert_array_equal(total.pixels, expected.pixels)
        np.testing.assert_array_equal(whole.ids, [2, 5, 9])

    def test_empty_region(self):
        """A region that lies only on land NODATA has no area and no share."""
        codes = np.full((3, 3), FARM)
        codes[0, :] = -9999
        raster = make_raster(codes)
        eligible = np.ones((3, 3), dtype=bool)
        regions = np.ones((3, 3), dtype=np.int64)
        regions[0, :] = 99
        pots = region_potential(raster, eligible, on_grid(raster, regions)).potentials(
            30.0, constant({"tilt": 900.0})
        )
        pot = {p.region_id: p for p in pots}[99]
        assert pot.total_km2 == 0.0
        assert pot.share_pct == 0.0
        assert pot.capacity_gw == 0.0

    def test_counting_widens_one_row_of_pixels_at_a_time(self):
        """Counting a 2000 x 2000 raster of 50 block regions stays below 60 MB of
        numpy memory: the (2, pixels) bool stack is summed into int64 one row at
        a time (widening the whole stack at once took 76 MB)."""
        side = 2000
        raster = make_raster(np.full((side, side), FARM))
        eligible = np.random.default_rng(5).random((side, side)) < 0.5
        ids = np.add.outer(np.arange(side) // 400 * 10, np.arange(side) // 200) + 1
        regions = on_grid(raster, ids)
        tracemalloc.start()
        try:
            counts = region_potential(raster, eligible, regions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60e6, f"{peak / 1e6:.1f} MB"
        np.testing.assert_array_equal(counts.ids, np.arange(1, 51))
        assert counts.pixels[0].tolist() == [400 * 200] * 50
        assert counts.pixels[1].sum() == eligible.sum()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_region_reference(self, data):
        """Every field of every region equals the per-region mask loop, with
        NODATA in either raster, different NODATA values, and negative and
        large region ids."""
        shape = data.draw(st.tuples(st.integers(1, 9), st.integers(1, 9)), label="shape")
        land_nodata = data.draw(st.sampled_from([-9999, 0, 211]), label="land nodata")
        region_nodata = data.draw(st.sampled_from([-9999, 0, 7, -(2**63)]), label="region nodata")
        ids = st.sampled_from([1, 2, 7, 0, -5, -9999, 2**62, -(2**63), 2**63 - 1])
        cells = shape[0] * shape[1]
        codes = data.draw(
            st.lists(
                st.sampled_from([FARM, CITY, SHRUB, land_nodata]), min_size=cells, max_size=cells
            ),
            label="codes",
        )
        region_ids = data.draw(st.lists(ids, min_size=cells, max_size=cells), label="regions")
        raster = make_raster(
            np.reshape(codes, shape),
            cell_size=data.draw(st.sampled_from([1.0, 30.0, 100.0, 2500.0])),
            nodata=land_nodata,
        )
        region_codes = np.reshape(np.array(region_ids, dtype=np.int64), shape)
        regions = replace(raster, codes=region_codes, nodata=region_nodata)
        eligible = eligibility_mask(raster, buffer_m=data.draw(st.sampled_from([0.0, 100.0])))
        density = data.draw(st.sampled_from([0.5, 30.0, 71.3]))

        def yields(region_id):
            return {"tilt": 1000.0 + region_id % 97, "vertical": 850.0, "tracking": 0.0}

        fast = region_potential(raster, eligible, regions).potentials(density, yields)
        slow = reference_region_potential(raster, eligible, regions, density, yields)
        assert [p.region_id for p in fast] == [p.region_id for p in slow]
        for a, b in zip(fast, slow):
            assert a == b
            assert type(a.region_id) is int


def write_grid(path, codes, cell_size, nodata, width):
    """An ASCII grid of ``codes`` with ``width`` values on every data line."""
    values = [str(v) for v in np.ravel(codes).tolist()]
    lines = [" ".join(values[i : i + width]) for i in range(0, len(values), width)]
    nrows, ncols = np.shape(codes)
    path.write_text(
        f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\ncellsize {cell_size!r}\n"
        f"NODATA_value {nodata}\n" + "\n".join(lines) + "\n"
    )
    return path


def streamed(paths, buffer_m, density, yields, band_rows, ncols, classes=DEFAULT_CLASS_SETS):
    """``stream_potential`` with bands of ``band_rows`` rows, or of four halos
    if taller; also the land eligibility of every band and the (window, band)
    heights of every band."""
    masks, windows = [], []
    count, mask_of = land.region_potential, land.eligibility_mask

    def counting(raster, eligible, regions):
        masks.append(eligible)
        return count(raster, eligible, regions)

    def masking(raster, classes, buffer_m):
        windows.append(len(raster.codes))
        return mask_of(raster, classes, buffer_m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(land, "BAND_PIXELS", band_rows * ncols)
        patch.setattr(land, "region_potential", counting)
        patch.setattr(land, "eligibility_mask", masking)
        results = land.stream_potential(*paths, classes, buffer_m, density, yields)
    assert len(windows) == len(masks)  # one mask and one count per band
    return results, np.concatenate(masks), list(zip(windows, map(len, masks)))


class TestStreamPotential:
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_banded_equals_whole_raster(self, tmp_path, caplog, data):
        """Read in bands of any height (at least the halo's), on lines of any
        width, the regions equal those of the whole rasters, the masks equal
        the brute-force oracle and the unknown codes give the whole raster's
        warning, with NODATA in either raster and equal to an include, an
        exclude or a neutral code, land codes and region ids up to +-2**63,
        class codes at +-2**63, unknown codes only in rows that are also a
        neighbouring band's halo, and region rasters that are random, constant,
        a checkerboard (one run per pixel) or runs across band boundaries."""
        nrows = data.draw(st.integers(1, 30), label="nrows")
        ncols = data.draw(st.integers(1, 5), label="ncols")
        land_nodata = data.draw(
            st.sampled_from([-9999, 0, FARM, CITY, SHRUB, -(2**63)]), label="land nodata"
        )
        region_nodata = data.draw(st.sampled_from([-9999, 0, 7, -(2**63)]), label="region nodata")
        classes = data.draw(st.sampled_from([DEFAULT_CLASS_SETS, FAR_CLASS_SETS]), label="classes")

        def grid(values, label):
            size = nrows * ncols
            cells = st.lists(st.sampled_from(values), min_size=size, max_size=size)
            return np.reshape(data.draw(cells, label=label), (nrows, ncols))

        pool = [FARM, 231, CITY, FOREST, SHRUB, 511, 999, -1, land_nodata, *EDGE_CODES]
        codes = grid(pool, "codes")
        cell_size = data.draw(st.floats(0.5, 1000.0), label="cell size")
        cells = data.draw(st.one_of(st.integers(0, 5).map(float), st.floats(0.0, 5.0)), "cells")
        buffer_m = cells * cell_size
        band_rows = data.draw(st.integers(1, nrows), label="band rows")
        if data.draw(st.booleans(), label="unknown codes only in halo rows"):
            ratio = buffer_m / cell_size  # the halo and band heights of stream_potential
            halo = min(nrows, math.ceil(ratio) + 1) if ratio < nrows else nrows
            height = max(band_rows, 4 * halo)
            offset = np.arange(nrows)[:, None] - np.arange(height, nrows, height)
            in_halo = ((offset >= -halo) & (offset < halo)).any(axis=1)  # rows either side
            known = sorted(classes.include | classes.exclude | classes.neutral)
            unknown = ~np.isin(codes, known) & (codes != land_nodata)
            codes = np.where(unknown & ~in_halo[:, None], FARM, codes)
        layout = data.draw(
            st.sampled_from(["random", "constant", "checkerboard", "runs"]), label="regions"
        )
        ids = [1, 2, 7, 0, -5, -9999, 2**62, -(2**63), 2**63 - 1]
        if layout == "random":
            regions = grid(ids, "region ids")
        elif layout == "constant":
            regions = np.full((nrows, ncols), data.draw(st.sampled_from(ids), label="id"))
        elif layout == "checkerboard":
            pair = data.draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
            regions = np.choose(np.indices((nrows, ncols)).sum(axis=0) % 2, pair)
        else:  # runs of up to two bands' pixels, along the rows
            lengths = data.draw(
                st.lists(st.integers(1, 2 * band_rows * ncols), min_size=1, max_size=20)
            )
            run_ids = data.draw(st.lists(st.sampled_from(ids), min_size=len(lengths),
                                         max_size=len(lengths)))
            regions = np.resize(np.repeat(run_ids, lengths), (nrows, ncols))
        regions = np.asarray(regions, dtype=np.int64)
        widths = [w for w in range(1, codes.size + 1) if codes.size % w == 0]
        width = data.draw(st.sampled_from(widths), label="values per line")
        paths = (
            write_grid(tmp_path / "land.asc", codes, cell_size, land_nodata, width),
            write_grid(tmp_path / "regions.asc", regions, cell_size, region_nodata, width),
        )
        raster, region_raster = read_ascii_grid(paths[0]), read_ascii_grid(paths[1])
        np.testing.assert_array_equal(raster.codes, codes)

        def yields(region_id):
            return {"tilt": 1000.0 + region_id % 97, "vertical": 850.0, "tracking": 0.0}

        with caplog.at_level("WARNING", logger="agrivolt.land"):
            caplog.clear()
            whole_mask = eligibility_mask(raster, classes, buffer_m)
            warned = [r.getMessage() for r in caplog.records]
            caplog.clear()
            results, mask, _ = streamed(paths, buffer_m, 30.0, yields, band_rows, ncols, classes)
            assert [r.getMessage() for r in caplog.records] == warned
        whole = region_potential(raster, whole_mask, region_raster).potentials(30.0, yields)
        assert results == whole
        oracle = brute_force_eligibility(raster, classes, buffer_m)
        np.testing.assert_array_equal(mask, oracle)
        np.testing.assert_array_equal(whole_mask, oracle)
        slow = reference_region_potential(raster, oracle, region_raster, 30.0, yields)
        assert whole == slow

    @pytest.mark.parametrize(
        "band_rows, buffer_m, heights",
        [(3, 250.0, [16, 7]), (17, 250.0, [17, 6]), (1, 0.0, [4] * 5 + [3]),
         (5, 0.0, [5] * 4 + [3]), (2, 200.0, [12, 11]), (1, 600.0, [23]), (1, 1e5, [23]),
         (1, 400.0, [20, 3])],
    )
    def test_windows_hold_a_band_and_its_halo(self, tmp_path, band_rows, buffer_m, heights):
        """On a raster of 23 rows, bands are at least four halos tall (a halo is
        ceil(buffer / cellsize) + 1 rows, clamped to the raster), and each mask
        comes from a window of at most the band and a halo above and below it:
        never more than 1.5 bands' rows, and one window for a buffer of over a
        quarter of the raster's height."""
        rng = np.random.default_rng(5)
        codes = rng.choice([FARM, FARM, FARM, CITY, SHRUB], size=(23, 5))
        paths = (
            write_grid(tmp_path / "land.asc", codes, 100.0, -9999, 5),
            write_grid(tmp_path / "regions.asc", np.ones_like(codes), 100.0, -9999, 5),
        )
        halo = min(23, math.ceil(buffer_m / 100.0) + 1)
        _, mask, windows = streamed(paths, buffer_m, 30.0, constant({}), band_rows, 5)
        assert [band for _, band in windows] == heights
        assert all(2 * window <= 3 * heights[0] for window, _ in windows)
        assert all(window <= band + 2 * halo for window, band in windows)
        starts = np.cumsum([0, *heights[:-1]])  # a halo of rows above and below, where present
        assert [window for window, _ in windows] == [
            min(halo, start) + band + min(halo, 23 - start - band)
            for start, band in zip(starts, heights)
        ]
        raster = read_ascii_grid(paths[0])
        np.testing.assert_array_equal(mask, eligibility_mask(raster, buffer_m=buffer_m))


    def test_unknown_codes_without_excluded_classes(self, tmp_path, monkeypatch):
        """With no excluded class, unknown codes still exclude, band by band,
        and the neutral and NODATA pixels of the smallest codes do not."""
        classes = ClassSets(include=frozenset({2}), exclude=frozenset(), neutral=frozenset({0}))
        codes = np.random.default_rng(7).choice([2, 2, 2, 0, 1, 9], size=(20, 3))  # 1: NODATA
        paths = (
            write_grid(tmp_path / "land.asc", codes, 100.0, 1, 3),
            write_grid(tmp_path / "regions.asc", np.ones_like(codes), 100.0, -9999, 3),
        )
        monkeypatch.setattr(land, "BAND_PIXELS", 3)  # bands of 8 rows: four halos of 2
        results = land.stream_potential(*paths, classes, 100.0, 30.0, constant({}))
        raster = read_ascii_grid(paths[0])
        mask = brute_force_eligibility(raster, classes, 100.0)
        assert 0 < mask.sum() < (codes == 2).sum()
        whole = region_potential(raster, mask, read_ascii_grid(paths[1]))
        assert results == whole.potentials(30.0, constant({}))


class TestAggregatePotential:
    @staticmethod
    def _region(rid, capacity_gw, energy):
        return RegionPotential(
            region_id=rid,
            total_km2=100.0,
            eligible_km2=50.0,
            share_pct=50.0,
            capacity_gw=capacity_gw,
            energy_twh=energy,
        )

    def test_sums_and_demand_multiples(self):
        regions = [
            self._region(1, 100.0, {"tilt": 1000.0, "vertical": 900.0}),
            self._region(2, 50.0, {"tilt": 500.0, "vertical": 600.0}),
        ]
        summary = aggregate_potential(regions, demand_twh=500.0)
        assert summary["total_km2"] == pytest.approx(200.0)
        assert summary["eligible_km2"] == pytest.approx(100.0)
        assert summary["capacity_gw"] == pytest.approx(150.0)
        assert summary["energy_tilt_twh"] == pytest.approx(1500.0)
        assert summary["energy_vertical_twh"] == pytest.approx(1500.0)
        assert summary["demand_multiple_tilt"] == pytest.approx(3.0)
        assert summary["demand_multiple_vertical"] == pytest.approx(3.0)

    def test_default_demand(self):
        summary = aggregate_potential([self._region(1, 10.0, {"tilt": 2550.0})])
        assert summary["demand_multiple_tilt"] == pytest.approx(1.0)

    def test_nonpositive_demand_rejected(self):
        with pytest.raises(InputError, match="positive"):
            aggregate_potential([], demand_twh=0.0)
