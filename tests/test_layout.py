"""Row layout geometry for the three mount kinds."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest

from agrivolt.layout import (
    DEFAULT_BIFACIALITY,
    DEFAULT_CLEARANCE,
    MOUNT_KINDS,
    STANDARD_HEIGHTS,
    STANDARD_SPACINGS,
    build_layout,
    optimal_tilt,
)
from agrivolt.solar import PlaneOrientation, SolarPosition, plane_normal
from oracles import row_corners


class TestBuildLayout:
    def test_mount_kind_catalogue(self):
        assert MOUNT_KINDS == ("tilt", "vertical", "tracking")
        assert STANDARD_SPACINGS == (3.0, 4.5, 6.0, 7.5, 9.0, 12.0)
        assert STANDARD_HEIGHTS == (1.0, 2.0, 3.0)

    def test_row_count_and_collector_area(self):
        layout = build_layout("tilt", 6.0, 2.0, field=(100.0, 100.0), latitude_deg=56.49)
        assert layout.row_count == 17  # floor(100 / 6) + 1
        assert layout.row_length == 100.0
        assert layout.collector_area == pytest.approx(17 * 100.0 * 2.0)
        assert layout.field_area == pytest.approx(10000.0)

    @pytest.mark.parametrize("kind", MOUNT_KINDS)
    def test_row_count_odd_field(self, kind):
        layout = build_layout(kind, 4.5, 1.0, field=(50.0, 50.0), latitude_deg=56.49)
        assert layout.row_count == math.floor(50.0 / 4.5) + 1

    def test_single_row_when_field_smaller_than_spacing(self):
        layout = build_layout("vertical", 12.0, 2.0, field=(10.0, 10.0))
        assert layout.row_count == 1

    @pytest.mark.parametrize("kind", MOUNT_KINDS)
    def test_default_clearances(self, kind):
        layout = build_layout(kind, 6.0, 2.0, latitude_deg=56.49)
        assert layout.clearance == DEFAULT_CLEARANCE[kind]

    @pytest.mark.parametrize("kind", MOUNT_KINDS)
    def test_default_bifaciality(self, kind):
        layout = build_layout(kind, 6.0, 2.0, latitude_deg=56.49)
        assert layout.bifaciality == DEFAULT_BIFACIALITY[kind]

    def test_mid_height(self):
        tilt = build_layout("tilt", 6.0, 2.0, latitude_deg=56.49)
        assert tilt.mid_height == pytest.approx(
            2.0 + 0.5 * 2.0 * math.sin(tilt.tilt), rel=1e-12
        )
        vertical = build_layout("vertical", 6.0, 2.0)
        assert vertical.mid_height == pytest.approx(1.0 + 1.0, rel=1e-12)
        tracking = build_layout("tracking", 6.0, 2.0)
        assert tracking.mid_height == pytest.approx(1.0 + 1.0, rel=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_layout("carport", 6.0, 2.0)

    def test_tilted_rows_must_not_overlap(self):
        # h * cos(tilt) = 3 * cos(30 deg) = 2.598 > spacing 2.5
        with pytest.raises(ValueError, match="overlap"):
            build_layout(
                "tilt", 2.5, 3.0, tilt=math.radians(30.0), latitude_deg=56.49
            )

    def test_tracker_rows_must_clear_full_rotation(self):
        with pytest.raises(ValueError, match="overlap"):
            build_layout("tracking", 2.5, 3.0)

    def test_vertical_rows_never_overlap(self):
        build_layout("vertical", 2.5, 3.0)  # planes are parallel walls

    def test_off_catalogue_values_build_without_warning(self, caplog):
        """A scenario logs its off-catalogue values once; a layout builds silently."""
        with caplog.at_level(logging.WARNING):
            layout = build_layout("vertical", 5.0, 1.5)
        assert (layout.spacing, layout.height) == (5.0, 1.5)
        assert caplog.text == ""

    def test_catalogue_values_do_not_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="agrivolt.layout"):
            build_layout("vertical", 6.0, 2.0)
        assert caplog.text == ""


class TestOptimalTilt:
    def test_reference_latitudes(self):
        assert math.degrees(optimal_tilt(56.49)) == pytest.approx(37.78, abs=0.01)
        assert math.degrees(optimal_tilt(35.0)) == pytest.approx(29.22, abs=0.01)

    def test_bounded(self):
        for lat in (0.0, 15.0, 45.0, 65.0, 89.0):
            assert math.radians(1.0) <= optimal_tilt(lat) <= math.radians(89.0)

    def test_tilt_kind_uses_latitude_rule(self):
        layout = build_layout("tilt", 6.0, 2.0, latitude_deg=56.49)
        assert layout.tilt == pytest.approx(optimal_tilt(56.49), rel=1e-12)

    def test_explicit_tilt_overrides_rule(self):
        layout = build_layout("tilt", 6.0, 2.0, tilt=math.radians(25.0))
        assert layout.tilt == pytest.approx(math.radians(25.0), rel=1e-12)


class TestOrientation:
    def test_tilt_faces_south(self):
        layout = build_layout("tilt", 6.0, 2.0, latitude_deg=56.49)
        orient = layout.orientation()
        assert orient.tilt == pytest.approx(layout.tilt, rel=1e-12)
        assert orient.azimuth == 0.0

    def test_vertical_front_faces_east(self):
        layout = build_layout("vertical", 6.0, 2.0)
        orient = layout.orientation()
        assert orient.tilt == pytest.approx(0.5 * math.pi, rel=1e-12)
        assert orient.azimuth == pytest.approx(-0.5 * math.pi, rel=1e-12)

    def test_vertical_rear_faces_west(self):
        layout = build_layout("vertical", 6.0, 2.0)
        rear = layout.rear_orientation(layout.orientation())
        assert rear.tilt == pytest.approx(0.5 * math.pi, rel=1e-12)
        assert rear.azimuth == pytest.approx(0.5 * math.pi, rel=1e-12)

    def test_tracking_needs_sun(self):
        layout = build_layout("tracking", 6.0, 2.0)
        with pytest.raises(ValueError):
            layout.orientation()

    def test_tracking_follows_sun(self):
        layout = build_layout("tracking", 6.0, 2.0)
        sun = SolarPosition(altitude=math.radians(45.0), azimuth=-0.5 * math.pi)
        orient = layout.orientation(sun)
        assert math.degrees(orient.tilt) == pytest.approx(45.0, abs=0.1)
        assert orient.azimuth == pytest.approx(-0.5 * math.pi, rel=1e-12)

    def test_tracking_max_rotation_from_layout(self):
        layout = build_layout("tracking", 6.0, 2.0, max_rotation=math.radians(30.0))
        sun = SolarPosition(altitude=math.radians(10.0), azimuth=-0.5 * math.pi)
        assert layout.orientation(sun).tilt == pytest.approx(
            math.radians(30.0), rel=1e-12
        )


class TestRowGeometry:
    def geometry(self, kind, sun=None, **kwargs):
        layout = build_layout(kind, 6.0, 2.0, latitude_deg=56.49, **kwargs)
        orient = layout.orientation(sun) if kind == "tracking" else layout.orientation()
        return layout, layout.row_geometry(orient), orient

    def test_tilt_rows_run_east_west(self):
        layout, geom, orient = self.geometry("tilt")
        assert geom.count == layout.row_count
        np.testing.assert_allclose(geom.along, [100.0, 0.0, 0.0])
        np.testing.assert_allclose(geom.pitch, [0.0, 6.0, 0.0])
        np.testing.assert_allclose(geom.origin, [0.0, 0.0, 2.0])
        # rise climbs north and up at the mount tilt
        h = layout.height
        np.testing.assert_allclose(
            geom.rise, [0.0, h * math.cos(layout.tilt), h * math.sin(layout.tilt)]
        )

    def test_vertical_rows_run_north_south(self):
        layout, geom, _ = self.geometry("vertical")
        np.testing.assert_allclose(geom.along, [0.0, 100.0, 0.0])
        np.testing.assert_allclose(geom.rise, [0.0, 0.0, 2.0])
        np.testing.assert_allclose(geom.pitch, [6.0, 0.0, 0.0])
        np.testing.assert_allclose(geom.origin, [0.0, 0.0, 1.0])

    def test_tracking_rotates_about_axis_midline(self):
        sun = SolarPosition(altitude=math.radians(45.0), azimuth=-0.5 * math.pi)
        layout, geom, orient = self.geometry("tracking", sun=sun)
        axis_z = layout.clearance + 0.5 * layout.height
        centre = geom.origin + 0.5 * geom.rise
        np.testing.assert_allclose(centre, [0.0, 0.0, axis_z], atol=1e-12)
        # collector width is preserved under rotation
        assert np.linalg.norm(geom.rise) == pytest.approx(layout.height, rel=1e-12)
        np.testing.assert_allclose(geom.along, [0.0, 100.0, 0.0])

    @pytest.mark.parametrize("kind", MOUNT_KINDS)
    def test_normal_matches_orientation_and_edges(self, kind):
        sun = SolarPosition(altitude=math.radians(35.0), azimuth=math.radians(-50.0))
        layout, geom, orient = self.geometry(kind, sun=sun)
        # the stored normal is the front-face normal of the plane
        expected = plane_normal(orient)
        assert float(np.dot(geom.normal, expected)) == pytest.approx(1.0, abs=1e-9)
        # and it is orthogonal to both in-plane edges
        assert float(np.dot(geom.normal, geom.along)) == pytest.approx(0.0, abs=1e-9)
        assert float(np.dot(geom.normal, geom.rise)) == pytest.approx(0.0, abs=1e-9)
        assert np.linalg.norm(geom.normal) == pytest.approx(1.0, rel=1e-12)

    def test_corners_span_the_rectangle(self):
        _, geom, _ = self.geometry("tilt")
        corners = row_corners(geom, 2)
        base = geom.origin + 2 * geom.pitch
        np.testing.assert_allclose(corners[0], base)
        np.testing.assert_allclose(corners[1], base + geom.along)
        np.testing.assert_allclose(corners[2], base + geom.along + geom.rise)
        np.testing.assert_allclose(corners[3], base + geom.rise)

    def test_length_and_height_properties(self):
        layout, geom, _ = self.geometry("vertical")
        assert geom.length == pytest.approx(layout.row_length, rel=1e-12)
        assert geom.height == pytest.approx(layout.height, rel=1e-12)
