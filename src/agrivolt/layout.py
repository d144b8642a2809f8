"""Field layouts for the three mount types.

A layout places identical collector rows on a square field:

* ``tilt``: fixed south-facing rows running east-west, pitched northward,
* ``vertical``: upright bifacial rows running north-south (front face east,
  rear face west), pitched eastward,
* ``tracking``: rows rotating about horizontal north-south axes, pitched
  eastward.

The first row edge sits on the field boundary, rows repeat at the pitch
``spacing`` and span the full field length, so a field of extent W along
the pitch axis holds ``floor(W / spacing) + 1`` rows.

World coordinates: x east, y north, z up, ground at z = 0, all metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .solar import PlaneOrientation, SolarPosition, plane_normal, tracking_orientation

MOUNT_KINDS = ("tilt", "vertical", "tracking")

#: Row spacings and collector heights of the studied design space. Other
#: positive values are accepted; a scenario logs each of them once.
STANDARD_SPACINGS = (3.0, 4.5, 6.0, 7.5, 9.0, 12.0)
STANDARD_HEIGHTS = (1.0, 2.0, 3.0)

DEFAULT_CLEARANCE = {"tilt": 2.0, "vertical": 1.0, "tracking": 1.0}
DEFAULT_BIFACIALITY = {"tilt": 0.0, "vertical": 0.8, "tracking": 0.0}

DEFAULT_FIELD = (100.0, 100.0)


def optimal_tilt(latitude_deg: float) -> float:
    """Annual-optimal tilt of a south-facing collector, radians.

    Third-order polynomial fit of optimal tilt versus latitude; around 38
    degrees for northern Denmark. Clamped to (0, 90) degrees.
    """
    lat = abs(latitude_deg)
    tilt_deg = 1.3793 + lat * (1.2011 + lat * (-0.014404 + lat * 0.000080509))
    return math.radians(min(89.0, max(1.0, tilt_deg)))


@dataclass(frozen=True)
class RowGeometry:
    """Concrete row rectangles for one layout at one orientation.

    Row ``i`` is the parallelogram spanned by ``along`` and ``rise`` from
    ``origin + i * pitch``. ``along`` runs the row length, ``rise`` crosses
    the collector short axis (length = collector height), ``normal`` is the
    front-face unit normal. A tracker over H hours has (H, 3) ``origin``,
    ``rise`` and ``normal``; fixed rows have one (3,) row for every hour.
    """

    origin: np.ndarray
    along: np.ndarray
    rise: np.ndarray
    pitch: np.ndarray
    count: int
    normal: np.ndarray

    @cached_property
    def length(self) -> float:
        return float(np.linalg.norm(self.along))

    @cached_property
    def height(self):
        """Collector height, per hour for (H, 3) rows."""
        return np.sqrt(np.vecdot(self.rise, self.rise))[()]


@dataclass(frozen=True)
class Layout:
    """A row layout on a square field.

    ``spacing`` is the row pitch, ``height`` the collector extent across its
    short axis, ``clearance`` the gap between ground and the lowest collector
    point (for tracking: at the steepest rotation). ``field`` is the
    (x extent, y extent) of the simulated field; the pitch axis is y for
    tilt mounts and x for vertical and tracking mounts.
    """

    kind: str
    spacing: float
    height: float
    clearance: float
    tilt: float
    bifaciality: float
    field: tuple[float, float] = DEFAULT_FIELD
    max_rotation: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in MOUNT_KINDS:
            raise ValueError(f"unknown mount kind {self.kind!r}, expected one of {MOUNT_KINDS}")
        if self.spacing <= 0.0 or self.height <= 0.0:
            raise ValueError("spacing and height must be positive")
        if self.clearance < 0.0:
            raise ValueError("clearance must be non-negative")
        if not 0.0 <= self.bifaciality <= 1.0:
            raise ValueError(f"bifaciality out of range [0, 1]: {self.bifaciality}")
        if min(self.field) <= 0.0:
            raise ValueError("field extents must be positive")
        if self.kind == "tilt" and self.height * math.cos(self.tilt) > self.spacing:
            raise ValueError(
                f"rows overlap: tilted footprint {self.height * math.cos(self.tilt):.2f} m "
                f"exceeds spacing {self.spacing:.2f} m"
            )
        if self.kind == "tracking" and self.height > self.spacing:
            raise ValueError(
                f"rows overlap: tracker sweep {self.height:.2f} m exceeds "
                f"spacing {self.spacing:.2f} m"
            )

    @property
    def pitch_extent(self) -> float:
        return self.field[1] if self.kind == "tilt" else self.field[0]

    @property
    def row_length(self) -> float:
        return self.field[0] if self.kind == "tilt" else self.field[1]

    @property
    def row_count(self) -> int:
        return int(math.floor(self.pitch_extent / self.spacing)) + 1

    @property
    def field_area(self) -> float:
        return self.field[0] * self.field[1]

    @property
    def collector_area(self) -> float:
        return self.row_count * self.row_length * self.height

    @property
    def mid_height(self) -> float:
        """Height of the collector midpoint above ground (rotation invariant)."""
        if self.kind == "tilt":
            return self.clearance + 0.5 * self.height * math.sin(self.tilt)
        return self.clearance + 0.5 * self.height

    def orientation(self, sun: SolarPosition | None = None) -> PlaneOrientation:
        """Front-face orientation; a tracker's follows the sun, hour by hour."""
        if self.kind == "tilt":
            return PlaneOrientation(tilt=self.tilt, azimuth=0.0)
        if self.kind == "vertical":
            return PlaneOrientation(tilt=0.5 * math.pi, azimuth=-0.5 * math.pi)
        if sun is None:
            raise ValueError("tracking layouts need the sun position to orient")
        return tracking_orientation(sun, self.max_rotation)

    def rear_orientation(self, front: PlaneOrientation) -> PlaneOrientation:
        """Mirrored orientation of the rear face (azimuth rotated by pi)."""
        azimuth = front.azimuth + math.pi
        azimuth = np.where(azimuth > math.pi, azimuth - 2.0 * math.pi, azimuth)[()]
        return PlaneOrientation(tilt=front.tilt, azimuth=azimuth)

    def row_geometry(self, orientation: PlaneOrientation) -> RowGeometry:
        """Row rectangles for the given front orientation."""
        length = self.row_length
        h = self.height
        if self.kind == "tilt":
            # lower edge on the south side, surface rising northward
            cos_t, sin_t = math.cos(self.tilt), math.sin(self.tilt)
            origin = np.array([0.0, 0.0, self.clearance])
            along = np.array([length, 0.0, 0.0])
            rise = np.array([0.0, h * cos_t, h * sin_t])
            pitch = np.array([0.0, self.spacing, 0.0])
        elif self.kind == "vertical":
            origin = np.array([0.0, 0.0, self.clearance])
            along = np.array([0.0, length, 0.0])
            rise = np.array([0.0, 0.0, h])
            pitch = np.array([self.spacing, 0.0, 0.0])
        else:
            # rotation R about the n-s axis: R > 0 faces west (azimuth +pi/2)
            tilt = orientation.tilt
            rot = np.where((tilt > 0.0) & (orientation.azimuth < 0.0), -tilt, tilt)
            cross = np.stack([np.cos(rot), np.zeros_like(rot), np.sin(rot)], axis=-1)
            axis_z = self.clearance + 0.5 * h
            origin = np.array([0.0, 0.0, axis_z]) - 0.5 * h * cross
            along = np.array([0.0, length, 0.0])
            rise = h * cross
            pitch = np.array([self.spacing, 0.0, 0.0])
        return RowGeometry(
            origin=origin,
            along=along,
            rise=rise,
            pitch=pitch,
            count=self.row_count,
            normal=plane_normal(orientation),
        )


def build_layout(
    kind: str,
    spacing: float,
    height: float,
    field: tuple[float, float] = DEFAULT_FIELD,
    clearance: float | None = None,
    tilt: float | None = None,
    latitude_deg: float | None = None,
    bifaciality: float | None = None,
    max_rotation: float | None = None,
) -> Layout:
    """Construct a :class:`Layout`, filling defaults per mount kind.

    The fixed tilt defaults to :func:`optimal_tilt` of ``latitude_deg``;
    pass ``tilt`` (radians) to override. Spacings and heights outside the
    studied design space are allowed.
    """
    if kind not in MOUNT_KINDS:
        raise ValueError(f"unknown mount kind {kind!r}, expected one of {MOUNT_KINDS}")
    if kind == "tilt":
        if tilt is None:
            if latitude_deg is None:
                raise ValueError("tilt layouts need either an explicit tilt or a latitude")
            tilt = optimal_tilt(latitude_deg)
    elif kind == "vertical":
        tilt = 0.5 * math.pi
    else:
        tilt = 0.0
    return Layout(
        kind=kind,
        spacing=float(spacing),
        height=float(height),
        clearance=DEFAULT_CLEARANCE[kind] if clearance is None else float(clearance),
        tilt=float(tilt),
        bifaciality=DEFAULT_BIFACIALITY[kind] if bifaciality is None else float(bifaciality),
        field=(float(field[0]), float(field[1])),
        max_rotation=max_rotation,
    )
