"""Scenario configuration: INI parsing, defaults, validation.

A scenario file declares where the field sits, which layout grid to
sweep, and the panel, sky and crop parameters. Only ``[meta]``
``schema_version`` and ``[location]`` are mandatory; everything else has
the defaults of the dataclasses below. :data:`KEYS` lists every accepted
key; unknown sections or keys are rejected so typos fail loudly instead
of silently running defaults.
"""

from __future__ import annotations

import configparser
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

from .agronomy import GROWING_MONTHS, CropThresholds
from .electrical import PanelModel, wind_at_module
from .errors import InputError
from .layout import (
    DEFAULT_BIFACIALITY, DEFAULT_CELL_SIZE, DEFAULT_CLEARANCE, DEFAULT_FIELD, MOUNT_KINDS,
    STANDARD_HEIGHTS, STANDARD_SPACINGS, Layout, build_layout,
)
from .sky import DEFAULT_ALBEDO
from .solar import GeoLocation

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

#: Most rows, floor(ground_m / spacing) + 1, and cells a side, ground_m / ground_cell_m,
#: of a ground map: a July map took 0.08 s and 4 MB at 100 x 100 cells and 9 rows,
#: 0.9 s and 74 MB at 501 rows, 0.37 s and 30 MB at 300 x 300 cells. At both bounds,
#: 200 vertical rows 3 m tall over 500 x 500 cells took 1.2 s and 94 MB more peak RSS,
#: 10 m tall 2.4 s and 204 MB (placed and painted 64 hours at a time).
MAX_GROUND_ROWS, MAX_SIDE_CELLS = 200, 500
#: Most rows of the electrical field, whose cost does not depend on them, and longest
#: side of its rows: past an int64 of rows numpy raised OverflowError, and past
#: 1.34e154 m a row's length or height squared in its norm overflowed and the shaded
#: area f_gs came out NaN.
MAX_ROWS, MAX_ROW_SIDE_M = 2**63 - 1, 1e154


@dataclass(frozen=True)
class ScenarioConfig:
    location: GeoLocation
    kinds: tuple[str, ...] = MOUNT_KINDS
    spacings: tuple[float, ...] = (6.0,)
    heights: tuple[float, ...] = (2.0,)
    electrical_field_m: float = DEFAULT_FIELD[0]
    ground_field_m: float = 50.0
    ground_cell_m: float = DEFAULT_CELL_SIZE
    clearances: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_CLEARANCE))
    tilt_deg: float | None = None
    tracker_max_rotation_deg: float | None = None
    bifaciality_vertical: float = DEFAULT_BIFACIALITY["vertical"]
    panel: PanelModel = PanelModel()
    albedo: float = DEFAULT_ALBEDO
    thresholds: CropThresholds = CropThresholds()
    growing_months: tuple[int, ...] = GROWING_MONTHS
    ground_map_months: tuple[int, ...] = (7,)

    def __post_init__(self) -> None:
        """Raise ``ValueError`` naming the INI keys: :data:`KEYS` checks, then the grid.
        Then log each spacing and height outside the studied design space once."""
        for (section, key), (target, _, check) in KEYS.items():
            value = None if target is None or check is None else getattr(self, target)
            if value == ():  # refused in the list parser's words
                raise ValueError(f"invalid value for [{section}] {key}: empty list")
            if value is not None and not check[0](value):
                raise ValueError(f"invalid value for [{section}] {key}: {check[1].format(value)}")
        try:
            for kind, spacing, height in product(self.kinds, self.spacings, self.heights):
                if kind not in self.clearances:
                    raise ValueError(f"no [layout] clearance_{kind}_m")
                layout = case_layout(self, kind, spacing, height, self.electrical_field_m)
                # the wind factor (h/10)^exp must not overflow
                wind_at_module(1.0, layout.mid_height, self.panel.wind_shear_exponent)
            for key, side in (("[field] electrical_m", self.electrical_field_m),
                              ("[layout] heights_m", max(self.heights))):
                if not side <= MAX_ROW_SIDE_M:
                    raise ValueError(f"{key} over {MAX_ROW_SIDE_M:g} m")
            if not self.electrical_field_m * self.electrical_field_m > 0.0:
                raise ValueError("[field] electrical_m squared, the field area, underflows to 0")
            for key, side, most in (("electrical_m", self.electrical_field_m, MAX_ROWS),
                                    ("ground_m", self.ground_field_m, MAX_GROUND_ROWS)):
                if not side / min(self.spacings) < most:  # floor(side / spacing) + 1 <= most
                    raise ValueError(f"[field] {key} / [layout] spacings_m: over {most} rows")
            if not self.ground_field_m / self.ground_cell_m <= MAX_SIDE_CELLS:
                raise ValueError(f"[field] ground_m / ground_cell_m: over {MAX_SIDE_CELLS} cells")
        except ValueError as exc:
            raise ValueError(f"invalid value: {exc}") from exc
        for name, values, studied in (("spacing", self.spacings, STANDARD_SPACINGS),
                                      ("height", self.heights, STANDARD_HEIGHTS)):
            for value in dict.fromkeys(v for v in values if v not in studied):
                log.warning("%s %.3g m outside the studied set %s", name, value, studied)


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _list(parse):
    def parse_list(text: str) -> tuple:
        values = tuple(parse(part) for part in text.replace(",", " ").split())
        if not values:
            raise ValueError("empty list")
        return values

    return parse_list


_floats, _ints, _words = _list(_number), _list(int), _list(str)

# checks: (predicate on the parsed value, complaint formatted with the value)
_SCHEMA = (
    lambda v: v == SCHEMA_VERSION,
    f"unsupported schema_version {{}}, this build reads {SCHEMA_VERSION}",
)
_POSITIVE = (lambda v: v > 0.0, "{} must be positive")
_ALL_POSITIVE = (lambda vs: min(vs) > 0.0, "{} must all be positive")
_KINDS = (lambda ks: set(ks) <= set(MOUNT_KINDS), "unknown mount kinds in {}")
_TILT = (lambda v: 0.0 < v < 90.0, "{} out of range (0, 90)")
_ROTATION = (lambda v: 0.0 <= v <= 90.0, "{} out of range [0, 90]")
_FRACTION = (lambda v: 0.0 <= v <= 1.0, "{} out of range [0, 1]")
_MONTHS = (lambda ms: all(1 <= m <= 12 for m in ms), "{} must be calendar months 1-12")

#: Every accepted key: (section, key) -> (target, parser, check or None).
#: The target names the :class:`ScenarioConfig` field the value sets, whose
#: ``__post_init__`` runs the check, or a field of a nested object as ``location.*``,
#: ``panel.*``, ``thresholds.*`` or ``clearances.*``; ``None`` stores nothing and
#: :func:`load_config` runs the check. Absent keys leave the dataclass default.
KEYS = {
    ("meta", "schema_version"): (None, int, _SCHEMA),
    ("location", "latitude"): ("location.latitude", _number, None),
    ("location", "longitude"): ("location.longitude", _number, None),
    ("field", "electrical_m"): ("electrical_field_m", _number, _POSITIVE),
    ("field", "ground_m"): ("ground_field_m", _number, _POSITIVE),
    ("field", "ground_cell_m"): ("ground_cell_m", _number, _POSITIVE),
    ("layout", "kinds"): ("kinds", _words, _KINDS),
    ("layout", "spacings_m"): ("spacings", _floats, _ALL_POSITIVE),
    ("layout", "heights_m"): ("heights", _floats, _ALL_POSITIVE),
    ("layout", "clearance_tilt_m"): ("clearances.tilt", _number, None),
    ("layout", "clearance_vertical_m"): ("clearances.vertical", _number, None),
    ("layout", "clearance_tracking_m"): ("clearances.tracking", _number, None),
    ("layout", "tilt_deg"): ("tilt_deg", _number, _TILT),
    ("layout", "tracker_max_rotation_deg"): ("tracker_max_rotation_deg", _number, _ROTATION),
    ("layout", "bifaciality_vertical"): ("bifaciality_vertical", _number, None),
    ("panel", "stc_efficiency"): ("panel.stc_efficiency", _number, None),
    ("panel", "eta_system"): ("panel.eta_system", _number, None),
    ("panel", "alpha_r"): ("panel.alpha_r", _number, None),
    ("panel", "u0"): ("panel.u0", _number, None),
    ("panel", "u1"): ("panel.u1", _number, None),
    ("panel", "blocks"): ("panel.blocks", int, None),
    ("panel", "wind_shear_exponent"): ("panel.wind_shear_exponent", _number, None),
    ("sky", "albedo"): ("albedo", _number, _FRACTION),
    ("crops", "par_low"): ("thresholds.low", _number, None),
    ("crops", "par_medium"): ("thresholds.medium", _number, None),
    ("crops", "par_high"): ("thresholds.high", _number, None),
    ("crops", "growing_months"): ("growing_months", _ints, _MONTHS),
    ("analysis", "ground_map_months"): ("ground_map_months", _ints, _MONTHS),
    ("analysis", "demand_twh"): (None, _number, None),  # deprecated, ignored
}

_REQUIRED = (("meta", "schema_version"), ("location", "latitude"), ("location", "longitude"))


def load_config(path: str | Path, wind_shear_exponent: float | None = None) -> ScenarioConfig:
    """Parse a scenario INI file; ``wind_shear_exponent`` overrides ``[panel]
    wind_shear_exponent``. :class:`ScenarioConfig` checks the values, so a file
    that loads can be simulated; its ``ValueError`` becomes an :class:`InputError`.
    """
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise InputError(f"malformed config {path}: {exc}") from exc

    sections = {section for section, _ in KEYS}
    for section in parser.sections():
        if section not in sections:
            raise InputError(f"{path}: unknown section [{section}]")
        unknown = sorted(key for key in parser[section] if (section, key) not in KEYS)
        if unknown:
            raise InputError(f"{path}: unknown keys in [{section}]: {unknown}")
    missing = [f"[{s}] {k}" for s, k in _REQUIRED if not parser.has_option(s, k)]
    if missing:
        raise InputError(f"{path}: missing {', '.join(missing)}")
    if parser.has_option("analysis", "demand_twh"):
        log.warning(
            "%s: [analysis] demand_twh is deprecated and ignored; "
            "pass --demand-twh to the potential command",
            path,
        )

    values: defaultdict[str, dict] = defaultdict(dict)
    for (section, key), (target, parse, check) in KEYS.items():
        text = parser.get(section, key, fallback=None)
        if text is None:
            continue
        try:
            value = parse(text)
            if target is None and check is not None and not check[0](value):
                raise ValueError(check[1].format(value))
        except ValueError as exc:
            raise InputError(f"{path}: invalid value for [{section}] {key}: {exc}") from exc
        if target is not None:
            group, _, name = target.rpartition(".")
            values[group][name] = value
    if wind_shear_exponent is not None:
        values["panel"]["wind_shear_exponent"] = wind_shear_exponent

    try:
        location = GeoLocation(**values["location"])
    except ValueError as exc:
        raise InputError(f"{path}: bad location: {exc}") from exc
    try:
        panel, thresholds = PanelModel(**values["panel"]), CropThresholds(**values["thresholds"])
    except ValueError as exc:
        raise InputError(f"{path}: invalid value: {exc}") from exc
    try:
        return ScenarioConfig(
            location=location,
            panel=panel, thresholds=thresholds,
            clearances={**DEFAULT_CLEARANCE, **values["clearances"]},
            **values[""],
        )
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def case_layout(
    config: ScenarioConfig, kind: str, spacing: float, height: float, field_m: float
) -> Layout:
    """The layout of one grid case on a square field of side ``field_m``.

    Fixed rows take ``tilt_deg``, else the optimal tilt of the latitude;
    each kind takes its configured clearance, and only vertical rows are
    bifacial.
    """
    rotation = config.tracker_max_rotation_deg
    return build_layout(
        kind=kind,
        spacing=spacing,
        height=height,
        field=(field_m, field_m),
        clearance=config.clearances[kind],
        tilt=None if config.tilt_deg is None else math.radians(config.tilt_deg),
        latitude_deg=config.location.latitude,
        bifaciality=config.bifaciality_vertical if kind == "vertical" else 0.0,
        max_rotation=None if rotation is None else math.radians(rotation),
    )
