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
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

from .agronomy import GROWING_MONTHS, CropThresholds
from .electrical import PanelModel
from .errors import InputError
from .layout import DEFAULT_CLEARANCE, MOUNT_KINDS, Layout, optimal_tilt
from .solar import GeoLocation

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScenarioConfig:
    location: GeoLocation
    kinds: tuple[str, ...] = MOUNT_KINDS
    spacings: tuple[float, ...] = (6.0,)
    heights: tuple[float, ...] = (2.0,)
    electrical_field_m: float = 100.0
    ground_field_m: float = 50.0
    ground_cell_m: float = 0.5
    clearances: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_CLEARANCE))
    tilt_deg: float | None = None
    tracker_max_rotation_deg: float | None = None
    bifaciality_vertical: float = 0.8
    panel: PanelModel = PanelModel()
    albedo: float = 0.2
    thresholds: CropThresholds = CropThresholds()
    growing_months: tuple[int, ...] = GROWING_MONTHS
    ground_map_months: tuple[int, ...] = (7,)
    demand_twh: float = 2550.0


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
#: The target names the :class:`ScenarioConfig` field the value sets, or a
#: field of a nested object as ``location.*``, ``panel.*``, ``thresholds.*``
#: or ``clearances.*``; ``None`` checks the value without storing it. Keys
#: absent from the file leave their field at the dataclass default.
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
    ("analysis", "demand_twh"): ("demand_twh", _number, None),
}

_REQUIRED = (("meta", "schema_version"), ("location", "latitude"), ("location", "longitude"))


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario INI file.

    Besides the per-key checks, every (kind, spacing, height) case of the
    grid must be a feasible :class:`Layout`, so a configuration that loads
    can be simulated.
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

    values: defaultdict[str, dict] = defaultdict(dict)
    for (section, key), (target, parse, check) in KEYS.items():
        text = parser.get(section, key, fallback=None)
        if text is None:
            continue
        try:
            value = parse(text)
            if check is not None and not check[0](value):
                raise ValueError(check[1].format(value))
        except ValueError as exc:
            raise InputError(f"{path}: invalid value for [{section}] {key}: {exc}") from exc
        if target is not None:
            group, _, name = target.rpartition(".")
            values[group][name] = value

    try:
        location = GeoLocation(**values["location"])
    except ValueError as exc:
        raise InputError(f"{path}: bad location: {exc}") from exc
    try:
        config = ScenarioConfig(
            location=location,
            panel=PanelModel(**values["panel"]),
            thresholds=CropThresholds(**values["thresholds"]),
            clearances={**DEFAULT_CLEARANCE, **values["clearances"]},
            **values[""],
        )
        tilt = optimal_tilt(location.latitude) if config.tilt_deg is None else tilt_radians(config)
        for kind, spacing, height in product(config.kinds, config.spacings, config.heights):
            Layout(
                kind=kind,
                spacing=spacing,
                height=height,
                clearance=config.clearances[kind],
                tilt=tilt,
                bifaciality=config.bifaciality_vertical if kind == "vertical" else 0.0,
            )
    except ValueError as exc:
        raise InputError(f"{path}: invalid value: {exc}") from exc
    return config


def tilt_radians(config: ScenarioConfig) -> float | None:
    return None if config.tilt_deg is None else math.radians(config.tilt_deg)


def max_rotation_radians(config: ScenarioConfig) -> float | None:
    if config.tracker_max_rotation_deg is None:
        return None
    return math.radians(config.tracker_max_rotation_deg)
