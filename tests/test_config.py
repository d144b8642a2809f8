"""Scenario INI parsing: defaults, full round-trip, and strict validation."""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from agrivolt.cli import main
from agrivolt.config import (
    KEYS,
    SCHEMA_VERSION,
    ScenarioConfig,
    case_layout,
    load_config,
)
from agrivolt.electrical import PanelModel, simulate_year
from agrivolt.errors import InputError
from agrivolt.indicators import report
from agrivolt.layout import MOUNT_KINDS, optimal_tilt
from agrivolt.scenario import case_grids, case_yields, expand_cases

MINIMAL = """\
[meta]
schema_version = 1

[location]
latitude = 56.49
longitude = 9.57
"""


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestMinimalConfig:
    def test_defaults(self, tmp_path):
        config = load_config(write(tmp_path, MINIMAL))
        assert config.location.latitude == 56.49
        assert config.location.longitude == 9.57
        assert config.kinds == ("tilt", "vertical", "tracking")
        assert config.spacings == (6.0,)
        assert config.heights == (2.0,)
        assert config.electrical_field_m == 100.0
        assert config.ground_field_m == 50.0
        assert config.ground_cell_m == 0.5
        assert config.tilt_deg is None
        assert config.tracker_max_rotation_deg is None
        assert config.bifaciality_vertical == 0.8
        assert config.panel.stc_efficiency == 0.20
        assert config.panel.eta_system == 0.86
        assert config.panel.wind_shear_exponent == 2.0
        assert config.albedo == 0.2
        assert (config.thresholds.low, config.thresholds.medium, config.thresholds.high) == (
            250.0,
            450.0,
            650.0,
        )
        assert config.growing_months == (4, 5, 6, 7, 8, 9)
        assert config.ground_map_months == (7,)
        assert not hasattr(config, "demand_twh")

    def test_schema_version_constant(self):
        assert SCHEMA_VERSION == 1

    def test_helpers_on_defaults(self, tmp_path):
        config = load_config(write(tmp_path, MINIMAL))
        fixed = case_layout(config, "tilt", 6.0, 2.0, 100.0)
        assert fixed.tilt == optimal_tilt(56.49)
        assert fixed.clearance == 2.0 and fixed.bifaciality == 0.0
        assert case_layout(config, "vertical", 6.0, 2.0, 100.0).bifaciality == 0.8
        assert case_layout(config, "tracking", 6.0, 2.0, 100.0).max_rotation is None


FULL = """\
[meta]
schema_version = 1

[location]
latitude = 40.0
longitude = -3.7

[field]
electrical_m = 60
ground_m = 30
ground_cell_m = 1.0

[layout]
kinds = vertical, tracking
spacings_m = 3 4.5 12
heights_m = 1, 3
clearance_tilt_m = 0.9
clearance_vertical_m = 0.3
tilt_deg = 25
tracker_max_rotation_deg = 55
bifaciality_vertical = 0.7

[panel]
stc_efficiency = 0.21
eta_system = 0.9
alpha_r = 0.16
u0 = 25.0
u1 = 6.0
blocks = 4
wind_shear_exponent = 0.2

[sky]
albedo = 0.25

[crops]
par_low = 200
par_medium = 400
par_high = 600
growing_months = 5 6 7 8

[analysis]
ground_map_months = 6, 7
demand_twh = 300
"""


class TestFullConfig:
    def test_every_field_parsed(self, tmp_path, caplog):
        config = load_config(write(tmp_path, FULL))
        assert config.location.latitude == 40.0
        assert config.kinds == ("vertical", "tracking")
        assert config.spacings == (3.0, 4.5, 12.0)
        assert config.heights == (1.0, 3.0)
        assert config.electrical_field_m == 60.0
        assert config.ground_field_m == 30.0
        assert config.ground_cell_m == 1.0
        assert config.clearances["tilt"] == 0.9
        assert config.clearances["vertical"] == 0.3
        assert config.tilt_deg == 25.0
        assert config.tracker_max_rotation_deg == 55.0
        assert config.bifaciality_vertical == 0.7
        assert config.panel.stc_efficiency == 0.21
        assert config.panel.blocks == 4
        assert config.panel.wind_shear_exponent == 0.2
        assert config.albedo == 0.25
        assert config.thresholds.medium == 400.0
        assert config.growing_months == (5, 6, 7, 8)
        assert config.ground_map_months == (6, 7)
        # accepted for old files, but ignored with a warning
        assert not hasattr(config, "demand_twh")
        assert "demand_twh is deprecated and ignored" in caplog.text

    def test_angle_helpers(self, tmp_path):
        config = load_config(write(tmp_path, FULL))
        fixed = case_layout(config, "tilt", 4.5, 1.0, 50.0)
        assert fixed.tilt == pytest.approx(math.radians(25.0), rel=1e-12)
        assert fixed.field == (50.0, 50.0) and fixed.clearance == 0.9
        wall = case_layout(config, "vertical", 4.5, 1.0, 50.0)
        assert (wall.clearance, wall.bifaciality) == (0.3, 0.7)
        tracker = case_layout(config, "tracking", 4.5, 1.0, 50.0)
        assert tracker.max_rotation == pytest.approx(math.radians(55.0), rel=1e-12)

    def test_inline_comments_stripped(self, tmp_path):
        text = MINIMAL + "\n[sky]\nalbedo = 0.3  # fresh grass\n"
        config = load_config(write(tmp_path, text))
        assert config.albedo == 0.3


class TestValidation:
    def test_unknown_section(self, tmp_path):
        with pytest.raises(InputError, match=r"unknown section \[panels\]"):
            load_config(write(tmp_path, MINIMAL + "\n[panels]\nfoo = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(InputError, match="unknown keys") as err:
            load_config(write(tmp_path, MINIMAL + "\n[sky]\nalbedo = 0.2\nhaze = 3\n"))
        assert "haze" in str(err.value)

    def test_missing_schema_version(self, tmp_path):
        text = "[location]\nlatitude = 56\nlongitude = 9\n"
        with pytest.raises(InputError, match="schema_version"):
            load_config(write(tmp_path, text))

    def test_wrong_schema_version(self, tmp_path):
        text = MINIMAL.replace("schema_version = 1", "schema_version = 2")
        with pytest.raises(InputError, match="unsupported schema_version 2"):
            load_config(write(tmp_path, text))

    def test_missing_location(self, tmp_path):
        with pytest.raises(InputError, match="location"):
            load_config(write(tmp_path, "[meta]\nschema_version = 1\n"))

    def test_partial_location(self, tmp_path):
        text = "[meta]\nschema_version = 1\n\n[location]\nlatitude = 56\n"
        with pytest.raises(InputError, match="longitude"):
            load_config(write(tmp_path, text))

    def test_latitude_out_of_range(self, tmp_path):
        text = MINIMAL.replace("latitude = 56.49", "latitude = 95")
        with pytest.raises(InputError, match="bad location"):
            load_config(write(tmp_path, text))

    def test_unknown_mount_kind(self, tmp_path):
        text = MINIMAL + "\n[layout]\nkinds = tilt, floating\n"
        with pytest.raises(InputError, match="floating"):
            load_config(write(tmp_path, text))

    def test_bad_month(self, tmp_path):
        text = MINIMAL + "\n[crops]\ngrowing_months = 4 13\n"
        with pytest.raises(InputError, match="1-12"):
            load_config(write(tmp_path, text))

    def test_negative_spacing(self, tmp_path):
        text = MINIMAL + "\n[layout]\nspacings_m = 6 -3\n"
        with pytest.raises(InputError, match="positive"):
            load_config(write(tmp_path, text))

    def test_albedo_out_of_range(self, tmp_path):
        text = MINIMAL + "\n[sky]\nalbedo = 1.5\n"
        with pytest.raises(InputError, match="albedo"):
            load_config(write(tmp_path, text))

    def test_tilt_out_of_range(self, tmp_path):
        for key, value in (
            ("tilt_deg", "90"),
            ("tracker_max_rotation_deg", "-10"),
            ("tracker_max_rotation_deg", "90.5"),
        ):
            text = MINIMAL + f"\n[layout]\n{key} = {value}\n"
            with pytest.raises(InputError, match=key):
                load_config(write(tmp_path, text))

    def test_blocks_out_of_range(self, tmp_path):
        """The shading model passes over the lit hours once per block, so a
        count past the maximum is refused before any run, by ``validate`` too."""
        for value in ("0", "101", "1000000000"):
            path = write(tmp_path, MINIMAL + f"\n[panel]\nblocks = {value}\n")
            with pytest.raises(InputError, match="blocks must be between 1 and 100"):
                load_config(path)
            assert main(["validate", "--config", str(path)]) == 2
        path = write(tmp_path, MINIMAL + "\n[panel]\nblocks = 100\n")
        assert load_config(path).panel.blocks == 100

    def test_field_size_bounds(self, tmp_path, sky):
        """Ground maps hold at most 200 rows and 500 cells a side; the electrical
        field at most an int64 of rows, rows at most 1e154 m long or tall, and
        a side whose square, the field area, is not 0.0. The limits themselves
        load, one step past them does not, and the error names its keys. The
        smallest side that loads simulates to finite indicators."""
        rows = r"\[field\] {} / \[layout\] spacings_m: over {} rows"
        underflow = r"\[field\] electrical_m squared, the field area, underflows to 0"
        smallest = 1.5717277847026288e-162  # squares to 5e-324
        for field, refused in (
            (f"electrical_m = {smallest!r}", None),
            (f"electrical_m = {math.nextafter(smallest, 0.0)!r}", underflow),
            ("electrical_m = 1e-170", underflow),
            ("electrical_m = 1200", None),  # 201 rows at 6 m
            ("electrical_m = 5.5e19", None),  # 9.17e18 rows
            ("electrical_m = 5.6e19", rows.format("electrical_m", 2**63 - 1)),
            ("electrical_m = 1e154\n[layout]\nspacings_m = 1e150", None),
            ("electrical_m = 1.35e154\n[layout]\nspacings_m = 1e150",
             r"\[field\] electrical_m over 1e\+154 m"),
            ("ground_m = 1\n[layout]\nkinds = vertical\nheights_m = 1e154", None),
            ("ground_m = 1\n[layout]\nkinds = vertical\nheights_m = 1.35e154",
             r"\[layout\] heights_m over 1e\+154 m"),
            ("ground_m = 1194\nground_cell_m = 2.388", None),  # 200 rows at 6 m
            ("ground_m = 1200\nground_cell_m = 3", rows.format("ground_m", 200)),
            ("ground_m = 250\nground_cell_m = 0.5", None),
            ("ground_m = 250.5\nground_cell_m = 0.5",
             r"\[field\] ground_m / ground_cell_m: over 500 cells"),
            ("ground_m = 1\nground_cell_m = 0.0019",
             r"\[field\] ground_m / ground_cell_m: over 500 cells"),
        ):
            path = write(tmp_path, MINIMAL + f"\n[field]\n{field}\n")
            if refused is None:
                load_config(path)
                continue
            with pytest.raises(InputError, match=refused):
                load_config(path)
        config = load_config(write(tmp_path, MINIMAL + f"\n[field]\nelectrical_m = {smallest!r}\n"))
        for spec in expand_cases(config):
            layout = case_layout(config, spec.kind, spec.spacing, spec.height, smallest)
            result = simulate_year(layout, sky, config.panel, config.albedo)
            indicators = report(result, spec.scenario, np.ones(len(sky)))
            assert all(math.isfinite(v) for v in dataclasses.astuple(indicators)[4:])

    def test_largest_electrical_fields_simulate(self, tmp_path, sky):
        """At its bounds the electrical field still runs and its rows shade one
        another finitely: 9.17e18 rows at 6 m, 1e154 m long rows tall enough to
        shade at their spacing, and 1e154 m tall vertical rows."""
        for extra in (
            "[field]\nelectrical_m = 5.5e19",
            "[field]\nelectrical_m = 1e154\n[layout]\nspacings_m = 2e140\nheights_m = 1e140",
            "[layout]\nkinds = vertical\nheights_m = 1e154",
        ):
            config = load_config(write(tmp_path, MINIMAL + extra + "\n"))
            for kind in config.kinds:
                spacing, height = config.spacings[0], config.heights[0]
                layout = case_layout(config, kind, spacing, height, config.electrical_field_m)
                result = simulate_year(layout, sky, config.panel, config.albedo)
                assert np.isfinite(result.f_es_front).all()
                assert (result.f_es_front > 0.0).any()

    def test_zero_ground_cell(self, tmp_path):
        for section, key in (("field", "ground_cell_m"), ("panel", "alpha_r")):
            text = MINIMAL + f"\n[{section}]\n{key} = 0\n"
            with pytest.raises(InputError, match=key):
                load_config(write(tmp_path, text))

    def test_non_numeric_value(self, tmp_path):
        texts = [MINIMAL.replace("schema_version = 1", "schema_version = one")]
        texts += [
            MINIMAL + f"\n{snippet}\n"
            for snippet in (
                "[sky]\nalbedo = greenish",
                "[layout]\nclearance_tilt_m = high",
                "[panel]\nu1 = nan",
                "[layout]\nspacings_m = 6 nan",
                "[field]\nelectrical_m = inf",
                "[crops]\npar_high = -inf",
            )
        ]
        for text in texts:
            with pytest.raises(InputError, match="invalid value"):
                load_config(write(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_config(tmp_path / "absent.ini")
        undecodable = tmp_path / "latin1.ini"
        undecodable.write_bytes(MINIMAL.encode() + b"# \xff\n")
        with pytest.raises(InputError, match="cannot read"):
            load_config(undecodable)

    def test_malformed_ini(self, tmp_path):
        with pytest.raises(InputError, match="malformed"):
            load_config(write(tmp_path, "not an ini file at all\n"))

    def test_programmatic_defaults_match_parsed_defaults(self, tmp_path, foulum):
        """Constructing the config in code and parsing the minimal file agree
        on every default."""
        parsed = load_config(write(tmp_path, MINIMAL))
        coded = ScenarioConfig(location=foulum)
        assert parsed == coded


class TestKeyTable:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(key=st.sampled_from(sorted(KEYS)), value=st.text(max_size=40))
    def test_any_value_is_valid_or_input_error(self, tmp_path, key, value):
        """Whatever text a key holds, loading fails only with InputError and
        ``validate`` exits 0 or 2, never 3."""
        entries = {
            ("meta", "schema_version"): "1",
            ("location", "latitude"): "56.49",
            ("location", "longitude"): "9.57",
            key: value,
        }
        sections: dict[str, list[str]] = {}
        for (section, name), text in entries.items():
            sections.setdefault(section, []).append(f"{name} = {text}")
        path = write(
            tmp_path,
            "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items()),
        )
        try:
            load_config(path)
        except InputError:
            pass
        assert main(["validate", "--config", str(path)]) in (0, 2)

    def test_readme_documents_every_key(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Scenario configuration", 1)[1].split("\n## ", 1)[0]
        for section, key in KEYS:
            row = rf"^\| `\[{section}\] [^|]*\b{key}\b"
            assert re.search(row, table, re.MULTILINE), f"[{section}] {key} missing from README"


#: Each config that the tests refuse after parsing: its INI text, and the same
#: values as :class:`ScenarioConfig` fields.
REFUSED_AFTER_PARSING = [
    ("[layout]\nkinds = tilt, floating", {"kinds": ("tilt", "floating")}),
    ("[layout]\nkinds = floating", {"kinds": ("floating",)}),
    ("[crops]\ngrowing_months = 4 13", {"growing_months": (4, 13)}),
    ("[crops]\ngrowing_months = 13", {"growing_months": (13,)}),
    ("[analysis]\nground_map_months = 0", {"ground_map_months": (0,)}),
    ("[layout]\nspacings_m = 6 -3", {"spacings": (6.0, -3.0)}),
    ("[sky]\nalbedo = 1.5", {"albedo": 1.5}),
    ("[layout]\ntilt_deg = 90", {"tilt_deg": 90.0}),
    ("[layout]\ntracker_max_rotation_deg = -10", {"tracker_max_rotation_deg": -10.0}),
    ("[layout]\ntracker_max_rotation_deg = 90.5", {"tracker_max_rotation_deg": 90.5}),
    ("[layout]\nkinds = tracking\nspacings_m = 2\nheights_m = 3",
     {"kinds": ("tracking",), "spacings": (2.0,), "heights": (3.0,)}),
    ("[layout]\nkinds = tilt\nspacings_m = 0.5\nheights_m = 3",
     {"kinds": ("tilt",), "spacings": (0.5,), "heights": (3.0,)}),
    ("[panel]\nwind_shear_exponent = -1000",
     {"panel": PanelModel(wind_shear_exponent=-1000.0)}),
    ("[field]\nground_cell_m = 0", {"ground_cell_m": 0.0}),
    ("[field]\nground_cell_m = -0.5", {"ground_cell_m": -0.5}),
    ("[field]\nground_cell_m = 1e-300", {"ground_cell_m": 1e-300}),
    ("[field]\nground_m = 1e300", {"ground_field_m": 1e300}),
    ("[field]\nelectrical_m = 1e20", {"electrical_field_m": 1e20}),
    ("[field]\nelectrical_m = 1e300", {"electrical_field_m": 1e300}),
    ("[field]\nelectrical_m = 5.6e19", {"electrical_field_m": 5.6e19}),
    ("[field]\nelectrical_m = 1.35e154\n[layout]\nspacings_m = 1e150",
     {"electrical_field_m": 1.35e154, "spacings": (1e150,)}),
    ("[field]\nground_m = 1\n[layout]\nkinds = vertical\nheights_m = 1.35e154",
     {"ground_field_m": 1.0, "kinds": ("vertical",), "heights": (1.35e154,)}),
    ("[field]\nground_m = 1200\nground_cell_m = 3",
     {"ground_field_m": 1200.0, "ground_cell_m": 3.0}),
    ("[field]\nground_m = 250.5\nground_cell_m = 0.5", {"ground_field_m": 250.5}),
    ("[field]\nground_m = 1\nground_cell_m = 0.0019",
     {"ground_field_m": 1.0, "ground_cell_m": 0.0019}),
    ("[layout]\nkinds =", {"kinds": ()}),
    ("[layout]\nspacings_m =", {"spacings": ()}),
    ("[layout]\nheights_m =", {"heights": ()}),
    ("[crops]\ngrowing_months =", {"growing_months": ()}),
    ("[analysis]\nground_map_months =", {"ground_map_months": ()}),
    ("[field]\nelectrical_m = 1e-170", {"electrical_field_m": 1e-170}),
]


class TestLibraryRefusesWhatTheCliRefuses:
    @pytest.mark.parametrize("snippet, fields", REFUSED_AFTER_PARSING)
    def test_same_message(self, tmp_path, foulum, snippet, fields):
        """Building the refused config in code raises ``ValueError`` with the
        text that ``load_config`` gives after the file's path."""
        path = write(tmp_path, MINIMAL + f"\n{snippet}\n")
        with pytest.raises(InputError) as cli:
            load_config(path)
        with pytest.raises(ValueError) as library:
            ScenarioConfig(location=foulum, **fields)
        assert not isinstance(library.value, InputError)
        assert str(cli.value) == f"{path}: {library.value}"

    def test_replace_and_missing_clearance(self, foulum):
        valid = ScenarioConfig(location=foulum)
        cells = r"^invalid value: \[field\] ground_m / ground_cell_m: over 500 cells$"
        with pytest.raises(ValueError, match=cells):
            dataclasses.replace(valid, ground_cell_m=1e-300)
        clearance = r"^invalid value: no \[layout\] clearance_vertical_m$"
        with pytest.raises(ValueError, match=clearance):
            ScenarioConfig(location=foulum, clearances={"tilt": 2.0, "tracking": 1.0})
        ScenarioConfig(location=foulum, kinds=("tilt",), clearances={"tilt": 2.0})


def _edges(ordinary: float):
    """Zero, negative, the smallest and largest magnitudes, and an ordinary value."""
    return st.sampled_from([0.0, -1.0, 1e-300, 1e300, ordinary])


MONTHS = st.lists(st.integers(-1, 14), min_size=1, max_size=3).map(tuple)

#: The checked fields and their draws; the rest keep the ordinary values of
#: ``ORDINARY``, whose ground map has 2 x 2 cells.
EDGE_FIELDS = {
    "kinds": st.lists(st.sampled_from([*MOUNT_KINDS, "floating"]), min_size=1, max_size=3,
                      unique=True).map(tuple),
    "spacings": _edges(6.0).map(lambda v: (v,)),
    "heights": _edges(2.0).map(lambda v: (v,)),
    "electrical_field_m": _edges(30.0),
    "ground_field_m": _edges(2.0),
    "ground_cell_m": _edges(1.0),
    "tilt_deg": st.one_of(st.none(), _edges(30.0), st.just(90.0)),
    "tracker_max_rotation_deg": st.one_of(st.none(), _edges(55.0), st.just(90.0)),
    "albedo": _edges(0.2),
    "growing_months": MONTHS,
    "ground_map_months": MONTHS,
}
ORDINARY = {"electrical_field_m": 30.0, "ground_field_m": 2.0, "ground_cell_m": 1.0}


class TestEveryConstructedConfigRuns:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_constructs_and_runs_finitely_or_raises(self, foulum, sky, data):
        """A config built in code with up to three checked fields at edge values
        either raises ``ValueError`` on construction or runs every case of its
        grid to finite outputs."""
        edited = data.draw(st.sets(st.sampled_from(sorted(EDGE_FIELDS)), max_size=3))
        fields = {**ORDINARY, **{name: data.draw(EDGE_FIELDS[name], label=name)
                                 for name in sorted(edited)}}
        try:
            config = ScenarioConfig(location=foulum, **fields)
        except ValueError as exc:
            assert not isinstance(exc, InputError)
            return
        event("constructed")
        months = sorted({*config.growing_months, *config.ground_map_months})
        monthly = {m: sky.take(sky.month == m) for m in months}
        for spec, simulation, _ in case_yields(config, sky):
            for column in (simulation.p_w, simulation.p_noshadow_w, simulation.t_cell_c,
                           simulation.f_es_front, simulation.f_es_rear, simulation.g_eff_wm2):
                assert np.isfinite(column).all()
            assert math.isfinite(simulation.capacity_w)
            for grid in case_grids(config, spec, monthly).values():
                assert grid.blocked_direct.size <= 4
                assert np.isfinite(grid.blocked_direct).all()
                assert np.isfinite(grid.blocked_circumsolar).all()
                assert math.isfinite(grid.unshaded_total)
