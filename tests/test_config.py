"""Scenario INI parsing: defaults, full round-trip, and strict validation."""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agrivolt.cli import main
from agrivolt.config import (
    KEYS,
    SCHEMA_VERSION,
    ScenarioConfig,
    load_config,
    max_rotation_radians,
    tilt_radians,
)
from agrivolt.errors import InputError

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
        assert config.demand_twh == 2550.0

    def test_schema_version_constant(self):
        assert SCHEMA_VERSION == 1

    def test_helpers_on_defaults(self, tmp_path):
        config = load_config(write(tmp_path, MINIMAL))
        assert tilt_radians(config) is None
        assert max_rotation_radians(config) is None


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
    def test_every_field_parsed(self, tmp_path):
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
        assert config.demand_twh == 300.0

    def test_angle_helpers(self, tmp_path):
        config = load_config(write(tmp_path, FULL))
        assert tilt_radians(config) == pytest.approx(math.radians(25.0), rel=1e-12)
        assert max_rotation_radians(config) == pytest.approx(
            math.radians(55.0), rel=1e-12
        )

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
