"""Shared fixtures: synthetic inputs and cached reference simulations.

Heavy artifacts (the weather year, annual simulations, July ground maps,
the decision-grid sweep) are session-scoped so every test module reads
the same objects without recomputing them.
"""

from __future__ import annotations

import pytest

import fixturegen
from agrivolt.agronomy import CropThresholds
from agrivolt.config import ScenarioConfig
from agrivolt.electrical import simulate_year
from agrivolt.indicators import report
from agrivolt.layout import MOUNT_KINDS, build_layout
from agrivolt.scenario import run_cases
from agrivolt.shading import ground_irradiance_map
from agrivolt.sky import sky_year

REFERENCE_SPACING = 6.0
REFERENCE_HEIGHT = 2.0
GROWING_MONTHS = tuple(range(4, 10))

#: Crop-demand thresholds used by the decision-map tests. The high class is
#: placed in the gap between the shaded stripe band and the open-ground band
#: of the moderate-density layouts, so the fraction resolves the geometric
#: stripe share instead of saturating at 0 or 1.
DECISION_THRESHOLDS = CropThresholds(low=250.0, medium=310.0, high=355.0)


@pytest.fixture(scope="session")
def foulum():
    return fixturegen.FOULUM


@pytest.fixture(scope="session")
def weather_rows():
    """The generated weather year, one row per hour."""
    return fixturegen.synthetic_weather()


@pytest.fixture(scope="session")
def weather(weather_rows):
    """The generated weather year as the columns the program reads."""
    return fixturegen.weather_columns(weather_rows)


@pytest.fixture(scope="session")
def sky(foulum, weather):
    """The sky hours of the weather year at Foulum."""
    return sky_year(foulum, weather)


@pytest.fixture(scope="session")
def times(weather_rows):
    """The hours of the weather year as aware datetimes, as the generators take them."""
    return [s.time for s in weather_rows]


@pytest.fixture(scope="session")
def prices(times):
    return fixturegen.synthetic_prices(times)


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory, weather_rows, times, prices):
    """Directory with the weather and price fixtures written as CSV."""
    directory = tmp_path_factory.mktemp("inputs")
    fixturegen.write_weather_csv(directory / "weather.csv", weather_rows)
    fixturegen.write_price_csv(directory / "prices.csv", times, prices)
    return directory


def reference_layout(kind: str, field_m: float, spacing: float = REFERENCE_SPACING,
                     height: float = REFERENCE_HEIGHT):
    return build_layout(
        kind,
        spacing,
        height,
        field=(field_m, field_m),
        latitude_deg=fixturegen.FOULUM.latitude,
    )


@pytest.fixture(scope="session")
def annual_sims(sky):
    """Reference-year simulation per mount kind (s=6, h=2, 100 m field)."""
    return {
        kind: simulate_year(reference_layout(kind, 100.0), sky)
        for kind in MOUNT_KINDS
    }


@pytest.fixture(scope="session")
def annual_reports(annual_sims, prices):
    return {
        kind: report(sim, f"{kind}_reference", prices)
        for kind, sim in annual_sims.items()
    }


@pytest.fixture(scope="session")
def july_maps(sky):
    """July ground irradiance maps per kind (s=6, h=2, 50 m field, 0.5 m)."""
    july = sky.take(sky.month == 7)
    return {
        kind: ground_irradiance_map(reference_layout(kind, 50.0), july, cell_size=0.5)
        for kind in MOUNT_KINDS
    }


@pytest.fixture(scope="session")
def decision_grid(weather, foulum):
    """The full decision sweep: kinds x spacings {3,4.5,6,12} x heights {1,2}."""
    config = ScenarioConfig(
        location=foulum,
        kinds=MOUNT_KINDS,
        spacings=(3.0, 4.5, 6.0, 12.0),
        heights=(1.0, 2.0),
        thresholds=DECISION_THRESHOLDS,
        growing_months=GROWING_MONTHS,
    )
    results = run_cases(config, weather, GROWING_MONTHS, threads=1)
    return config, results


CLI_CONFIG = """\
[meta]
schema_version = 1

[location]
latitude = 56.49
longitude = 9.57

[field]
electrical_m = 30
ground_m = 20
ground_cell_m = 1.0

[layout]
kinds = tilt, vertical
spacings_m = 6
heights_m = 2

[crops]
growing_months = 6 7

[analysis]
ground_map_months = 7
"""


@pytest.fixture(scope="session")
def cli_config(tmp_path_factory):
    """A small two-case scenario file for end-to-end command runs."""
    path = tmp_path_factory.mktemp("cli") / "scenario.ini"
    path.write_text(CLI_CONFIG)
    return path


@pytest.fixture(scope="session")
def cli_runs(cli_config, data_dir, tmp_path_factory):
    """Three full `simulate` command runs on the small scenario.

    `first` and `rerun` are identical invocations; `threads2` adds worker
    processes. Used both for artifact checks and for the determinism
    guarantees (byte-identical artifacts across reruns and worker counts).
    """
    from agrivolt.cli import main

    base = tmp_path_factory.mktemp("cli_out")
    runs = {}
    for name, extra in (("first", []), ("rerun", []), ("threads2", ["--threads", "2"])):
        out = base / name
        code = main(
            [
                "simulate",
                "--config", str(cli_config),
                "--weather", str(data_dir / "weather.csv"),
                "--prices", str(data_dir / "prices.csv"),
                "--out", str(out),
                *extra,
            ]
        )
        runs[name] = (code, out)
    return runs
