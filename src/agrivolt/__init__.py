"""Agrivoltaic field simulation.

Hourly electricity production of fixed-tilt, vertical bifacial, and
single-axis tracking PV layouts; ground-level irradiance maps for crop
suitability; regional deployment potential from land-cover rasters.
"""

from .agronomy import CropThresholds, crop_fraction, par_flux
from .config import ScenarioConfig, load_config
from .electrical import PanelModel, SimulationResult, simulate_year
from .errors import InputError
from .indicators import IndicatorReport, report
from .land import (
    ClassSets,
    LandRaster,
    RegionPotential,
    aggregate_potential,
    eligibility_mask,
    read_ascii_grid,
    region_potential,
)
from .layout import Layout, build_layout, optimal_tilt
from .shading import GroundGrid, ground_irradiance_map
from .sky import SkyYear, sky_year
from .solar import GeoLocation, solar_position
from .weather import Weather, ingest_prices, ingest_weather

__version__ = "0.1.0"

__all__ = [
    "ClassSets",
    "CropThresholds",
    "GeoLocation",
    "GroundGrid",
    "IndicatorReport",
    "InputError",
    "LandRaster",
    "Layout",
    "PanelModel",
    "RegionPotential",
    "ScenarioConfig",
    "SimulationResult",
    "SkyYear",
    "Weather",
    "aggregate_potential",
    "build_layout",
    "crop_fraction",
    "eligibility_mask",
    "ground_irradiance_map",
    "ingest_prices",
    "ingest_weather",
    "load_config",
    "optimal_tilt",
    "par_flux",
    "read_ascii_grid",
    "region_potential",
    "report",
    "simulate_year",
    "sky_year",
    "solar_position",
]
