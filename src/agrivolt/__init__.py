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
from .shading import GroundGrid, RowShading, ground_irradiance_map, row_shading
from .sky import PlaneIrradiance, SkyYear, plane_irradiance, sky_year
from .solar import (
    GeoLocation,
    PlaneOrientation,
    SolarPosition,
    incidence_angle,
    solar_position,
    tracking_orientation,
)
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
    "PlaneIrradiance",
    "PlaneOrientation",
    "RegionPotential",
    "RowShading",
    "ScenarioConfig",
    "SimulationResult",
    "SkyYear",
    "SolarPosition",
    "Weather",
    "aggregate_potential",
    "build_layout",
    "crop_fraction",
    "eligibility_mask",
    "ground_irradiance_map",
    "incidence_angle",
    "ingest_prices",
    "ingest_weather",
    "load_config",
    "optimal_tilt",
    "par_flux",
    "plane_irradiance",
    "read_ascii_grid",
    "region_potential",
    "report",
    "row_shading",
    "simulate_year",
    "sky_year",
    "solar_position",
    "tracking_orientation",
]
