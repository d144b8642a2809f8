"""Agrivoltaic field simulation.

Hourly electricity production of fixed-tilt, vertical bifacial, and
single-axis tracking PV layouts; ground-level irradiance maps for crop
suitability; regional deployment potential from land-cover rasters.

The exported names are imported from their modules on first use (PEP 562),
so that importing one module, such as ``agrivolt.land``, loads only what
it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Module of each exported name.
_MODULES = {
    "CropThresholds": "agronomy",
    "crop_fraction": "agronomy",
    "par_flux": "agronomy",
    "ScenarioConfig": "config",
    "load_config": "config",
    "PanelModel": "electrical",
    "SimulationResult": "electrical",
    "simulate_year": "electrical",
    "InputError": "errors",
    "IndicatorReport": "indicators",
    "report": "indicators",
    "ClassSets": "land",
    "LandRaster": "land",
    "RegionPotential": "land",
    "aggregate_potential": "land",
    "eligibility_mask": "land",
    "read_ascii_grid": "land",
    "region_potential": "land",
    "Layout": "layout",
    "build_layout": "layout",
    "optimal_tilt": "layout",
    "GroundGrid": "shading",
    "ground_irradiance_map": "shading",
    "SkyYear": "sky",
    "sky_year": "sky",
    "GeoLocation": "solar",
    "solar_position": "solar",
    "Weather": "weather",
    "ingest_prices": "weather",
    "ingest_weather": "weather",
}

__all__ = sorted(_MODULES)


def __getattr__(name: str) -> object:
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
