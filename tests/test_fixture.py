"""Guard rails for the synthetic weather and price year.

Many numeric anchors elsewhere in the suite assume this exact fixture, so
any accidental change to its generator must fail loudly here first.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import fixturegen

#: SHA-256 of the CSV files the generator writes at its default seeds. The
#: anchors below are approximate, so only these notice one changed byte.
GENERATED_SHA256 = {
    "weather.csv": "a34cf82e9b12d22ba0463b511cd1e96d10e58c4dfefe520a7c8604cfcb4436da",
    "prices.csv": "6ee4b1ae249f51a0c319addbdc229c0073bfd5cdcdeb164a865e73fb84de39e7",
}


def test_generated_files_byte_for_byte(data_dir):
    digests = {
        name: hashlib.sha256((data_dir / name).read_bytes()).hexdigest()
        for name in GENERATED_SHA256
    }
    assert digests == GENERATED_SHA256


class TestSyntheticWeather:
    def test_full_hourly_year(self, weather_rows, times):
        assert len(weather_rows) == 8760
        deltas = {
            (b - a).total_seconds() for a, b in zip(times, times[1:])
        }
        assert deltas == {3600.0}
        assert times[0].year == 2015

    def test_deterministic(self, weather_rows):
        again = fixturegen.synthetic_weather()
        assert len(again) == len(weather_rows)
        for a, b in zip(weather_rows[::731], again[::731]):
            assert (a.time, a.bhi, a.dhi, a.ghi, a.temp_air, a.wind10) == (
                b.time,
                b.bhi,
                b.dhi,
                b.ghi,
                b.temp_air,
                b.wind10,
            )
        total = sum(s.ghi for s in again)
        assert total == sum(s.ghi for s in weather_rows)

    def test_annual_global_irradiation(self, weather_rows):
        """The year integrates to about 810 kWh/m2, a plausible Danish total;
        numeric anchors in other modules are frozen against this value."""
        annual = sum(s.ghi for s in weather_rows) / 1000.0
        assert annual == pytest.approx(810.3, abs=0.5)

    def test_diffuse_share(self, weather_rows):
        diffuse = sum(s.dhi for s in weather_rows)
        total = sum(s.ghi for s in weather_rows)
        assert diffuse / total == pytest.approx(0.647, abs=0.01)

    def test_component_closure(self, weather_rows):
        # components are rounded to mW/m2 independently, so allow that much
        for s in weather_rows[::97]:
            assert s.ghi == pytest.approx(s.bhi + s.dhi, abs=2e-3)

    def test_non_negative_and_bounded(self, weather_rows):
        for s in weather_rows:
            assert s.bhi >= 0.0 and s.dhi >= 0.0 and s.ghi >= 0.0
            assert s.ghi < 1100.0
            assert s.wind10 >= 0.0
            assert -30.0 < s.temp_air < 45.0

    def test_night_is_dark(self, weather_rows):
        for s in weather_rows:
            if s.time.month == 1 and s.time.hour in (0, 1, 2, 22, 23):
                assert s.ghi == 0.0

    def test_summer_outshines_winter(self, weather_rows):
        june = sum(s.ghi for s in weather_rows if s.time.month == 6)
        december = sum(s.ghi for s in weather_rows if s.time.month == 12)
        assert june > 5.0 * december


class TestSyntheticPrices:
    def test_aligned_and_deterministic(self, times, prices):
        assert len(prices) == 8760
        again = fixturegen.synthetic_prices(times)
        np.testing.assert_array_equal(prices, again)

    def test_midday_valley(self, times, prices):
        """Mean price in the 13:00 local hour sits below the 08:00 morning
        peak - the pattern that makes vertical east-west production more
        valuable per kWh than midday-heavy tracking."""
        shift = fixturegen.FOULUM.longitude / 15.0
        by_local_hour: dict[int, list[float]] = {}
        for t, p in zip(times, prices):
            local = int((t.hour + shift) % 24)
            by_local_hour.setdefault(local, []).append(p)
        mean_13 = np.mean(by_local_hour[13])
        mean_08 = np.mean(by_local_hour[8])
        mean_19 = np.mean(by_local_hour[19])
        assert mean_13 < mean_08
        assert mean_13 < mean_19
        assert mean_08 - mean_13 > 10.0

    def test_winter_premium(self, times, prices):
        january = [p for t, p in zip(times, prices) if t.month == 1]
        july = [p for t, p in zip(times, prices) if t.month == 7]
        assert np.mean(january) > np.mean(july)

    def test_positive_mean(self, prices):
        assert float(np.mean(prices)) > 0.0
