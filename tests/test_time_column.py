"""The time column against the per-``datetime`` forms it replaced.

Timestamps travel as one UTC ``datetime64[us]`` array from the weather file
to the writers. Every value derived from it (days since J2000 through the
sun position, day of year and hour through the distance correction, month,
message and CSV text) and
every check over it (hourly steps, the full year, the price timeline) must
give what the per-``datetime`` forms of ``oracles`` give, bit for bit and
message for message.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fixturegen
import oracles
from agrivolt import outputs, solar
from agrivolt.sky import check_full_year, sky_year
from agrivolt.weather import Weather, ingest_prices, ingest_weather

HOUR = timedelta(hours=1)
IST = timezone(timedelta(hours=5, minutes=30))

#: Naive datetimes read as UTC, microseconds included.
STAMPS = st.datetimes(datetime(1950, 1, 1), datetime(2100, 12, 31, 23, 59, 59, 999999))


def utc(stamps: list[datetime]) -> list[datetime]:
    return [t.replace(tzinfo=timezone.utc) for t in stamps]


def raised(check, *args) -> str | None:
    """The type and message of the ``ValueError`` (``InputError`` included) a
    check raises, else None."""
    try:
        check(*args)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestDerivedValues:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(STAMPS, min_size=1, max_size=40))
    @example([datetime(2016, 2, 29, 23, 59, 59, 999999), datetime(2000, 2, 29, 12)])
    @example([datetime(1950, 1, 1), datetime(2100, 12, 31, 23, 59, 59, 999999)])
    @example([datetime(1969, 12, 31, 23, 59, 59, 500000), datetime(1970, 1, 1)])
    def test_bit_for_bit_with_per_datetime_forms(self, naive):
        aware = utc(naive)
        stamps = fixturegen.utc_stamps(aware)
        assert stamps.dtype == solar.TIME_DTYPE
        # days since J2000 feed every term of the sun position
        got = solar.solar_position(fixturegen.FOULUM, stamps)
        want = [oracles.solar_position(fixturegen.FOULUM, t) for t in aware]
        assert (bits(got.altitude) == bits([w.altitude for w in want])).all()
        assert (bits(got.azimuth) == bits([w.azimuth for w in want])).all()
        days = (stamps - np.datetime64("2000-01-01T12:00", "us")) / np.timedelta64(1, "s") / 86400.0
        assert (bits(days) == bits([oracles._days_since_j2000(t) for t in aware])).all()
        # a function of the day of year and the hour of the day alone
        want = [oracles.eccentricity_correction(t) for t in aware]
        assert (bits(solar.eccentricity_correction(stamps)) == bits(want)).all()
        zeros = np.zeros(len(stamps))
        sky = sky_year(fixturegen.FOULUM, Weather(stamps, zeros, zeros, zeros, zeros, zeros))
        assert sky.month.tolist() == [t.month for t in aware]
        assert solar.stamp_text(stamps).tolist() == [t.isoformat() for t in aware]
        assert outputs.time_column(stamps) == [t.strftime("%Y-%m-%dT%H:%M:%SZ") for t in aware]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.datetimes(datetime(1900, 1, 1), datetime(2200, 1, 1)),
            min_size=1,
            max_size=10,
        )
    )
    @example([datetime(2015, 6, 1), datetime(1949, 12, 31, 23, 59, 59, 999999)])
    @example([datetime(2101, 1, 1, 0, 0, 0, 1)])
    def test_range_message_as_per_datetime(self, naive):
        """The first timestamp outside 1950-2100 is named as the per-hour sun did."""
        aware = utc(naive)
        stamps = fixturegen.utc_stamps(aware)

        def per_hour(times):
            for t in times:
                oracles.solar_position(fixturegen.FOULUM, t)

        want = raised(per_hour, aware)
        assert raised(solar.solar_position, fixturegen.FOULUM, stamps) == want
        # the distance correction checks no years, as its per-datetime form did not
        want = [oracles.eccentricity_correction(t) for t in aware]
        assert (bits(solar.eccentricity_correction(stamps)) == bits(want)).all()


def timeline(data, start: datetime, n: int) -> list[datetime]:
    """``n`` hourly UTC stamps from ``start`` with a few drawn gaps,
    duplicates, swaps and sub-hour shifts."""
    times = [start + i * HOUR for i in range(n)]
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(times) - 1))
        edit = data.draw(st.sampled_from(["gap", "duplicate", "swap", "shift"]))
        if edit == "gap":
            times[i:] = [t + data.draw(st.integers(1, 30)) * HOUR for t in times[i:]]
        elif edit == "duplicate":
            times.insert(i, times[i])
        elif edit == "swap" and i + 1 < len(times):
            times[i], times[i + 1] = times[i + 1], times[i]
        elif edit == "shift":
            shift = data.draw(st.integers(-7_200_000_000, 7_200_000_000))
            times[i] += timedelta(microseconds=shift)
    return times


START = st.datetimes(datetime(1951, 1, 1), datetime(2099, 1, 1), timezones=st.just(timezone.utc))
FORMATS = {
    "offset": lambda t: t.astimezone(IST).isoformat(),
    "zulu": lambda t: t.isoformat().replace("+00:00", "Z"),
    "naive": lambda t: t.replace(tzinfo=None).isoformat(),
}


class TestChecksMatchOracleLoops:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), start=START, n=st.integers(1, 40), form=st.sampled_from(list(FORMATS)))
    def test_ingest_weather(self, tmp_path_factory, data, start, n, form):
        """Hourly steps, duplicates, reversals and missing hours, with stamps
        written at +05:30, as Z or naive: the same stamps and messages."""
        times = timeline(data, start, n)
        path = tmp_path_factory.mktemp("w") / "weather.csv"
        rows = [f"{FORMATS[form](t)},100.0,50.0,150.0,10.0,3.0" for t in times]
        path.write_text("\n".join(["time,bhi,dhi,ghi,temp_air,wind10", *rows]) + "\n")
        want = raised(oracles.check_hourly, times, path)
        assert raised(ingest_weather, path) == want
        if want is None:
            np.testing.assert_array_equal(ingest_weather(path).times, fixturegen.utc_stamps(times))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), start=START, leap=st.booleans(), extra=st.integers(-1, 1))
    def test_full_year(self, data, start, leap, extra):
        times = timeline(data, start, (8784 if leap else 8760) + extra)
        stamps = fixturegen.utc_stamps(times)
        assert raised(check_full_year, stamps) == raised(oracles.check_full_year, times)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), start=START, n=st.integers(1, 30), form=st.sampled_from(list(FORMATS)))
    def test_price_timeline(self, tmp_path_factory, data, start, n, form):
        weather = [start + i * HOUR for i in range(n)]
        stamps = timeline(data, start, n)[:n]
        stamps += weather[len(stamps):]
        path = tmp_path_factory.mktemp("p") / "prices.csv"
        rows = [f"{FORMATS[form](t)},1.0" for t in stamps]
        path.write_text("\n".join(["time,price", *rows]) + "\n")
        want = raised(oracles.check_price_timeline, stamps, weather, path)
        assert raised(ingest_prices, path, fixturegen.utc_stamps(weather)) == want

