"""Weather and price CSV ingestion: validation, repair, and alignment."""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fixturegen
import oracles
from agrivolt.errors import InputError
from agrivolt.sky import sky_year
from agrivolt.weather import (
    CLOSURE_TOLERANCE_WM2,
    PRICE_COLUMNS,
    WEATHER_COLUMNS,
    ingest_prices,
    ingest_weather,
    ingest_yields,
)

HEADER = "time,bhi,dhi,ghi,temp_air,wind10\n"


def row(t, bhi=100.0, dhi=50.0, ghi=None, temp=10.0, wind=3.0):
    ghi = bhi + dhi if ghi is None else ghi
    return f"{t},{bhi},{dhi},{ghi},{temp},{wind}\n"


T0 = "2015-06-01T00:00:00+00:00"
T1 = "2015-06-01T01:00:00+00:00"
T2 = "2015-06-01T02:00:00+00:00"
T3 = "2015-06-01T03:00:00+00:00"


def unreadable_files(tmp_path, text):
    """Paths that cannot be read as UTF-8 text: absent, a directory, and
    ``text`` with a byte that is not UTF-8."""
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(text.encode() + b"# caf\xe9\n")
    return [tmp_path / "absent.csv", tmp_path, latin1]


class TestIngestWeather:
    def test_round_trip_of_generated_year(self, data_dir, weather):
        """The written fixture reads back as the generator's columns, bit for bit."""
        back = ingest_weather(data_dir / "weather.csv")
        assert len(back) == len(weather) == 8760
        assert back.times.dtype == np.dtype("M8[us]")
        np.testing.assert_array_equal(back.times, weather.times)
        for name in WEATHER_COLUMNS[1:]:
            column = getattr(back, name)
            assert column.dtype == np.float64 and column.shape == (8760,), name
            np.testing.assert_array_equal(column, getattr(weather, name), err_msg=name)

    def test_columns_constant(self):
        assert WEATHER_COLUMNS == ("time", "bhi", "dhi", "ghi", "temp_air", "wind10")

    def test_parses_small_file(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(HEADER + row(T0) + row(T1, bhi=0.0, dhi=0.0))
        samples = ingest_weather(path)
        assert len(samples) == 2
        assert samples.times[0] == np.datetime64("2015-06-01T00:00", "us")
        assert samples.bhi[0] == 100.0
        assert samples.ghi[0] == 150.0
        assert samples.ghi[1] == 0.0

    def test_naive_timestamps_assumed_utc(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(HEADER + row("2015-06-01T00:00:00") + row("2015-06-01T01:00:00"))
        samples = ingest_weather(path)
        assert samples.times[0] == np.datetime64("2015-06-01T00:00", "us")

    def test_zulu_suffix_accepted(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(HEADER + row("2015-06-01T00:00:00Z") + row("2015-06-01T01:00:00Z"))
        assert len(ingest_weather(path)) == 2

    def test_missing_columns_listed(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("time,bhi,ghi\n2015-06-01T00:00:00,1,2\n")
        with pytest.raises(InputError) as err:
            ingest_weather(path)
        assert "dhi" in str(err.value)
        assert "temp_air" in str(err.value)
        assert "wind10" in str(err.value)

    def test_negative_rows_reported_with_numbers(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            HEADER + row(T0) + row(T1, bhi=-5.0) + row(T2) + row(T3, wind=-1.0)
        )
        with pytest.raises(InputError, match="negative") as err:
            ingest_weather(path)
        assert str(err.value).endswith("negative irradiance or wind in rows 3, 5")

    def test_closure_gap_repaired_with_warning(self, tmp_path, caplog):
        path = tmp_path / "w.csv"
        path.write_text(HEADER + row(T0, ghi=120.0) + row(T1))
        with caplog.at_level("WARNING", logger="agrivolt.weather"):
            samples = ingest_weather(path)
        assert samples.ghi[0] == 150.0  # repaired to bhi + dhi
        assert samples.ghi[1] == 150.0  # consistent row untouched
        assert any("repaired" in rec.message for rec in caplog.records)
        assert [rec.getMessage().split(": ", 1)[1] for rec in caplog.records] == [
            "repaired ghi to bhi + dhi in 1 rows (rows 2)"
        ]

    def test_small_closure_gap_kept(self, tmp_path, caplog):
        assert CLOSURE_TOLERANCE_WM2 == 1.0
        path = tmp_path / "w.csv"
        path.write_text(HEADER + row(T0, ghi=150.9) + row(T1))
        with caplog.at_level("WARNING", logger="agrivolt.weather"):
            samples = ingest_weather(path)
        assert samples.ghi[0] == 150.9
        assert not caplog.records

    def test_missing_hours_listed(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(HEADER + row(T0) + row(T3))
        with pytest.raises(InputError, match="missing hours") as err:
            ingest_weather(path)
        assert "2015-06-01T01:00:00+00:00" in str(err.value)
        assert "2015-06-01T02:00:00+00:00" in str(err.value)
        # a gap of 150 years is counted, not spelled out hour by hour
        path.write_text(HEADER + row("1950-01-01T00:00Z") + row("2100-12-31T00:00Z"))
        gap = datetime(2100, 12, 31) - datetime(1950, 1, 1)
        with pytest.raises(InputError, match="missing hours") as err:
            ingest_weather(path)
        assert "1950-01-01T01:00:00+00:00, " in str(err.value)
        assert f"({gap // timedelta(hours=1) - 1} total)" in str(err.value)

    def test_duplicate_timestamps_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(HEADER + row(T0) + row(T0) + row(T1))
        with pytest.raises(InputError, match="duplicate"):
            ingest_weather(path)

    def test_decreasing_timestamps_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(HEADER + row(T1) + row(T0))
        with pytest.raises(InputError, match="not increasing"):
            ingest_weather(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("")
        with pytest.raises(InputError, match="empty file"):
            ingest_weather(path)
        for unreadable in unreadable_files(tmp_path, HEADER + row(T0)):
            with pytest.raises(InputError, match="cannot read weather file"):
                ingest_weather(unreadable)

    def test_header_only(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(HEADER)
        with pytest.raises(InputError, match="no data rows"):
            ingest_weather(path)

    def test_bad_timestamp(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(HEADER + row("yesterday"))
        with pytest.raises(InputError, match="bad timestamp"):
            ingest_weather(path)
        # before year 1 in UTC
        path.write_text(HEADER + row("0001-01-01T00:00:00+05:00"))
        with pytest.raises(InputError, match="bad timestamp"):
            ingest_weather(path)
        # outside the sun position model
        for stamp in ("1949-12-31T23:00:00Z", "2101-01-01T00:00:00Z", "9999-12-31T23:00Z"):
            path.write_text(HEADER + row(stamp))
            with pytest.raises(InputError, match="row 2: year .* outside 1950-2100"):
                ingest_weather(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(HEADER + f"{T0},100,50,150,warm,3\n")
        with pytest.raises(InputError, match="temp_air"):
            ingest_weather(path)
        # a row with fewer fields than the header
        path.write_text(HEADER + row(T0) + "2015-06-01T01:00Z,0,0\n")
        with pytest.raises(InputError, match="row 3: column 'ghi' is not a number"):
            ingest_weather(path)

    def test_non_finite_value(self, tmp_path):
        """NaN and either infinity, in any spelling float() takes, in every
        numeric column."""
        path = tmp_path / "w.csv"
        for column in ("bhi", "dhi", "ghi", "temp_air", "wind10"):
            for text in ("nan", "inf", "-inf", "NaN", "Infinity", "-INF"):
                values = dict(zip(HEADER.strip().split(","), row(T0).strip().split(",")))
                values[column] = text
                path.write_text(HEADER + ",".join(values.values()) + "\n")
                message = f"row 2: column {column!r} is not finite: {text!r}"
                with pytest.raises(InputError, match=re.escape(message)):
                    ingest_weather(path)

    def test_beam_above_atmosphere_flagged_not_fatal(self, tmp_path, caplog, foulum):
        path = tmp_path / "w.csv"
        path.write_text(
            HEADER
            + row("2015-06-21T12:00:00", bhi=1500.0, dhi=0.0)
            + row("2015-06-21T13:00:00", bhi=100.0, dhi=50.0)
        )
        samples = ingest_weather(path)
        with caplog.at_level("WARNING", logger="agrivolt.sky"):
            sky_year(foulum, samples)
        assert len(samples) == 2
        assert samples.bhi[0] == 1500.0  # kept as measured
        assert any("top-of-atmosphere" in rec.message for rec in caplog.records)

    def test_plausible_beam_not_flagged(self, tmp_path, caplog, foulum):
        path = tmp_path / "w.csv"
        path.write_text(
            HEADER
            + row("2015-06-21T12:00:00", bhi=700.0, dhi=100.0)
            + row("2015-06-21T13:00:00", bhi=650.0, dhi=110.0)
        )
        with caplog.at_level("WARNING", logger="agrivolt.sky"):
            sky_year(foulum, ingest_weather(path))
        assert not caplog.records


class TestIngestPrices:
    @staticmethod
    def _times(n):
        start = datetime(2015, 6, 1, tzinfo=timezone.utc)
        return fixturegen.utc_stamps([start + timedelta(hours=i) for i in range(n)])

    def test_round_trip_of_generated_year(self, data_dir, weather, prices):
        back = ingest_prices(data_dir / "prices.csv", weather.times)
        assert back.shape == (8760,)
        np.testing.assert_allclose(back, prices, atol=5e-3)

    def test_columns_constant(self):
        assert PRICE_COLUMNS == ("time", "price")

    def test_aligned_small_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(f"time,price\n{T0},30.5\n{T1},-4.0\n")
        out = ingest_prices(path, self._times(2))
        np.testing.assert_allclose(out, [30.5, -4.0])

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(f"time,price\n{T0},30.5\n")
        with pytest.raises(InputError, match="1 price rows for 3 weather hours"):
            ingest_prices(path, self._times(3))

    def test_first_divergence_reported(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(f"time,price\n{T0},30.5\n{T2},31.0\n")
        with pytest.raises(InputError, match="row 3") as err:
            ingest_prices(path, self._times(2))
        assert "02:00" in str(err.value)
        assert "01:00" in str(err.value)

    def test_missing_price_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(f"time,cost\n{T0},30.5\n")
        with pytest.raises(InputError, match="price"):
            ingest_prices(path, self._times(1))
        # a row with no price field at all
        path.write_text(f"time,price\n{T0},30.5\n{T1}\n")
        with pytest.raises(InputError, match="row 3: column 'price' is not a number"):
            ingest_prices(path, self._times(2))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("")
        with pytest.raises(InputError, match="empty file"):
            ingest_prices(path, self._times(0))
        for unreadable in unreadable_files(tmp_path, f"time,price\n{T0},30.5\n"):
            with pytest.raises(InputError, match="cannot read price file"):
                ingest_prices(unreadable, self._times(1))

    def test_header_only(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("time,price\n")
        with pytest.raises(InputError, match="no data rows"):
            ingest_prices(path, self._times(0))


#: Rows of the fixture files in a mutated copy: past the 8 KiB that a text
#: file decodes at once, so an undecodable byte can follow rows already read.
MUTATED_ROWS = 400
#: Values that fail to parse or are not finite, and values ``float`` reads.
BAD_NUMBERS = ["abc", "", " ", "1.2.3", "0x10", "nan", "-inf", "Infinity", "1e999",
               "1_000", "\u0661", " 7 "]
#: Stamps in other forms: refused, naive, offset, and at the year bounds.
ODD_STAMPS = ["garbage", "", "2015-13-01T00:00:00Z", "2015-01-01T00:00:00+02:00",
              "1949-12-31T23:00:00Z", "1950-01-01T00:30:00+01:00",
              "2101-01-01T00:30:00+01:00", "2100-12-31T23:00:00-01:00",
              "0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00"]


def mutation(data, n_fields: int):
    """One edit of a data row: (kind, row index, argument)."""
    kind = data.draw(st.sampled_from(
        ["number", "negative", "short", "stamp", "naive", "offset", "gap", "duplicate",
         "blank", "undecodable"]), label="kind")
    row = data.draw(st.integers(0, MUTATED_ROWS - 1), label="row")
    if kind == "number":
        return kind, row, (data.draw(st.integers(1, n_fields - 1)),
                           data.draw(st.sampled_from(BAD_NUMBERS)))
    if kind == "negative":
        return kind, row, data.draw(st.integers(1, n_fields - 1))
    if kind == "short":
        return kind, row, data.draw(st.integers(0, n_fields - 1))
    if kind == "stamp":
        return kind, row, data.draw(st.sampled_from(ODD_STAMPS))
    return kind, row, None


def mutate(lines: list[str], edits) -> bytes:
    """``lines`` (header first) with ``edits`` applied, as file bytes."""
    rows = lines[1:]
    for kind, row, arg in edits:
        row = min(row, len(rows) - 1)
        fields = rows[row].split(",")
        if kind == "number" and arg[0] < len(fields):
            fields[arg[0]] = arg[1]
        elif kind == "negative" and arg < len(fields):
            fields[arg] = "-1.5"
        elif kind == "short":
            fields = fields[:arg]
        elif kind in ("stamp", "id"):
            fields[0] = arg
        elif kind == "naive":
            fields[0] = fields[0].replace("Z", "")
        elif kind == "offset" and fields[0].endswith("Z"):  # the same instant at +01:00
            stamp = datetime.fromisoformat(fields[0].replace("Z", "+00:00"))
            fields[0] = (stamp + timedelta(hours=1)).replace(tzinfo=None).isoformat() + "+01:00"
        if kind == "gap" and len(rows) > 1:
            del rows[row]
            continue
        rows[row] = ",".join(fields)
        if kind == "duplicate":
            rows.insert(row, rows[row])
        elif kind == "blank":
            rows.insert(row, "")
        elif kind == "undecodable":
            rows[row] += "\udce9"
    text = "\n".join([lines[0], *rows]) + "\n"
    return text.encode("utf-8", "surrogateescape")


def outcome(read, *args):
    """What ``read`` returns, or the text of the ``InputError`` it raises."""
    try:
        return read(*args)
    except InputError as exc:
        event(re.sub(r"\S*\.csv|row \d+|'.*'|\d+", "_", str(exc))[:40])
        return str(exc)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestColumnsAgainstRowReader:
    """The columnar readers against the row readers of ``oracles`` on mutated
    copies of the fixture files: the same arrays, bit for bit, or the same
    refusal."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_weather(self, data_dir, tmp_path_factory, data):
        lines = (data_dir / "weather.csv").read_text().splitlines()[:MUTATED_ROWS + 1]
        edits = [mutation(data, 6) for _ in range(data.draw(st.integers(1, 3)))]
        path = tmp_path_factory.mktemp("w") / "weather.csv"
        path.write_bytes(mutate(lines, edits))
        want = outcome(oracles.reference_ingest_weather, path)
        got = outcome(ingest_weather, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            for name in WEATHER_COLUMNS:
                assert same_bits(getattr(got, name.replace("time", "times")),
                                 getattr(want, name.replace("time", "times"))), name

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_prices(self, data_dir, weather, tmp_path_factory, data):
        lines = (data_dir / "prices.csv").read_text().splitlines()[:MUTATED_ROWS + 1]
        edits = [mutation(data, 2) for _ in range(data.draw(st.integers(1, 3)))]
        path = tmp_path_factory.mktemp("p") / "prices.csv"
        path.write_bytes(mutate(lines, edits))
        times = weather.times[:MUTATED_ROWS]
        want = outcome(oracles.reference_ingest_prices, path, times)
        got = outcome(ingest_prices, path, times)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            assert same_bits(got, want)


#: Region ids that ``int`` refuses, and ones it reads, some as another row's id.
ODD_IDS = ["x", "", "1.5", "1e3", "0x10", " 7 ", "+3", "-2", "\u0663", "1_0", "400"]
#: A yields table of ``MUTATED_ROWS`` regions, past the first 8 KiB of its file.
YIELD_LINES = ["region_id,tilt,vertical,tracking",
               *(f"{i},{1000 + i / 8},{900 - i / 4},{1100 + i / 3:.4f}"
                 for i in range(1, MUTATED_ROWS + 1))]


def yields_mutation(data):
    """One edit of a yields row: a region id of ``ODD_IDS``, or a ``mutation``
    of its four fields."""
    if data.draw(st.booleans(), label="id"):
        return ("id", data.draw(st.integers(0, MUTATED_ROWS - 1), label="row"),
                data.draw(st.sampled_from(ODD_IDS)))
    return mutation(data, 4)


class TestYieldsAgainstRowReader:
    """``ingest_yields``, which reads the whole file before it checks the
    rows, against the row reader of ``oracles`` on mutated yields tables: the
    same table or the same refusal."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_yields(self, tmp_path_factory, data):
        assert len("\n".join(YIELD_LINES)) > 8192
        edits = [yields_mutation(data) for _ in range(data.draw(st.integers(1, 3)))]
        path = tmp_path_factory.mktemp("y") / "yields.csv"
        path.write_bytes(mutate(YIELD_LINES, edits))
        assert outcome(ingest_yields, path) == outcome(oracles.reference_ingest_yields, path)


class TestFixtureWriters:
    def test_weather_writer_emits_expected_header(self, tmp_path, weather_rows):
        path = fixturegen.write_weather_csv(tmp_path / "w.csv", weather_rows[:48])
        first = path.read_text().splitlines()[0]
        assert first == "time,bhi,dhi,ghi,temp_air,wind10"

    def test_price_writer_emits_expected_header(self, tmp_path, times, prices):
        path = fixturegen.write_price_csv(tmp_path / "p.csv", times[:48], prices[:48])
        first = path.read_text().splitlines()[0]
        assert first == "time,price"
