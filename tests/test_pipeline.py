import json
import os
import re
import shutil
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from volintervals import (
    AnalysisConfig,
    IntervalSequence,
    PriceSeries,
    VolatilitySeries,
    build_intraday_pattern,
    cluster_survival,
    clusters,
    extract_intervals,
    ingest_csv,
    intraday_detrend,
    log_returns,
    median_split,
    normalize_volatility,
    run_pipeline,
    session_slots,
    shuffle_volatility,
    split_by_date,
    write_csv,
)
import volintervals.memory
import volintervals.pipeline
from volintervals.cli import main
from volintervals.pipeline import (
    ConfigError,
    IngestError,
    STAGES,
    _analyze_one,
    _envelope,
    _read_plain,
    _read_rows,
    _seed_rows,
    _usable_cpus,
    _volatility,
    _write_json,
    _write_tsv,
    load_config,
    parse_time,
)
from volintervals.synthetic import correlated_gaussian

from test_golden import SESSION_CONFIG, write_intraday_csv


# what every timestamp must be: in a CSV, a split date and synth --start
TIMESTAMP_RULE = ("need YYYY-MM-DD in years 1-9999, alone or followed by T or a space "
                  "and HH, HH:MM or HH:MM:SS")
RULE = re.escape(TIMESTAMP_RULE)


def synth_csv(path, length=20000, kind="correlated", seed=0):
    assert main(["synth", "--kind", kind, "--length", str(length), "--seed", str(seed),
                 "--gamma", "0.3", "--out", str(path)]) == 0
    return path


class TestIngest:
    def test_two_row_file(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("timestamp,price\n2000-01-03T00:00:00,100\n2000-01-04T00:00:00,101\n")
        s = ingest_csv(f)
        assert len(s) == 2
        assert s.instrument_id == "a"

    def test_bad_price_cites_line(self, tmp_path):
        f = tmp_path / "b.csv"
        rows = ["timestamp,price"] + [f"2000-01-{d:02d}T00:00:00,10{d}" for d in range(1, 10)]
        rows[6] = "2000-01-06T00:00:00,oops"  # line 7 of the file
        f.write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestError, match="line 7"):
            ingest_csv(f)

    def test_duplicate_timestamp_is_hard_error(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("timestamp,price\n2000-01-03T00:00:00,1\n2000-01-03T00:00:00,2\n")
        with pytest.raises(IngestError, match="duplicate"):
            ingest_csv(f)

    def test_unsorted_sorted_with_warning(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("timestamp,price\n2000-01-04T00:00:00,2\n2000-01-03T00:00:00,1\n")
        with pytest.warns(UserWarning, match="out of order"):
            s = ingest_csv(f)
        assert s.prices.tolist() == [1.0, 2.0]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # as Excel's "CSV UTF-8" writes it
        text = b"timestamp,price\n2000-01-01,1\n2000-01-02,2\n2000-01-03,1.5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        a, b = ingest_csv(plain), ingest_csv(marked)
        assert a.timestamps.tolist() == b.timestamps.tolist()
        assert a.prices.tolist() == b.prices.tolist() == [1.0, 2.0, 1.5]
        assert list(_read_plain(plain)[2]) == _read_rows(marked)[2] == [2, 3, 4]

    def test_bad_header(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_text("time,close\n2000-01-03,1\n")
        with pytest.raises(IngestError, match="header"):
            ingest_csv(f)

    @pytest.mark.parametrize("price", ["nan", "inf", "-inf", "0", "-3.5"])
    def test_non_finite_or_non_positive_price_cites_line(self, tmp_path, price):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,price\n2000-01-03T00:00:00,100\n"
                     f"2000-01-04T00:00:00,{price}\n2000-01-05T00:00:00,101\n")
        with pytest.raises(IngestError, match=rf"p\.csv: line 3: .*'{re.escape(price)}'"):
            ingest_csv(f)

    def test_bad_price_file_does_not_stop_other_inputs(self, tmp_path):
        good = synth_csv(tmp_path / "good.csv", length=2000, kind="iid", seed=8)
        neg = tmp_path / "neg.csv"
        neg.write_text("timestamp,price\n2000-01-03T00:00:00,100\n2000-01-04T00:00:00,-1\n")
        out = tmp_path / "out"
        assert main(["analyze", str(good), str(neg), "--q", "1", "--ensemble", "2",
                     "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert [(e["instrument"], e["stage"]) for e in report["errors"]] == [(str(neg), "ingest")]
        assert "line 3" in report["errors"][0]["error"]
        assert [s["instrument"] for s in report["instruments"]] == ["good"]
        assert (out / "good" / "q1" / "cluster_surrogate.tsv").exists()

    # file content -> the message it must raise
    BAD_CONTENT = {
        "header_names_line_1": (b"time,close\n2000-01-03,1\n", r"line 1: expected header"),
        "multiline_record": (b'timestamp,price\n"2000-01-03\n",1\n2000-01-04,x\n',
                             r"line 4: bad price 'x'"),
        "empty_timestamp": (b"timestamp,price\n2000-01-03,1\n,2\n2000-01-05,3\n",
                            rf"line 3: bad timestamp '': {RULE}$"),
        "nat_timestamp": (b"timestamp,price\n2000-01-03,1\n2000-01-04,2\nNaT,3\n",
                          rf"line 4: bad timestamp 'NaT': {RULE}$"),
        "epoch_seconds_as_year": (b"timestamp,price\n946857600,1\n946944000,2\n",
                                  rf"line 2: bad timestamp '946857600': {RULE}$"),
        "duplicate_names_line": (b"timestamp,price\n2000-01-04,1\n2000-01-03,2\n\n2000-01-04,3\n",
                                 r"line 5: duplicate timestamp 2000-01-04"),
        "field_over_csv_limit": (b"timestamp,price\n2000-01-03,1\n" + b"9" * 200_000 + b",2\n",
                                 r"line 3: field larger than field limit"),
        "not_utf8": (b"timestamp,price\n2000-01-03,1\n2000-01-04,2\n2000-01-05,\xe9\n",
                     r"line 4: not UTF-8 text"),
        "utc_offset_east": (b"timestamp,price\n2020-01-01T09:00+09:00,1\n2020-01-01T09:01+09:00,2\n",
                            rf"line 2: bad timestamp '2020-01-01T09:00\+09:00': {RULE}$"),
        "utc_offset_west": (b"timestamp,price\n2020-01-01 09:00,1\n2020-01-01 09:01-05:00,2\n",
                            rf"line 3: bad timestamp '2020-01-01 09:01-05:00': {RULE}$"),
        "utc_offset_z": (b"timestamp,price\n2020-01-01T00:00:00Z,1\n2020-01-02T00:00:00Z,2\n",
                         rf"line 2: bad timestamp '2020-01-01T00:00:00Z': {RULE}$"),
        "sub_second_pair": (b"timestamp,price\n2020-01-01T00:00:00.2,1\n2020-01-01T00:00:00.7,2\n",
                            rf"line 2: bad timestamp '2020-01-01T00:00:00.2': {RULE}$"),
        "sub_second_later": (b"timestamp,price\n2020-01-01T00:00:01.000,1\n"
                             b"2020-01-01T00:00:02.50,2\n2020-01-01T00:00:03,3\n",
                             rf"line 2: bad timestamp '2020-01-01T00:00:01.000': {RULE}$"),
        "ten_zero_digits": (b"timestamp,price\n2020-01-01T00:00:00.0000000000,1\n"
                            b"2020-01-01T00:00:01,2\n",
                            rf"line 2: bad timestamp '2020-01-01T00:00:00.0000000000': {RULE}$"),
        "text_after_time": (b"timestamp,price\n2000-01-01T00:00,1\n2000-01-01T00:01x,2\n",
                            rf"line 3: bad timestamp '2000-01-01T00:01x': {RULE}$"),
        # numpy reads these words, in any letter case, as the time of the run
        "now": (b"timestamp,price\n2000-01-03,1\nnow,2\n", rf"line 3: bad timestamp 'now': {RULE}$"),
        "today_quoted": (b'timestamp,price\n"TODAY",1\n2000-01-04,2\n',
                         rf"line 2: bad timestamp 'TODAY': {RULE}$"),
        # numpy reads these as whole seconds, but no caller writes them
        "zero_fraction": (b"timestamp,price\n2000-01-01T00:00:00.000,1\n2000-01-01T00:00:02,3\n",
                          rf"line 2: bad timestamp '2000-01-01T00:00:00.000': {RULE}$"),
        "signed_year_and_trailing_dot": (b"timestamp,price\n2000-01-01T00:00:00,1\n"
                                         b"+2000-01-01 00:00:01.,2\n",
                                         rf"line 3: bad timestamp '\+2000-01-01 00:00:01.': {RULE}$"),
    }

    @pytest.mark.parametrize("case", BAD_CONTENT)
    def test_bad_content_is_an_ingest_error_naming_the_line(self, tmp_path, case):
        content, message = self.BAD_CONTENT[case]
        f = tmp_path / "x.csv"
        f.write_bytes(content)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IngestError, match=rf"^{re.escape(str(f))}: {message}"):
                ingest_csv(f)
        # the error says what is wrong; a warning about time zones would mislead
        assert not [w for w in caught if "representation of timezones" in str(w.message)]

    def test_non_utf8_file_does_not_stop_other_inputs(self, tmp_path):
        good = synth_csv(tmp_path / "good.csv", length=2000, kind="iid", seed=8)
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("timestamp,price\n2000-01-03,1\n2000-01-04,2 €\n".encode("cp1252"))
        out = tmp_path / "out"
        assert main(["analyze", str(good), str(latin1), "--q", "1", "--ensemble", "2",
                     "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert [(e["instrument"], e["stage"]) for e in report["errors"]] == [(str(latin1), "ingest")]
        assert [s["instrument"] for s in report["instruments"]] == ["good"]

    def test_whole_seconds_without_offset_accepted(self, tmp_path):
        f = tmp_path / "w.csv"  # plain shapes, but quoted or padded, so only the row reader takes them
        f.write_text('timestamp,price\n"2000-01-01T00:00:00",1\n 2000-01-01 00:00:01 ,2\n'
                     "2000-01-01T00:00:02,3\n")
        assert _read_plain(f) is None
        s = ingest_csv(f)
        assert s.timestamps.astype(str).tolist() == [
            "2000-01-01T00:00:00", "2000-01-01T00:00:01", "2000-01-01T00:00:02"]

    def test_emit_then_ingest_round_trip(self, tmp_path):
        f = synth_csv(tmp_path / "s.csv", length=500, kind="iid", seed=3)
        s1 = ingest_csv(f)
        f2 = tmp_path / "s2.csv"
        write_csv(s1, f2)
        s2 = ingest_csv(f2)
        assert np.array_equal(s1.prices, s2.prices)  # bit-exact
        assert np.array_equal(s1.timestamps, s2.timestamps)

    @pytest.mark.parametrize("stamps, bad", [
        (["2000-01-01T00:00:00", "2000-01-01T00:00:00.500"], "1 is 2000-01-01T00:00:00.500"),
        (["9999-12-31T23:59:59", "10000-01-01T00:00:00"], "1 is 10000-01-01T00:00:00.000"),
        (["0000-12-31T23:59:59", "0001-01-01T00:00:00"], "0 is 0000-12-31T23:59:59.000"),
    ], ids=["half_second", "year_10000", "year_0"])
    def test_emit_rejects_a_timestamp_ingest_cannot_read(self, tmp_path, stamps, bad):
        ts = np.array(stamps, dtype="datetime64[ms]")
        series = PriceSeries("p", ts, np.arange(1.0, ts.size + 1), np.timedelta64(500, "ms"))
        with pytest.raises(ValueError) as exc:
            write_csv(series, tmp_path / "p.csv")
        assert str(exc.value) == f"timestamp at index {bad}: need a whole second in years 1-9999"
        assert list(tmp_path.iterdir()) == []


TIMESTAMPS = st.one_of(
    st.datetimes(datetime(1900, 1, 1), datetime(2100, 1, 1)).map(datetime.isoformat),
    st.sampled_from(["", "NaT", "2000-01-01", "2000-01-01T00:00:00.5", "2000-13-01",
                     "123456789", "-0001-01-01", "2000-01-01T00:00Z", '"2000-01-01',
                     "2000-01-01T09:00+09:00", "2000-01-01T09:00:00-05:00",
                     "2000-01-01 09:00-0500", "2000-01-01T09+09", "1-01-01T09-05",
                     "2000-01-01T00:00:00.000", "now", "today", "TODAY"])
    | st.text("0123456789-T:. Z", max_size=20),
    st.text(max_size=10),
)
PRICES = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "0", "-1", "1e400", "nan", "1_0", " 2 "]),
    st.text(max_size=6),
)
ROWS = st.one_of(
    st.tuples(TIMESTAMPS, PRICES).map(",".join),
    st.lists(st.text(max_size=8), max_size=4).map(",".join),
    st.text(max_size=20),
)


@pytest.mark.long_search
@given(header=st.sampled_from(["timestamp,price", "\ufefftimestamp,price", "Timestamp , PRICE,volume",
                                 "time,price", ""]),
       rows=st.lists(ROWS, max_size=8), newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_any_csv_text_is_a_series_or_an_ingest_error_naming_the_line(
        tmp_path_factory, header, rows, newline):
    text = newline.join([header, *rows])
    f = tmp_path_factory.mktemp("ingest") / "p.csv"
    f.write_bytes(text.encode("utf-8"))
    n_lines = len(re.split(r"\r\n|\r|\n", text))
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            series = ingest_csv(f)
    except IngestError as exc:
        m = re.match(rf"{re.escape(str(f))}: (line (\d+): |need at least 2 rows$)", str(exc))
        assert m, str(exc)
        assert m[2] is None or 1 <= int(m[2]) <= n_lines, str(exc)
    else:
        assert isinstance(series, PriceSeries)
        # numpy converts a UTC offset with only this warning
        assert not [w for w in caught if "representation of timezones" in str(w.message)]
        assert not np.any(np.isnat(series.timestamps))
        assert series.sampling_interval > np.timedelta64(0, "s")


_YEAR_1, _YEAR_10000 = (int(np.datetime64(y, "s").astype(np.int64)) for y in ("0001", "10000"))


@st.composite
def price_series(draw):
    """A PriceSeries whose timestamps may fall off whole seconds or outside years 1-9999."""
    unit = draw(st.sampled_from(["s", "ms", "us"]))
    per_s = {"s": 1, "ms": 10**3, "us": 10**6}[unit]
    start = draw(st.integers(_YEAR_1 - 5, _YEAR_10000 + 5)) * per_s
    start += draw(st.just(0) | st.integers(0, per_s - 1))
    steps = draw(st.lists(st.integers(1, 10**6).map(per_s.__mul__) | st.integers(1, 10**9),
                          min_size=1, max_size=20))
    prices = draw(st.lists(st.floats(min_value=0, exclude_min=True, allow_infinity=False),
                           min_size=len(steps) + 1, max_size=len(steps) + 1))
    ts = np.array(np.cumsum([start, *steps]), dtype=f"datetime64[{unit}]")
    return PriceSeries("p", ts, prices, np.timedelta64(1, unit))


@pytest.mark.long_search
@given(series=price_series())
def test_emit_fails_cleanly_or_round_trips_bit_for_bit(tmp_path_factory, series):
    f = tmp_path_factory.mktemp("emit") / "p.csv"
    try:
        write_csv(series, f)
    except ValueError:
        assert list(f.parent.iterdir()) == []
        return
    back = ingest_csv(f)
    assert np.array_equal(back.timestamps, series.timestamps)
    assert back.prices.view(np.int64).tolist() == series.prices.view(np.int64).tolist()


# every power of ten up to 10**18 and its predecessor: where an integer gains a digit
DIGIT_EDGES = [v for k in range(19) for v in (10**k - 1, 10**k) if v > 0]
BLOCK_ROWS = volintervals.pipeline._TSV_BLOCK_ROWS


@pytest.mark.long_search
@given(q=st.floats(min_value=0, exclude_min=True, allow_infinity=False).map(lambda x: float(f"{x:g}")),
       n=st.sampled_from([1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS]),
       edges=st.lists(st.sampled_from(DIGIT_EDGES), min_size=1, max_size=40),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_intervals_tsv_is_the_per_row_text(tmp_path_factory, q, n, edges, seed):
    rng = np.random.default_rng(seed)
    # every digit count from 1 to 19, and the digit edges at random rows
    iv = np.maximum(rng.integers(0, 2**63 - 1, n, dtype=np.int64) >> rng.integers(0, 63, n), 1)
    iv[rng.integers(0, n, len(edges))] = edges
    (table,) = STAGES["intervals"](IntervalSequence(q, iv), None)
    f = tmp_path_factory.mktemp("tsv") / "intervals.tsv"
    _write_tsv(f, table.header, table.columns)
    assert f.read_text() == "q\tinterval\n" + "".join(f"{q:.10g}\t{v}\n" for v in iv.tolist())


@pytest.mark.parametrize("column", [
    np.array([0, *DIGIT_EDGES, 2**63 - 1]),
    np.array([0, 2**64 - 1], dtype=np.uint64),
    np.array([3, -(2**63), -1, 0]),  # negative: written row by row
], ids=["int64", "uint64", "negative"])
def test_integer_column_is_written_as_str(tmp_path, column):
    _write_tsv(tmp_path / "t.tsv", ("a", "b", "n"), ("x", "1.5", column))
    assert (tmp_path / "t.tsv").read_text() == "a\tb\tn\n" + "".join(f"x\t1.5\t{v}\n" for v in column.tolist())


def _ingest_outcome(read, path):
    """What a reader makes of a file: the series (prices as bits) or the error, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            s = read(path)
            result = (s.instrument_id, s.timestamps.tolist(), s.prices.view(np.int64).tolist(),
                      s.sampling_interval)
        except IngestError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


def _row_reader(path):
    with mock.patch.object(volintervals.pipeline, "_read_plain", lambda path: None):
        return ingest_csv(path)


# the seven plain shapes: a date alone, or with hours, minutes or seconds after 'T' or ' '
PLAIN_ROWS = st.tuples(
    st.datetimes(datetime(1900, 1, 1), datetime(2100, 1, 1)),
    st.sampled_from([None, "T", " "]),
    st.sampled_from(["hours", "minutes", "seconds"]),
    st.floats(min_value=0, exclude_min=True, allow_infinity=False),
).map(lambda r: f"{r[0].date().isoformat() if r[1] is None else r[0].isoformat(r[1], r[2])},{r[3]!r}")


@pytest.mark.long_search
@given(header=st.sampled_from(["timestamp,price"] * 8 + ["Timestamp , PRICE", "timestamp,price,volume",
                                                       "\ufefftimestamp,price"]),
       rows=st.lists(PLAIN_ROWS, max_size=20),
       others=st.just([]) | st.lists(st.tuples(st.integers(min_value=0), ROWS), max_size=2),
       newline=st.sampled_from(["\n"] * 8 + ["\r\n"]), final_newline=st.booleans(),
       chunk_bytes=st.sampled_from([1 << 16, 1, 7, 50]))
def test_ingest_matches_the_row_reader(tmp_path_factory, header, rows, others, newline,
                                       final_newline, chunk_bytes):
    rows = list(rows)
    for at, row in others:  # mostly plain files, now and then a row of any text
        rows.insert(at % (len(rows) + 1), row)
    text = newline.join([header, *rows]) + (newline if final_newline else "")
    f = tmp_path_factory.mktemp("ingest") / "p.csv"
    f.write_bytes(text.encode("utf-8"))
    with mock.patch.object(volintervals.pipeline, "_CHUNK_BYTES", chunk_bytes):
        assert _ingest_outcome(ingest_csv, f) == _ingest_outcome(_row_reader, f)


@pytest.mark.long_search
@given(rows=st.lists(PLAIN_ROWS, min_size=2, max_size=20), final_newline=st.booleans())
def test_both_readers_give_each_row_its_line(tmp_path_factory, rows, final_newline):
    # a plain file's rows are its lines after the header, one each
    f = tmp_path_factory.mktemp("ingest") / "p.csv"
    f.write_text("\n".join(["timestamp,price", *rows]) + ("\n" if final_newline else ""))
    assert list(_read_plain(f)[2]) == _read_rows(f)[2]


def _at(line, *rows):
    """An edit of a file's lines that puts `rows` at `line` (the header is line 1)."""
    return lambda lines: lines[:line - 1] + list(rows) + lines[line - 1:]


class TestArrayIngest:
    def test_plain_file_takes_the_array_path(self, tmp_path):
        f = synth_csv(tmp_path / "s.csv", length=5000, kind="iid", seed=3)
        ts, p, _ = _read_plain(f)
        s = _row_reader(f)
        assert np.array_equal(ts, s.timestamps) and np.array_equal(p.view(np.int64), s.prices.view(np.int64))

    @pytest.mark.parametrize("time", ["", "T09", " 09", "T09:30", " 09:30", "T09:30:15", " 09:30:15"])
    def test_every_plain_shape_takes_the_array_path(self, tmp_path, time):
        stamps = [f"2001-01-0{day}{time}" for day in (1, 2)]
        f = tmp_path / "x.csv"
        f.write_text("timestamp,price\n" + "".join(f"{t},{k + 1}\n" for k, t in enumerate(stamps)))
        ts, p, _ = _read_plain(f)
        assert ts.dtype == np.dtype("datetime64[s]") and p.tolist() == [1.0, 2.0]
        assert ts.tolist() == [datetime.fromisoformat(t) for t in stamps]
        assert np.array_equal(ts, _row_reader(f).timestamps)

    @pytest.mark.parametrize("at", [2500, 4999], ids=["middle", "unterminated_last"])
    def test_a_line_longer_than_a_block_is_completed(self, tmp_path, at):
        # each block starts at a line start; this line starts early enough in its block to end
        # within the _CHUNK_BYTES after it
        start = np.datetime64("2000-01-01T00:00:00")
        rows = [f"{start + np.timedelta64(60 * k, 's')},{100 + k / 7!r}" for k in range(5000)]
        rows[at] = f"{start + np.timedelta64(60 * at, 's')},{'0' * 70_000}1.5"
        assert volintervals.pipeline._CHUNK_BYTES < len(rows[at]) < 2 * volintervals.pipeline._CHUNK_BYTES
        f = tmp_path / "x.csv"
        f.write_text("\n".join(["timestamp,price", *rows]) + ("\n" if at < 4999 else ""))
        ts, p, lines = _read_plain(f)
        s = _row_reader(f)
        assert np.array_equal(ts, s.timestamps) and np.array_equal(p.view(np.int64), s.prices.view(np.int64))
        assert list(lines) == _read_rows(f)[2]

    # edit of a plain file's lines -> the message it must raise (None: it reads as a series)
    LEFT_TO_ROWS = {
        "header_with_a_third_column": (lambda lines: ["timestamp,price,volume", *lines[1:]], None),
        "bad_price_in_a_later_chunk": (_at(4002, "2000-03-01T00:00:00,oops"), "line 4002: bad price 'oops'"),
        "bad_year_in_a_later_chunk": (_at(4502, "NaT,1"), rf"line 4502: bad timestamp 'NaT': {RULE}$"),
        # the one year that has a plain shape but is not a calendar year
        "year_0000_in_a_later_chunk": (_at(4502, "0000-01-01T00:00:00,1"),
                                       rf"line 4502: bad timestamp '0000-01-01T00:00:00': {RULE}$"),
        "not_utf8_past_the_first_chunk": (_at(4202, "2001-01-01T00:00:00,\udce9"),
                                          "line 4202: not UTF-8 text$"),
        "quoted_field": (_at(5, '"2001-01-01T00:00:00",1'), None),
        "crlf": (lambda lines: ["\r\n".join(lines)], None),
        "cr_line_ends": (lambda lines: [lines[0], "\r".join(lines[1:])], None),
        "three_fields": (_at(5, "2001-01-01T00:00:00,1,2"), None),
        "three_fields_then_one": (_at(5, "2001-01-01T00:00:00,1,2001-01-02T00:00:00", "5"),
                                  "line 6: expected 2 fields"),
        "utc_offset": (_at(4202, "2001-01-01T09:00:00+09:00,1"),
                       rf"line 4202: bad timestamp '2001-01-01T09:00:00\+09:00': {RULE}$"),
        "negative_utc_offset": (_at(4202, "2001-01-01 09:00:00-05:00,1"),
                                rf"line 4202: bad timestamp '2001-01-01 09:00:00-05:00': {RULE}$"),
        "fraction": (_at(4202, "2001-01-01T00:00:00.5,1"),
                     rf"line 4202: bad timestamp '2001-01-01T00:00:00.5': {RULE}$"),
        "zero_fraction": (_at(5, "2001-01-01T00:00:00.000,1"),
                          rf"line 5: bad timestamp '2001-01-01T00:00:00.000': {RULE}$"),
        "now": (_at(4202, "Now,1"), rf"line 4202: bad timestamp 'Now': {RULE}$"),
        "today": (_at(3, "today,1"), rf"line 3: bad timestamp 'today': {RULE}$"),
        "field_over_csv_limit": (_at(5, "2001-01-01T00:00:00," + "0" * 200_000 + "1"),
                                 "line 5: field larger than field limit"),
        # no plain shape, though numpy reads it: the first instant of the month
        "year_month": (_at(5002, "2001-01,1"), rf"line 5002: bad timestamp '2001-01': {RULE}$"),
        "text_after_time": (_at(4202, "2001-01-01T00:00x,1"),
                            rf"line 4202: bad timestamp '2001-01-01T00:00x': {RULE}$"),
    }

    @pytest.mark.parametrize("case", LEFT_TO_ROWS)
    def test_anything_not_plain_is_left_to_the_row_reader(self, tmp_path, case):
        edit, message = self.LEFT_TO_ROWS[case]
        start = np.datetime64("2000-01-01T00:00:00")
        rows = [f"{start + np.timedelta64(60 * k, 's')},{100 + k / 7!r}" for k in range(5000)]
        f = tmp_path / "x.csv"  # about 140 KB, so three chunks and more
        f.write_bytes("\n".join(edit(["timestamp,price", *rows])).encode("utf-8", "surrogateescape") + b"\n")
        assert _read_plain(f) is None
        outcome = _ingest_outcome(ingest_csv, f)
        assert outcome == _ingest_outcome(_row_reader, f)
        if message is None:
            assert not isinstance(outcome[0], str), outcome[0]
        else:
            assert re.match(rf"{re.escape(str(f))}: {message}", outcome[0]), outcome[0]


# a timestamp -> whether it keeps the rule, which parse_time and both readers apply alike
RULE_CASES = {
    **dict.fromkeys(["2001-01-02", "2001-01-02T09", "2001-01-02 09", "2001-01-02T09:30",
                     "2001-01-02 09:30", "2001-01-02T09:30:15", "2001-01-02 09:30:15"], True),
    **dict.fromkeys(["2001", "2001-01", "2001-01-02T09:30:15.000", "2001-01-02T09:30:15.",
                     "+2001-01-02", "02001-01-02", "0000-01-02", "2001-01-02T09:30+09:00",
                     "2001-01-02T09:30Z", "now", "NaT", "", "978393600", "2001-01-02T09:30x",
                     "2000-13-01"], False),
}


@pytest.mark.parametrize("text", RULE_CASES)
def test_parse_time_and_both_readers_take_the_same_timestamps(tmp_path, text):
    rows = ["timestamp,price", f"{text},1", "3000-01-01,2"]
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"  # only the row reader takes CRLF
    lf.write_text("\n".join(rows) + "\n")
    crlf.write_text("\r\n".join(rows) + "\r\n", newline="")
    try:
        cut = parse_time(text, "split_date").astype("datetime64[s]")
    except ConfigError as exc:
        assert not RULE_CASES[text]
        assert str(exc) == f"split_date: bad timestamp {text!r}: {TIMESTAMP_RULE}"
        assert _read_plain(lf) is None
        for f in (lf, crlf):
            with pytest.raises(IngestError) as err:
                ingest_csv(f)
            assert str(err.value) == f"{f}: line 2: bad timestamp {text!r}: {TIMESTAMP_RULE}"
    else:
        assert RULE_CASES[text]
        assert _read_plain(lf)[0].tolist() == [cut, np.datetime64("3000-01-01T00:00:00")]
        for f in (lf, crlf):
            assert ingest_csv(f).timestamps[0] == cut


@pytest.mark.long_search
@given(text=st.tuples(st.sampled_from(["", " "]), TIMESTAMPS, st.sampled_from(["", "\t"])).map("".join))
def test_parse_time_takes_what_the_row_reader_takes(tmp_path_factory, text):
    f = tmp_path_factory.mktemp("ingest") / "t.csv"
    field = '"' + text.replace('"', '""') + '"'  # quoted, so the reader's field is exactly text
    f.write_text(f"timestamp,price\n{field},1\n{field},2\n", encoding="utf-8", newline="")
    try:
        cut = parse_time(text, "split_date")
    except ConfigError:
        with pytest.raises(IngestError):
            _read_rows(f)
    else:
        assert _read_rows(f)[0].tolist() == [cut.astype("datetime64[s]")] * 2


class TestSplitByDate:
    def test_cut_before_all_data_raises(self, tmp_path):
        s = ingest_csv(synth_csv(tmp_path / "s.csv", length=100, kind="iid"))
        with pytest.raises(ValueError):
            split_by_date(s, "1970-01-01")

    def test_lengths(self, tmp_path):
        s = ingest_csv(synth_csv(tmp_path / "s.csv", length=100, kind="iid"))
        pre, post = split_by_date(s, str(s.timestamps[40]))
        assert len(pre) == 40
        assert len(post) == 60
        assert np.array_equal(np.concatenate([pre.prices, post.prices]), s.prices)

    def test_default_crash_date_splits_daily_span(self, tmp_path):
        # daily series from 1984 is non-degenerate on both sides of 1990-01-01
        s = ingest_csv(synth_csv(tmp_path / "s.csv", length=7000, kind="iid"))
        pre, post = split_by_date(s, "1990-01-01")
        assert len(pre) > 0 and len(post) > 0
        assert pre.timestamps[-1] < np.datetime64("1990-01-01")
        assert post.timestamps[0] >= np.datetime64("1990-01-01")


# case id -> (AnalysisConfig keyword overrides, a pattern of the error, which names the key)
INVALID_CONFIGS = {
    "empty_thresholds": ({"q": []}, "^q must be"),
    "nan_threshold": ({"q": [1.0, float("nan")]}, "^q must be"),
    "inf_threshold": ({"q": [float("inf")]}, "^q must be"),
    "negative_threshold": ({"q": [-1.0]}, "^q must be"),
    "zero_subsets": ({"subsets": 0}, "^subsets must be >= 1, got 0"),
    "one_bin": ({"bins": 1}, "^bins must be >= 2, got 1"),
    "unknown_binning": ({"binning": "log"}, "binning"),
    "zero_workers": ({"max_workers": 0}, "max_workers"),
    "zero_ensemble": ({"ensemble": 0}, "ensemble"),
    "negative_seed": ({"seed": -1}, "seed"),
    "split_date_not_a_date": ({"split_date": "1990-13-01"}, "split_date"),
    "split_date_nat": ({"split_date": "NaT"}, "split_date"),
    "split_date_utc_offset": ({"split_date": "1990-01-01T09:00+09:00"}, f"split_date: .*: {RULE}"),
    "split_date_z": ({"split_date": "1990-01-01T00:00Z"}, f"split_date: .*: {RULE}"),
    "split_date_fraction": ({"split_date": "1990-01-01T00:00:00.5"}, f"split_date: .*: {RULE}"),
    "split_date_text_after_time": ({"split_date": "1990-01-01T00:00x"}, "split_date"),
    "split_date_now": ({"split_date": "now"}, f"split_date: .*: {RULE}"),
    "split_date_today": ({"split_date": "TODAY"}, f"split_date: .*: {RULE}"),
    "open_without_close": ({"session_open": "09:00"}, "session_close"),
    "close_without_open": ({"session_close": "15:00"}, "session_open"),
    "gaps_without_session": ({"drop_session_gaps": True}, "drop_session_gaps"),
    "open_not_hhmm": ({"session_open": "9am", "session_close": "15:00"}, "session_open"),
    "close_not_hhmm": ({"session_open": "09:00", "session_close": "25:00"}, "session_close"),
    "open_after_close": ({"session_open": "15:00", "session_close": "09:00"}, "session_open"),
    # a library caller's wrong type was run rounded, or failed later with a TypeError
    "float_subsets": ({"subsets": 2.5}, "^subsets must be an integer, got 2.5"),
    "float_bins": ({"bins": 2.5}, "^bins must be an integer"),
    "float_ensemble": ({"ensemble": 2.5}, "ensemble must be an integer"),
    "float_seed": ({"seed": 1.5}, "seed must be an integer"),
    "string_workers": ({"max_workers": "2"}, "max_workers must be an integer, got '2'"),
    # a non-empty string is true, so "no" dropped the session gaps
    "string_drop_session_gaps": ({"session_open": "09:00", "session_close": "15:00",
                                  "drop_session_gaps": "no"}, "drop_session_gaps must be True or False"),
    # a library caller's wrong type ended in a TypeError or AttributeError, was read
    # character by character, or was accepted and failed later
    "string_threshold": ({"q": ["1"]}, r"^q must be a .* numbers, got \['1'\]"),
    "integer_session_bounds": ({"session_open": 900, "session_close": 1500},
                               "session_open must be a string, got 900"),
    "integer_split_date": ({"split_date": 19900101}, "split_date must be a string, got 19900101"),
    "string_inputs": ({"input": "ab.csv"}, "^input must be a list of paths, got 'ab.csv'"),
    "integer_inputs": ({"input": 5}, "^input must be a list of paths, got 5"),
    "integer_in_inputs": ({"input": ["a.csv", 5]}, "^input must be paths, got 5"),
    "integer_thresholds": ({"q": 1}, "^q must be a .* numbers, got 1"),
    # a bool is an int, so True ran as q = 1 or as 1 seed
    "bool_threshold": ({"q": [True]}, r"^q must be a .* numbers, got \[True\]"),
    "bool_ensemble": ({"ensemble": True}, "ensemble must be an integer, got True"),
    "integer_out_dir": ({"out": 5}, "^out must be a path, got 5"),
    # a 0-d array has __iter__ but cannot be iterated: a TypeError escaped
    "zero_d_array_threshold": ({"q": np.array(1.0)}, r"^q must be a .* numbers, got array\(1\.\)"),
    "zero_d_array_inputs": ({"input": np.array("a.csv")}, r"^input must be a list of paths, got array\('a.csv'"),
}


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    csv = synth_csv(tmp / "inst.csv", length=20000, kind="correlated", seed=1)
    cfg = AnalysisConfig(input=[str(csv)], q=[1.0, 2.0],
                         seed=0, ensemble=5, out=str(tmp / "out"))
    report = run_pipeline(cfg)
    return tmp, cfg, report


class TestRunPipeline:
    def test_bookkeeping(self, pipeline_run):
        tmp, cfg, report = pipeline_run
        assert report["exit_code"] == 0
        out = tmp / "out" / "inst"
        for q in ("q1", "q2"):
            assert (out / q / "intervals.tsv").exists()
            assert (out / q / "scaled_pdf.tsv").exists()
            assert (out / q / "conditional_mean.tsv").exists()
            assert (out / q / "conditional_mean_shuffled.tsv").exists()
            assert (out / q / "cluster_survival.tsv").exists()
            assert (out / q / "cluster_surrogate.tsv").exists()
            for k in range(1, 9):
                assert (out / q / f"conditional_pdf_k{k}.tsv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["per_q"]) == {"1", "2"}
        matrix = json.loads((out / "collapse_matrix.json").read_text())
        assert np.asarray(matrix["ks_distance"]).shape == (2, 2)

    @pytest.mark.parametrize("override, key", INVALID_CONFIGS.values(), ids=list(INVALID_CONFIGS))
    def test_invalid_config_is_config_error(self, override, key):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigError, match=key):
                AnalysisConfig(**{"input": ["x.csv"], "q": [1.0], **override})
        # the error says what is wrong; a warning about time zones would mislead
        assert not [w for w in caught if "representation of timezones" in str(w.message)]

    def test_numpy_integers_are_accepted_as_ints(self):
        keys = ("bins", "subsets", "seed", "ensemble", "max_workers")
        cfg = AnalysisConfig(input=["x.csv"], **{k: np.int64(3) for k in keys})
        assert all(type(getattr(cfg, k)) is int and getattr(cfg, k) == 3 for k in keys)
        assert cfg == AnalysisConfig(input=["x.csv"], **{k: 3 for k in keys})

    def test_numpy_arrays_are_accepted_as_lists(self):
        # the checks once took the truth value of an array of two, which raised
        cfg = AnalysisConfig(input=np.array(["a.csv", "b.csv"]), q=np.array([2.0, 1.0]))
        assert type(cfg.input) is list and type(cfg.q) is list
        assert cfg == AnalysisConfig(input=["a.csv", "b.csv"], q=[1.0, 2.0])

    def test_json_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "x.json", {"q": float("nan")})
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_reruns_byte_identical(self, pipeline_run, tmp_path):
        tmp, cfg, _ = pipeline_run
        cfg2 = AnalysisConfig(input=cfg.input, q=cfg.q,
                              seed=cfg.seed, ensemble=cfg.ensemble,
                              out=str(tmp_path / "out2"))
        run_pipeline(cfg2)
        base = Path(cfg.out)
        for f in sorted((tmp_path / "out2").rglob("*")):
            if f.is_file():
                rel = f.relative_to(tmp_path / "out2")
                assert f.read_bytes() == (base / rel).read_bytes(), rel

    def test_per_q_outputs_independent(self, pipeline_run, tmp_path):
        tmp, cfg, _ = pipeline_run
        cfg2 = AnalysisConfig(input=cfg.input, q=[1.0],
                              seed=cfg.seed, ensemble=cfg.ensemble,
                              out=str(tmp_path / "only_q1"))
        run_pipeline(cfg2)
        base = Path(cfg.out) / "inst" / "q1"
        for f in sorted((tmp_path / "only_q1" / "inst" / "q1").glob("*")):
            assert f.read_bytes() == (base / f.name).read_bytes(), f.name

    def test_period_split_trees_have_identical_schema(self, tmp_path):
        csv = synth_csv(tmp_path / "inst.csv", length=20000, kind="correlated", seed=2)
        cfg = AnalysisConfig(input=[str(csv)], q=[1.0], ensemble=3,
                             split_date="2005-01-01", out=str(tmp_path / "out"))
        report = run_pipeline(cfg)
        assert report["exit_code"] == 0
        pre = sorted(p.relative_to(tmp_path / "out" / "inst" / "pre")
                     for p in (tmp_path / "out" / "inst" / "pre").rglob("*") if p.is_file())
        post = sorted(p.relative_to(tmp_path / "out" / "inst" / "post")
                      for p in (tmp_path / "out" / "inst" / "post").rglob("*") if p.is_file())
        assert pre == post
        assert len(pre) > 0

    def test_q_failing_conditional_gets_no_surrogate(self, tmp_path):
        csv = synth_csv(tmp_path / "inst.csv", length=20000, kind="correlated", seed=1)
        out = tmp_path / "out"
        # q=3.5 has 11 events: extraction passes, 8 conditional subsets need 17 intervals
        cfg = AnalysisConfig(input=[str(csv)], q=[3.5, 1.0], ensemble=5,
                             out=str(out))
        report = run_pipeline(cfg)
        assert report["errors"] == [{
            "error": "need at least 17 intervals for 8 subsets, have 10",
            "instrument": "inst", "q": 3.5, "stage": "conditional"}]
        assert sorted(p.name for p in (out / "inst" / "q3.5").iterdir()) == \
            ["intervals.tsv", "scaled_pdf.tsv"]
        assert (out / "inst" / "q1" / "cluster_surrogate.tsv").read_text() \
            .startswith("# seeds=5\nk\tmean\tlo\thi\n")
        summary = json.loads((out / "inst" / "summary.json").read_text())
        assert list(summary["per_q"]) == ["1"]
        assert json.loads((out / "inst" / "collapse_matrix.json").read_text())["q"] == ["1", "3.5"]

    def test_an_unreadable_input_is_recorded_and_the_others_run(self, tmp_path, monkeypatch):
        a = synth_csv(tmp_path / "a.csv", length=3000, kind="iid", seed=6)
        b = synth_csv(tmp_path / "b.csv", length=3000, kind="iid", seed=7)

        def open_but_a(path, *args, **kwargs):  # as `chmod 000 a.csv` does for a user other than root
            if Path(path) == a:
                raise PermissionError(13, "Permission denied", str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(volintervals.pipeline, "open", open_but_a, raising=False)
        out = tmp_path / "out"
        assert main(["analyze", str(a), str(b), "--q", "1", "--ensemble", "5", "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["errors"] == [{"instrument": str(a), "q": None, "stage": "ingest",
                                     "error": f"{a}: cannot read: Permission denied"}]
        assert (out / "b" / "summary.json").exists()

    def test_a_session_without_dropping_gaps_detrends_and_keeps_every_interval(self, tmp_path):
        csv = tmp_path / "intraday.csv"
        write_intraday_csv(csv)
        config = tmp_path / "session.cfg"
        config.write_text(f"input = {csv}\nq = 1,2\nensemble = 2\n"
                          "session_open = 09:00\nsession_close = 15:00\n")
        assert main(["analyze", "--config", str(config), "--out", str(tmp_path / "kept")]) == 0
        config.write_text(config.read_text() + "drop_session_gaps = true\n")
        assert main(["analyze", "--config", str(config), "--out", str(tmp_path / "dropped")]) == 0
        kept, dropped = (json.loads((tmp_path / run / "intraday" / "summary.json").read_text())
                         for run in ("kept", "dropped"))
        assert kept["detrended"] is True
        prices = ingest_csv(csv)
        vol = normalize_volatility(log_returns(prices))
        slots, sessions = session_slots(prices.timestamps[:-1], "09:00", "15:00",
                                        prices.sampling_interval)
        detrended = intraday_detrend(vol, build_intraday_pattern(vol, slots, sessions), slots)
        for q in ("1", "2"):
            written = np.loadtxt(tmp_path / "kept" / "intraday" / f"q{q}" / "intervals.tsv",
                                 skiprows=1, usecols=1, dtype=np.int64)
            assert np.array_equal(written, extract_intervals(detrended, float(q)).intervals), q
        assert kept["per_q"]["1"]["count"] > dropped["per_q"]["1"]["count"]

    def test_errors_attributed_and_pipeline_continues(self, tmp_path):
        csv = synth_csv(tmp_path / "inst.csv", length=2000, kind="iid", seed=4)
        # q=50 yields no events; q=1 still succeeds
        cfg = AnalysisConfig(input=[str(csv)], q=[1.0, 50.0], ensemble=2,
                             out=str(tmp_path / "out"))
        report = run_pipeline(cfg)
        assert report["exit_code"] == 1
        assert any(e["q"] == 50.0 and e["stage"] == "extract" for e in report["errors"])
        assert (tmp_path / "out" / "inst" / "q1" / "intervals.tsv").exists()

    def test_split_leaving_a_part_too_short_does_not_stop_other_inputs(self, tmp_path):
        good = synth_csv(tmp_path / "good.csv", length=4000, kind="iid", seed=8)  # 1984-1994
        late = tmp_path / "late.csv"
        late.write_text("timestamp,price\n1989-12-29,1\n" + "".join(
            f"1990-01-{d:02d},{d}\n" for d in range(2, 12)))
        out = tmp_path / "out"
        assert main(["analyze", str(good), str(late), "--q", "1", "--ensemble", "2",
                     "--split-date", "1990-01-01", "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["errors"] == [{"instrument": "late", "q": None, "stage": "split",
                                     "error": "cut 1990-01-01 leaves an empty or degenerate part"}]
        assert [s["instrument"] for s in report["instruments"]] == ["good_pre", "good_post"]
        assert (out / "good" / "post" / "q1" / "cluster_surrogate.tsv").exists()
        assert not (out / "late").exists()

    def test_session_gaps_around_every_interval_fail_extract_with_the_event_count(self, tmp_path):
        # 4 events, one in each of 4 sessions: every interval spans a session gap
        vol = VolatilitySeries(np.tile([2.0, 0.5, 0.5], 4))
        cfg = AnalysisConfig(input=["x.csv"], q=[1.0], session_open="09:00",
                             session_close="15:00", drop_session_gaps=True)
        [(stage, exc)] = _analyze_one(vol, np.repeat(np.arange(4), 3), cfg, tmp_path)
        assert stage == "extract"
        assert str(exc) == "threshold q=1: 4 events, but no two successive events share a session"

    def test_repeated_thresholds_run_once(self, tmp_path):
        csv = synth_csv(tmp_path / "inst.csv", length=2000, kind="iid", seed=4)
        out = tmp_path / "out"
        assert main(["analyze", str(csv), "--q", "1", "--q", "1", "--q", "50", "--q", "50",
                     "--ensemble", "2", "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert [(e["q"], e["stage"]) for e in report["errors"]] == [(50.0, "extract")]
        assert list(report["instruments"][0]["per_q"]) == ["1"]
        cfg = AnalysisConfig(input=["x.csv"], q=[2.0, 1.0, 2.0, 1.0])
        assert cfg.q == [1.0, 2.0]

    def test_failed_volatility_does_not_stop_other_inputs(self, tmp_path):
        good = synth_csv(tmp_path / "good.csv", length=2000, kind="iid", seed=8)
        flat = tmp_path / "flat.csv"
        flat.write_text("timestamp,price\n" + "".join(
            f"2000-01-{d:02d}T00:00:00,100\n" for d in range(3, 13)))
        out = tmp_path / "out"
        assert main(["analyze", str(good), str(flat), "--q", "1", "--ensemble", "2",
                     "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        error = {"instrument": "flat", "q": None, "stage": "volatility",
                 "error": "return series has zero standard deviation"}
        assert report["errors"] == [error]
        assert [s["instrument"] for s in report["instruments"]] == ["good", "flat"]
        summary = json.loads((out / "flat" / "summary.json").read_text())
        assert summary["per_q"] == {} and summary["errors"] == [error]
        assert (out / "good" / "q1" / "cluster_surrogate.tsv").exists()

    def test_constant_growth_fails_volatility(self, tmp_path):
        # every return equal: var = <G^2> - <G>^2 is only rounding, 2e-22
        days = np.arange("2000-01-01", 1000, dtype="datetime64[D]")
        growth = tmp_path / "growth.csv"
        growth.write_text("timestamp,price\n" + "".join(
            f"{d},{100 * 1.001 ** t!r}\n" for t, d in enumerate(days)))
        out = tmp_path / "out"
        assert main(["analyze", str(growth), "--q", "2", "--ensemble", "2", "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["errors"] == [{"instrument": "growth", "q": None, "stage": "volatility",
                                     "error": "return series has zero standard deviation"}]

    def test_detrending_slot_with_zero_mean_fails_volatility(self, tmp_path):
        # 5 sessions of 09:00-09:05 bars, each flat from 09:00 to 09:01: slot 0's mean is 0
        flat_open = tmp_path / "flat_open.csv"
        flat_open.write_text("timestamp,price\n" + "".join(
            f"2000-01-{d:02d}T09:0{m}:00,{p}\n" for d in range(3, 8)
            for m, p in enumerate([100, 100, 100 + d, 99, 101, 100 - d])))
        config = tmp_path / "session.cfg"
        config.write_text(f"input = {flat_open}\nq = 1\nensemble = 2\n"
                          "session_open = 09:00\nsession_close = 15:00\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(config), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["errors"] == [{"instrument": "flat_open", "q": None, "stage": "volatility",
                                     "error": "pattern slot 0 is empty or non-positive"}]

    def test_conditional_blocks_sorted_once_per_sequence(self, tmp_path, monkeypatch):
        # the intervals (for the conditional PDFs and mean) and their shuffle
        calls = []
        blocks = volintervals.memory.conditional_blocks
        monkeypatch.setattr(volintervals.memory, "conditional_blocks",
                            lambda seq, n: calls.append(seq.threshold_q) or blocks(seq, n))
        prices = ingest_csv(synth_csv(tmp_path / "inst.csv", length=20000, seed=1))
        cfg = AnalysisConfig(input=["inst.csv"], q=[1.0, 2.0], ensemble=2)
        outcomes = _analyze_one(*_volatility(prices, cfg), cfg, tmp_path / "out")
        assert [sorted(o) for o in outcomes] == [["count", "geometric_deviation", "mean_interval"]] * 2
        assert calls == [1.0] * 2 + [2.0] * 2

    @pytest.mark.filterwarnings("ignore:all intervals identical")
    def test_surrogate_error_keeps_its_threshold_order(self, tmp_path, monkeypatch):
        # q=0.5 passes every stage; q=1 has 4 events, the fewest for one subset,
        # and passes all but the surrogate, as a seed leaves no interval above
        # the median (see TestSurrogateEnvelopes); q=6 fails extraction
        values = np.array([5, 5, 0, 5, 0.7, 0.7, 0, 5, 0.7, 0.7, 0.7, 0.7, 0.7])
        monkeypatch.setattr(volintervals.pipeline, "_volatility",
                            lambda prices, cfg: (VolatilitySeries(values), None))
        csv = tmp_path / "inst.csv"
        csv.write_text("timestamp,price\n" + "".join(
            f"2000-01-{d:02d}T00:00:00,{100 + d}\n" for d in range(1, 14)))
        out = tmp_path / "out"
        cfg = AnalysisConfig(input=[str(csv)], q=[6.0, 1.0, 0.5], subsets=1,
                             ensemble=8, out=str(out))
        report = run_pipeline(cfg)
        assert [(e["q"], e["stage"]) for e in report["errors"]] == \
            [(1.0, "surrogate"), (6.0, "extract")]
        summary = json.loads((out / "inst" / "summary.json").read_text())
        assert summary["errors"] == json.loads((out / "report.json").read_text())["errors"] \
            == report["errors"]
        assert list(summary["per_q"]) == ["0.5"]


def per_threshold_envelope(vol, q, cfg):
    """Reference surrogate of one threshold: a fresh shuffle and extraction per seed."""
    surv = np.zeros((cfg.ensemble, 15))
    try:
        for i in range(cfg.ensemble):
            seq = extract_intervals(shuffle_volatility(vol, cfg.seed + i), q)
            s = cluster_survival(clusters(median_split(seq)), side="above")
            k = min(s.shape[0], 15)
            surv[i, :k] = s[:k, 1]
    except ValueError as exc:
        return exc
    mean, sd = surv.mean(axis=0), surv.std(axis=0, ddof=1)
    return np.column_stack([np.arange(1, 16), mean, mean - 3 * sd, mean + 3 * sd])


class TestSurrogateEnvelopes:
    map = map  # serial; TestSurrogateEnvelopesOnAPool reruns every case on a pool

    def assert_matches_per_threshold(self, vol, qs, cfg):
        per_seed = list(self.map(lambda i: _seed_rows(vol, qs, cfg.seed + i), range(cfg.ensemble)))
        got = {q: _envelope(rows) for q, rows in zip(qs, zip(*per_seed))}
        for q in qs:
            want = per_threshold_envelope(vol, q, cfg)
            if isinstance(want, ValueError):
                assert type(got[q]) is type(want) and str(got[q]) == str(want), q
            else:
                assert np.array_equal(got[q], want), q
        return got

    def test_matches_per_threshold_loop(self):
        vol = VolatilitySeries(np.abs(correlated_gaussian(2**14, 0.3, seed=2)))
        cfg = AnalysisConfig(input=["x.csv"], q=[1.0], seed=11, ensemble=6)
        got = self.assert_matches_per_threshold(vol, [1.0, 1.5, 2.0], cfg)
        assert all(env.shape == (15, 4) for env in got.values())

    def test_seed_without_above_median_run_fails_its_threshold(self):
        # q=1 has 3 events: a seed that spaces them evenly leaves both intervals
        # at the median; q=0.5 has 10 events and an above-median run in every seed
        vol = VolatilitySeries(np.array([5, 5, 0, 5, 0.7, 0.7, 0, 0.7, 0.7, 0.7, 0.7, 0.7]))
        cfg = AnalysisConfig(input=["x.csv"], q=[1.0], ensemble=8)
        got = self.assert_matches_per_threshold(vol, [0.5, 1.0], cfg)
        assert str(got[1.0]) == "no above-median clusters"
        assert got[0.5].shape == (15, 4)


class TestSurrogateEnvelopesOnAPool(TestSurrogateEnvelopes):
    """Every case again, with the seeds mapped over an executor of 4 threads."""

    @pytest.fixture(autouse=True)
    def _pool(self):
        with ThreadPoolExecutor(max_workers=4) as ex:
            self.map = ex.map
            yield


def test_usable_cpus_without_affinity_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # as on macOS and Windows
    assert _usable_cpus() == (os.cpu_count() or 1)


def test_surrogate_seeds_run_on_pool_threads(tmp_path, monkeypatch):
    threads = set()
    shuffle = volintervals.pipeline.shuffle_volatility

    def slow_shuffle(vol, seed):
        threads.add(threading.get_ident())
        time.sleep(0.01)  # long enough for another thread to take the next seed
        return shuffle(vol, seed)

    monkeypatch.setattr(volintervals.pipeline, "shuffle_volatility", slow_shuffle)
    monkeypatch.setattr(volintervals.pipeline, "_usable_cpus", lambda: 3)
    csv = synth_csv(tmp_path / "inst.csv", length=4000, seed=2)
    report = run_pipeline(AnalysisConfig(input=[str(csv)], q=[1.0], ensemble=16,
                                         max_workers=3, out=str(tmp_path / "out")))
    assert report["exit_code"] == 0
    assert len(threads) > 1


def test_seeds_start_while_their_unit_runs_its_stages(tmp_path, monkeypatch):
    # the unit's stage task waits up to 5 s for one of its seeds to start on the other thread
    seeding, seen = threading.Event(), []
    analyze_one, seed_rows = volintervals.pipeline._analyze_one, volintervals.pipeline._seed_rows

    def waiting_analyze_one(*args):
        seen.append(seeding.wait(5))
        return analyze_one(*args)

    def noting_seed_rows(*args):
        seeding.set()
        return seed_rows(*args)

    monkeypatch.setattr(volintervals.pipeline, "_analyze_one", waiting_analyze_one)
    monkeypatch.setattr(volintervals.pipeline, "_seed_rows", noting_seed_rows)
    monkeypatch.setattr(volintervals.pipeline, "_usable_cpus", lambda: 2)
    csv = synth_csv(tmp_path / "inst.csv", length=3000, seed=1)
    report = run_pipeline(AnalysisConfig(input=[str(csv)], q=[1.0], ensemble=4,
                                         max_workers=2, out=str(tmp_path / "out")))
    assert report["exit_code"] == 0
    assert seen == [True]


def test_a_failed_write_cancels_the_queued_seeds(tmp_path, monkeypatch, capsys):
    # --out names a file, so the unit's first write fails while its 100 seeds wait in the queue
    calls = []
    seed_rows = volintervals.pipeline._seed_rows

    def slow_seed_rows(*args):
        calls.append(args[2])
        time.sleep(0.01)
        return seed_rows(*args)

    monkeypatch.setattr(volintervals.pipeline, "_seed_rows", slow_seed_rows)
    monkeypatch.setattr(volintervals.pipeline, "_usable_cpus", lambda: 2)
    csv = synth_csv(tmp_path / "inst.csv", length=3000, seed=1)
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["analyze", str(csv), "--q", "1", "--ensemble", "100", "--out", str(afile)]) == 2
    assert str(afile) in capsys.readouterr().err
    assert len(calls) < 10


def test_unit_without_intervals_at_any_threshold_shuffles_nothing(tmp_path, monkeypatch):
    seeds = []
    shuffle = volintervals.pipeline.shuffle_volatility
    monkeypatch.setattr(volintervals.pipeline, "shuffle_volatility",
                        lambda vol, seed: seeds.append(seed) or shuffle(vol, seed))
    csv = synth_csv(tmp_path / "inst.csv", length=2000, kind="iid", seed=4)
    out = tmp_path / "out"
    report = run_pipeline(AnalysisConfig(input=[str(csv)], q=[50.0, 60.0], ensemble=10,
                                         out=str(out)))
    assert [(e["q"], e["stage"]) for e in report["errors"]] == [(50.0, "extract"), (60.0, "extract")]
    assert json.loads((out / "inst" / "summary.json").read_text())["per_q"] == {}
    assert seeds == []


def test_unit_too_sparse_for_conditional_at_any_threshold_shuffles_nothing(tmp_path, monkeypatch):
    # q = 2.9 and 3.1 leave 6 and 3 intervals: they extract, but 'conditional' needs 2 * 8 + 1
    seeds = []
    shuffle = volintervals.pipeline.shuffle_volatility
    monkeypatch.setattr(volintervals.pipeline, "shuffle_volatility",
                        lambda vol, seed: seeds.append(seed) or shuffle(vol, seed))
    csv = synth_csv(tmp_path / "inst.csv", length=2000, kind="iid", seed=4)
    out = tmp_path / "out"
    report = run_pipeline(AnalysisConfig(input=[str(csv)], q=[2.9, 3.1], ensemble=10,
                                         out=str(out)))
    assert [(e["q"], e["stage"]) for e in report["errors"]] == [(2.9, "conditional"),
                                                                (3.1, "conditional")]
    assert json.loads((out / "inst" / "summary.json").read_text())["per_q"] == {}
    assert seeds == []


def test_threshold_with_two_intervals_per_subset_fails_conditional(tmp_path, monkeypatch):
    # 17 events above q = 1: 16 intervals leave one of 8 blocks a single
    # successor, which has no standard error
    values = np.zeros(400)
    values[np.sort(np.random.default_rng(0).choice(400, 17, replace=False))] = 2.0
    monkeypatch.setattr(volintervals.pipeline, "_volatility",
                        lambda prices, cfg: (VolatilitySeries(values), None))
    seeds = []
    shuffle = volintervals.pipeline.shuffle_volatility
    monkeypatch.setattr(volintervals.pipeline, "shuffle_volatility",
                        lambda vol, seed: seeds.append(seed) or shuffle(vol, seed))
    csv = tmp_path / "inst.csv"
    csv.write_text("timestamp,price\n" + "".join(
        f"2000-01-{d:02d}T00:00:00,{100 + d}\n" for d in range(1, 14)))
    out = tmp_path / "out"
    report = run_pipeline(AnalysisConfig(input=[str(csv)], q=[1.0], ensemble=4,
                                         out=str(out)))
    assert report["errors"] == [{"instrument": "inst", "q": 1.0, "stage": "conditional",
                                 "error": "need at least 17 intervals for 8 subsets, have 16"}]
    assert seeds == []
    tsvs = sorted(out.rglob("*.tsv"))
    assert tsvs
    for path in tsvs:
        rows = [line.split("\t") for line in path.read_text().splitlines() if not line.startswith("#")]
        cells = [float(c) for row in rows[1:] for c in row if c not in ("above", "below")]
        assert np.all(np.isfinite(cells)), path


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _finish_within(seconds, fn):
    """fn() on a daemon thread, so that a deadlock fails the test instead of hanging it."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"did not finish within {seconds} s"
    assert out, "raised, see the thread's traceback"
    return out[0]


def _analyze_with_workers(config: Path, out: Path, workers: int) -> dict:
    """The tree that `analyze --config` writes with max_workers set to `workers`."""
    text = config.read_text() + f"max_workers = {workers}\nout = {out}\n"
    (out.parent / f"{out.name}.cfg").write_text(text)
    _finish_within(120, lambda: main(["analyze", "--config", str(out.parent / f"{out.name}.cfg")]))
    return _tree(out)


@pytest.mark.parametrize("run", ["daily_split", "session"])
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, run):
    config = tmp_path / "run.cfg"
    if run == "daily_split":  # the golden linear_split run: 2 units
        csv = synth_csv(tmp_path / "inst.csv", length=2**13, seed=3)
        config.write_text(f"input = {csv}\nq = 1,1.5,2,3,6\nensemble = 20\nbinning = linear\n"
                          "subsets = 2\nsplit_date = 1995-01-01\n")
    else:
        write_intraday_csv(tmp_path / "intraday.csv")
        config.write_text(f"input = {tmp_path / 'intraday.csv'}\n{SESSION_CONFIG}")
    serial = _analyze_with_workers(config, tmp_path / "w1", 1)
    assert len(serial) > 50
    assert _analyze_with_workers(config, tmp_path / "w4", 4) == serial


def test_many_units_on_two_workers_with_constant_thread_switches(tmp_path):
    # 6 units on 2 threads, then their seeds, with the GIL handed over as
    # often as possible to shake out ordering bugs
    inputs = [str(synth_csv(tmp_path / f"i{k}.csv", length=3000, seed=k)) for k in range(3)]
    cfg = dict(input=inputs, q=[1.0, 1.5], ensemble=12, split_date="1990-01-01")
    run_pipeline(AnalysisConfig(**cfg, max_workers=1, out=str(tmp_path / "serial")))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = _finish_within(120, lambda: run_pipeline(
            AnalysisConfig(**cfg, max_workers=2, out=str(tmp_path / "pooled"))))
    finally:
        sys.setswitchinterval(interval)
    assert report["exit_code"] == 0 and len(report["instruments"]) == 6
    assert _tree(tmp_path / "pooled") == _tree(tmp_path / "serial")


# the characters at which str.splitlines ends a line
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
ONE_LINE = st.characters(codec="utf-8", exclude_characters=LINE_BREAKS)
CONFIG_KEYS = list(AnalysisConfig.__dataclass_fields__)
CONFIG_VALUES = st.one_of(st.sampled_from(["0", "1", "-1", "2.5", "1,2", "nan", "true", "no", "linear",
                                           "09:00", "1990-01-01"]),
                          st.integers().map(str), st.floats().map(str), st.text(ONE_LINE, max_size=12))
# a config file's line: blank, a comment, a setting of a known or unknown key, or text without '='
CONFIG_LINES = st.one_of(
    st.text(" \t", max_size=2),
    st.text(ONE_LINE, max_size=12).map("# ".__add__),
    st.tuples(st.sampled_from(CONFIG_KEYS) | st.from_regex(r"[a-z_]{1,8}", fullmatch=True),
              CONFIG_VALUES).map(" = ".join),
    st.text(st.characters(codec="utf-8", exclude_characters=LINE_BREAKS + "="), max_size=12),
)


class TestConfigFile:
    def test_byte_order_mark_is_dropped(self, tmp_path):
        f = tmp_path / "cfg"
        f.write_bytes(b"\xef\xbb\xbfinput = a.csv\nq = 2\n")
        assert load_config(f) == AnalysisConfig(input=["a.csv"], q=[2.0])

    def test_round_trip(self, tmp_path):
        f = tmp_path / "cfg"
        f.write_text(
            "# comment\ninput = a.csv\ninput = b.csv\nq = 1.0,1.5\nbins = 20\n"
            "subsets = 4\nseed = 7\nensemble = 9\nout = results\n"
            "session_open = 09:00\nsession_close = 15:00\ndrop_session_gaps = true\n")
        cfg = load_config(f)
        assert cfg.input == ["a.csv", "b.csv"]
        assert cfg.q == [1.0, 1.5]
        assert cfg.bins == 20 and cfg.subsets == 4
        assert cfg.seed == 7 and cfg.ensemble == 9
        assert cfg.out == "results"
        assert (cfg.session_open, cfg.session_close) == ("09:00", "15:00")
        assert cfg.drop_session_gaps

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "cfg"
        f.write_text("input = a.csv\nq = 1\nwat = 3\n")
        with pytest.raises(ConfigError, match="wat"):
            load_config(f)

    @pytest.mark.parametrize("key, value", [("bins", "x"), ("q", "1,abc"), ("seed", "1.5"),
                                            ("drop_session_gaps", "ture"),
                                            # a blank item was dropped, running the others
                                            ("q", "1,,2"), ("q", "1,")])
    def test_bad_value_names_line_and_key(self, tmp_path, key, value):
        f = tmp_path / "cfg"
        f.write_text(f"input = a.csv\nq = 1\n{key} = {value}\n")
        with pytest.raises(ConfigError) as exc:
            load_config(f)
        assert str(exc.value) == f"{f}:3: bad value for {key}: {value!r}"

    @pytest.mark.parametrize("key, first, second", [("q", "1", "2"), ("seed", "1", "2"),
                                                    ("bins", "20", "20"), ("out", "a", "b")])
    def test_repeated_key_names_line_and_key(self, tmp_path, key, first, second):
        # a second line does not silently replace the first; only `input` repeats
        f = tmp_path / "cfg"
        f.write_text(f"input = a.csv\n{key} = {first}\ninput = b.csv\n{key} = {second}\n")
        with pytest.raises(ConfigError) as exc:
            load_config(f)
        assert str(exc.value) == f"{f}:4: repeated key {key!r}, first set on line 2"

    def test_line_without_equals_names_file_and_line(self, tmp_path):
        f = tmp_path / "cfg"
        f.write_text("input = a.csv\n# q = 1\n\nq 1\n")
        with pytest.raises(ConfigError) as exc:
            load_config(f)
        assert str(exc.value) == f"{f}:4: expected key=value, got 'q 1'"

    def test_unset_keys_keep_analysis_defaults(self, tmp_path):
        f = tmp_path / "cfg"
        f.write_text("input = a.csv\n")
        assert load_config(f) == AnalysisConfig(input=["a.csv"])

    def test_an_exported_out_variable_redirects_no_command(self, tmp_path, monkeypatch):
        # the output directory is the default, `out =` or --out, and no environment variable
        csv = synth_csv(tmp_path / "s.csv", length=5000, kind="iid", seed=5)
        monkeypatch.setenv(f"{volintervals.__name__.upper()}_OUT", str(tmp_path / "envout"))
        assert main(["analyze", str(csv), "--q", "1", "--ensemble", "2",
                     "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "s" / "summary.json").exists()
        assert main(["intervals", str(csv), "--q", "1", "--out", str(tmp_path / "o2")]) == 0
        assert (tmp_path / "o2" / "intervals_q1.tsv").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o", "o2", "s.csv"]

    @pytest.mark.long_search
    @given(key=st.sampled_from([k for k in CONFIG_KEYS if k != "input"]), value=CONFIG_VALUES)
    @example(key="q", value="0")
    @example(key="bins", value="1")
    @example(key="subsets", value="0")
    def test_any_setting_line_is_a_config_or_an_error_naming_its_key(self, tmp_path_factory, key, value):
        f = tmp_path_factory.mktemp("cfg") / "c.cfg"
        f.write_text(f"input = a.csv\n{key} = {value}\n", encoding="utf-8")
        try:
            cfg = load_config(f)
        except ConfigError as exc:
            assert re.search(rf"\b{key}\b", str(exc)), str(exc)
        else:
            assert isinstance(cfg, AnalysisConfig)

    @pytest.mark.long_search
    @given(lines=st.lists(CONFIG_LINES, max_size=8))
    @example(lines=["input = a.csv", "q = 1", "# q = 3", "", "q = 2"])
    @example(lines=["input = a.csv", "wat = 3"])
    @example(lines=["q = 1"])
    def test_any_config_text_is_a_config_or_an_error_naming_its_line_or_key(self, tmp_path_factory, lines):
        text = "\n".join(lines)
        f = tmp_path_factory.mktemp("cfg") / "c.cfg"
        f.write_text(text, encoding="utf-8")
        try:
            cfg = load_config(f)
        except ConfigError as exc:
            m = re.match(rf"{re.escape(str(f))}:(\d+): ", str(exc))
            if m is None:  # a value that AnalysisConfig rejects, or one that is missing
                assert re.search(rf"\b({'|'.join(CONFIG_KEYS)})\b", str(exc)), str(exc)
            else:
                line = text.splitlines()[int(m[1]) - 1].strip()
                assert line and not line.startswith("#"), str(exc)
                if repeated := re.search(r"repeated key '(\w+)', first set on line (\d+)$", str(exc)):
                    first = int(repeated[2])
                    assert first < int(m[1]), str(exc)
                    assert text.splitlines()[first - 1].split("=", 1)[0].strip() == repeated[1], str(exc)
        else:
            assert isinstance(cfg, AnalysisConfig)


# a blank value names no file, so before it was rejected the run read "." or wrote into
# the working directory, or ran unsplit; each route must exit 2 and write nothing there
def _only_the_input_in_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return synth_csv(tmp_path / "a.csv", length=3000, kind="iid", seed=6).name


class TestBlankValues:
    @pytest.mark.parametrize("key", ["input", "out", "split_date", "session_open"])
    def test_config_line(self, tmp_path, monkeypatch, capsys, key):
        csv = _only_the_input_in_cwd(tmp_path, monkeypatch)
        config = tmp_path / "c.cfg"
        config.write_text(f"input = {csv}\nq = 1\nensemble = 2\n{key} =\n")
        assert main(["analyze", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {config}:4: empty value for {key}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "c.cfg"]

    @pytest.mark.parametrize("argv, err", [
        (["analyze", "a.csv", "--out", ""], "out must not be blank, got ''"),
        (["analyze", "a.csv", "--out", " "], "out must not be blank, got ' '"),
        (["analyze", "a.csv", "--split-date", ""], f"split_date: bad timestamp '': {TIMESTAMP_RULE}"),
        (["analyze", ""], "input must not be blank, got ''"),
        (["analyze", "a.csv", ""], "input must not be blank, got ''"),
        (["intervals", "a.csv", "--out", ""], "out must not be blank, got ''"),
        (["split", "a.csv", "--split-date", "1984-06-01", "--out", ""], "--out must not be blank, got ''"),
        (["synth", "--out", ""], "--out must not be blank, got ''"),
    ], ids=["out", "out_space", "split_date", "input", "second_input", "stage_out", "split_out",
            "synth_out"])
    def test_typed_flag(self, tmp_path, monkeypatch, capsys, argv, err):
        _only_the_input_in_cwd(tmp_path, monkeypatch)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    @pytest.mark.parametrize("override, err", [
        ({"input": [""]}, "input must not be blank, got ''"),
        ({"input": ["a.csv", "\t"]}, "input must not be blank, got '\\t'"),
        ({"out": ""}, "out must not be blank, got ''"),
        ({"split_date": ""}, f"split_date: bad timestamp '': {TIMESTAMP_RULE}"),
        # a blank session bound is a bound that is not HH:MM, not a session left out
        ({"session_open": "", "session_close": ""}, "session_open must be HH:MM, got ''"),
        ({"session_open": "09:00", "session_close": ""}, "session_close must be HH:MM, got ''"),
        ({"session_open": "", "session_close": "15:00"}, "session_open must be HH:MM, got ''"),
        ({"session_open": "", "session_close": "", "drop_session_gaps": True},
         "session_open must be HH:MM, got ''"),
    ], ids=["input", "second_input", "out_dir", "split_date", "session_bounds", "session_close",
            "session_open", "session_bounds_dropping_gaps"])
    def test_analysis_config(self, tmp_path, monkeypatch, override, err):
        _only_the_input_in_cwd(tmp_path, monkeypatch)
        with pytest.raises(ConfigError) as exc:
            run_pipeline(AnalysisConfig(**{"input": ["a.csv"], "q": [1.0], "ensemble": 2,
                                           **override}))
        assert str(exc.value) == err
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


class TestCli:
    # a config line, a typed flag and a library keyword share one name, the one the error
    # gives; TestBlankValues has `--out ""`
    @pytest.mark.parametrize("line, flags, err", [
        ("bins = 1", [], "bins must be >= 2, got 1"),
        ("", ["--bins", "1"], "bins must be >= 2, got 1"),
        ("", ["--q", "0"], "q must be a non-empty list of finite, positive numbers, got [0.0]"),
    ], ids=["bins_line", "bins_flag", "q_flag"])
    def test_invalid_value_exits_2_naming_its_key(self, tmp_path, monkeypatch, capsys, line, flags, err):
        monkeypatch.chdir(tmp_path)  # where the default `out` would be written
        config = tmp_path / "c.cfg"
        config.write_text(f"input = a.csv\n{line}\n")
        assert main(["analyze", "--config", str(config), *flags]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]

    def test_intervals_subcommand(self, tmp_path, capsys):
        csv = synth_csv(tmp_path / "s.csv", length=5000, kind="iid", seed=5)
        rc = main(["intervals", str(csv), "--q", "1.0", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "intervals_q1.tsv").exists()
        summary = json.loads((tmp_path / "o" / "intervals_summary.json").read_text())
        assert summary[0]["q"] == 1.0

    def test_pdf_subcommand(self, tmp_path):
        csv = synth_csv(tmp_path / "s.csv", length=5000, kind="iid", seed=5)
        rc = main(["pdf", str(csv), "--q", "1.0", "--out", str(tmp_path / "o")])
        assert rc == 0
        body = (tmp_path / "o" / "scaled_pdf_q1.tsv").read_text().splitlines()
        assert body[0] == "x\ty"

    def test_conditional_subcommand(self, tmp_path):
        csv = synth_csv(tmp_path / "s.csv", length=20000, kind="correlated", seed=5)
        rc = main(["conditional", str(csv), "--q", "1.0", "--subsets", "4",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "conditional_pdf_q1_k4.tsv").exists()
        assert (tmp_path / "o" / "conditional_mean_q1.tsv").exists()

    @pytest.mark.parametrize("command, stdout", [
        ("pdf", r"q=1: mean_interval=\S+ geometric_deviation=\S+\n"),
        ("intervals", ""),  # its counts are printed, and written, only once every q passed
    ])
    def test_subcommand_stops_at_its_first_failing_threshold(self, tmp_path, capsys, command, stdout):
        csv = synth_csv(tmp_path / "s.csv", length=5000, kind="iid", seed=5)
        capsys.readouterr()
        out = tmp_path / "o"
        assert main([command, str(csv), "--q", "1", "--q", "50", "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert re.fullmatch(stdout, printed.out)
        assert printed.err == "error: threshold q=50: found 0 event(s), need at least 2\n"
        stem = {"pdf": "scaled_pdf", "intervals": "intervals"}[command]
        assert [p.name for p in out.iterdir()] == [f"{stem}_q1.tsv"]

    def test_clusters_subcommand(self, tmp_path):
        csv = synth_csv(tmp_path / "s.csv", length=20000, kind="correlated", seed=5)
        rc = main(["clusters", str(csv), "--q", "1.0", "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "cluster_survival_q1.tsv").read_text().splitlines()
        assert lines[0] == "side\tk\tsurvival"
        assert lines[1].startswith("above\t1\t1")

    def test_split_subcommand(self, tmp_path):
        csv = synth_csv(tmp_path / "s.csv", length=3000, kind="iid", seed=6)
        rc = main(["split", str(csv), "--split-date", "1988-06-01",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "s_pre.csv").exists()
        assert (tmp_path / "o" / "s_post.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["intervals", "--seed", "1"],
        ["intervals", "--bins", "12"],
        ["pdf", "--ensemble", "5"],
        ["pdf", "--subsets", "4"],
        ["conditional", "--split-date", "1990-01-01"],
        ["clusters", "--drop-session-gaps"],
        ["clusters", "--linear-bins"],
        ["analyze", "--drop-session-gaps"],
    ], ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
    def test_unread_flags_rejected(self, tmp_path, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(tmp_path / "s.csv"), "--q", "1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("binning", ["--linear-bins", "--log-bins"])
    def test_subcommand_files_match_analyze(self, tmp_path, binning):
        csv = synth_csv(tmp_path / "s.csv", length=20000, kind="correlated", seed=7)
        qs = ["--q", "1", "--q", "1.5"]
        bins = [binning, "--bins", "12"]
        assert main(["analyze", str(csv), *qs, *bins, "--subsets", "4", "--ensemble", "2",
                     "--out", str(tmp_path / "a")]) == 0
        flags = {"intervals": [], "pdf": bins, "conditional": [*bins, "--subsets", "4"],
                 "clusters": []}
        expected = {"intervals": 2, "pdf": 2, "conditional": 10, "clusters": 2}
        for cmd, extra in flags.items():
            out = tmp_path / cmd
            assert main([cmd, str(csv), *qs, *extra, "--out", str(out)]) == 0
            files = sorted(out.glob("*.tsv"))
            assert len(files) == expected[cmd]
            for f in files:
                m = re.fullmatch(r"(.+)_q([\d.]+)(_k\d+)?\.tsv", f.name)
                twin = tmp_path / "a" / "s" / f"q{m[2]}" / f"{m[1]}{m[3] or ''}.tsv"
                assert f.read_bytes() == twin.read_bytes(), f.name

    def test_typed_flags_override_the_config_file(self, tmp_path):
        csv = synth_csv(tmp_path / "s.csv", length=10000, kind="correlated", seed=6)
        config = tmp_path / "c.cfg"
        config.write_text(f"input = {csv}\nq = 1\nseed = 3\nensemble = 4\nbins = 12\n"
                          f"out = {tmp_path / 'file_out'}\n")
        typed = ["--q", "2", "--seed", "7", "--ensemble", "9"]
        assert main(["analyze", "--config", str(config), *typed,
                     "--out", str(tmp_path / "typed")]) == 0
        # the file's bins stay, everything typed wins
        assert main(["analyze", str(csv), *typed, "--bins", "12",
                     "--out", str(tmp_path / "plain")]) == 0
        assert not (tmp_path / "file_out").exists()
        assert _tree(tmp_path / "typed") == _tree(tmp_path / "plain")
        assert (tmp_path / "typed" / "s" / "q2" / "cluster_surrogate.tsv").read_text().startswith(
            "# seeds=9\n")

    def test_typed_values_replace_the_file_before_it_is_checked(self, tmp_path):
        csv = synth_csv(tmp_path / "s.csv", length=5000, kind="iid", seed=5)
        config = tmp_path / "c.cfg"
        config.write_text("q = 1\nseed = -1\nensemble = 2\n")  # no input, a bad seed
        assert main(["analyze", "--config", str(config), str(csv), "--seed", "4",
                     "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "s" / "q1" / "cluster_surrogate.tsv").exists()

    @pytest.mark.parametrize("config", [None, "q = 1\n"], ids=["no_config", "config_without_input"])
    def test_analyze_without_inputs_is_a_config_error(self, tmp_path, capsys, config):
        argv = ["analyze", "--out", str(tmp_path / "o")]
        if config is not None:
            (tmp_path / "c.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "c.cfg")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: no input files configured\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys, kind):
        config = tmp_path / "c.cfg"
        if kind == "directory":
            config.mkdir()
        elif kind == "not_utf8":
            config.write_bytes(b"q = 1\nout = \xe9\n")
        assert main(["analyze", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: cannot read config file: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_split_date_with_an_offset_is_rejected(self, tmp_path, capsys):
        csv = synth_csv(tmp_path / "s.csv", length=3000, kind="iid", seed=6)
        assert main(["split", str(csv), "--split-date", "1988-06-01T09:00+09:00",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (f"error: split_date: bad timestamp '1988-06-01T09:00+09:00': "
                                           f"{TIMESTAMP_RULE}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["split", "analyze"])
    def test_split_date_today_is_rejected(self, tmp_path, capsys, command):
        csv = synth_csv(tmp_path / "s.csv", length=3000, kind="iid", seed=6)
        assert main([command, str(csv), "--split-date", "today", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: split_date: bad timestamp 'today': {TIMESTAMP_RULE}\n"
        assert not (tmp_path / "o").exists()

    # a start, and why the rule is needed to reject it (None: numpy rejects it too)
    @pytest.mark.parametrize("start, why", [
        ("now", "it would be read as the time of the run"),
        ("Today", "it would be read as the time of the run"),
        ("2000-01-01T09:00+09:00", "UTC offsets are not supported"),
        ("2000-01-01T00:00:00.5", "fractions of a second are not supported"),
        ("2000-13-01", None),
        ("2000-01-01T09:00:00.000", "zero fractions are a form no caller writes"),
    ])
    def test_synth_start_follows_the_timestamp_rule(self, tmp_path, capsys, start, why):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # not a time zone warning instead of the error
            assert main(["synth", "--length", "100", "--start", start, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --start: bad timestamp {start!r}: {TIMESTAMP_RULE}\n"
        assert not out.exists()

    @pytest.mark.parametrize("start, second", [
        ("2000-01-01T09:00", "2000-01-01T09:01:00"),
        ("2000-01-01 09:00", "2000-01-01T09:01:00"),
    ])
    def test_synth_start_of_whole_seconds_is_kept(self, tmp_path, start, second):
        out = tmp_path / "s.csv"
        assert main(["synth", "--length", "10", "--start", start, "--interval", "1m",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[2].startswith(f"{second},")

    @pytest.mark.parametrize("interval, second", [
        ("1m", "1984-01-04T00:01:00"),
        ("1min", "1984-01-04T00:01:00"),
        ("90s", "1984-01-04T00:01:30"),
        ("2h", "1984-01-04T02:00:00"),
        ("1d", "1984-01-05T00:00:00"),
        ("1day", "1984-01-05T00:00:00"),
        ("10", "1984-01-04T00:00:10"),
    ])
    def test_synth_interval(self, tmp_path, interval, second):
        out = tmp_path / "s.csv"
        assert main(["synth", "--length", "10", "--interval", interval, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("1984-01-04T00:00:00,") and lines[2].startswith(f"{second},")

    # numpy's M is a month and H no unit, so neither is read as minutes or hours
    @pytest.mark.parametrize("interval", ["0", "-1d", "0.5h", "x", "1M", "2H"])
    def test_synth_bad_interval_exits_2(self, tmp_path, capsys, interval):
        out = tmp_path / "s.csv"
        assert main(["synth", "--length", "10", f"--interval={interval}", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --interval must be a count of at least 1 "
                                                  f"and a unit d, day, h, m, min or s, got {interval!r}")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["iid", "correlated"])
    @pytest.mark.parametrize("length", [0, 1])
    def test_synth_length_below_2_exits_2(self, tmp_path, capsys, kind, length):
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the error
            assert main(["synth", "--kind", kind, "--length", str(length), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --length must be >= 2, got {length}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--length", "3", "--interval", "99999999999999999999d"],
        ["--length", "3", "--interval", "999999999999d"],
        ["--start", "9999-12-31", "--length", "3"],
    ], ids=["interval_past_int64", "interval_past_year_9999", "start_near_year_9999"])
    def test_synth_past_year_9999_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "s.csv"
        assert main(["synth", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: --start \S+, --interval \S+ and --length 3 "
                            r"put the last row after 9999-12-31T23:59:59\n", err), err
        assert not out.exists()

    def test_synth_may_end_at_the_last_second(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["synth", "--start", "9999-12-31T23:59:58", "--length", "2", "--interval", "1",
                     "--out", str(out)]) == 0
        assert ingest_csv(out).timestamps[-1] == np.datetime64("9999-12-31T23:59:59")

    @pytest.mark.parametrize("kind, gamma, shown", [("correlated", "1.5", "1.5"), ("iid", "5", "5.0"),
                                                    ("correlated", "nan", "nan"), ("iid", "0", "0.0")])
    def test_synth_gamma_outside_0_1_exits_2(self, tmp_path, capsys, kind, gamma, shown):
        out = tmp_path / "s.csv"
        assert main(["synth", "--kind", kind, "--gamma", gamma, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --gamma must lie in (0, 1), got {shown}\n"
        assert not out.exists()

    def test_synth_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["synth", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "split"])
    def test_out_that_cannot_be_written_exits_2_naming_it(self, tmp_path, capsys, command):
        csv = synth_csv(tmp_path / "a.csv", length=3000, kind="iid", seed=6)
        before = csv.read_bytes()
        flags = ["--split-date", "1988-06-01"] if command == "split" else ["--q", "1", "--ensemble", "2"]
        assert main([command, str(csv), *flags, "--out", str(csv)]) == 2  # a file, not a directory
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(csv) in err, err
        assert csv.read_bytes() == before

    @pytest.mark.parametrize("via", ["arguments", "config"])
    def test_inputs_with_one_stem_exit_2_naming_both(self, tmp_path, capsys, via):
        # out/<stem>/ would hold one tree, each file from whichever unit wrote it last
        a = synth_csv(tmp_path / "a" / "x.csv", length=4000, seed=1)
        b = synth_csv(tmp_path / "b" / "x.csv", length=3000, seed=2)
        out = tmp_path / "out"
        flags = ["--q", "1", "--q", "2", "--ensemble", "5", "--out", str(out)]
        if via == "config":
            config = tmp_path / "c.cfg"
            config.write_text(f"input = {a}\ninput = {b}\n")
            flags += ["--config", str(config)]
        else:
            flags += [str(a), str(b)]
        assert main(["analyze", *flags]) == 2
        assert capsys.readouterr().err == (f"error: input {a} and {b} share the file stem 'x', "
                                           "which names their output directory\n")
        assert not out.exists()

    @pytest.mark.parametrize("via", ["arguments", "config"])
    @pytest.mark.parametrize("name, stem", [(".", ""), ("..csv", "."), ("...csv", ".."),
                                            ("report.json.csv", "report.json")])
    def test_input_whose_stem_cannot_name_a_directory_exits_2(self, tmp_path, monkeypatch, capsys,
                                                              via, name, stem):
        # out/. is out itself, out/.. its parent, and out/report.json the run's report
        monkeypatch.chdir(tmp_path)
        if name != ".":
            synth_csv(tmp_path / name, length=3000, kind="iid", seed=6)
        flags = ["--q", "1", "--ensemble", "2", "--out", "out"]
        if via == "config":
            (tmp_path / "c.cfg").write_text(f"input = {name}\n")
            flags += ["--config", "c.cfg"]
        else:
            flags.append(name)
        before = sorted(tmp_path.rglob("*"))
        assert main(["analyze", *flags]) == 2
        assert capsys.readouterr().err == (f"error: input {name} has the file stem {stem!r}, "
                                           "which cannot name its output directory\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["analyze", "pdf"])
    def test_thresholds_with_one_name_exit_2_naming_both(self, tmp_path, capsys, command):
        # q1/, the per_q key and the pdf line of one would stand for both
        csv = synth_csv(tmp_path / "s.csv", length=5000, kind="iid", seed=5)
        out = tmp_path / "o"
        assert main([command, str(csv), "--q", "1.0000001", "--q", "2", "--q", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: q 1.0 and 1.0000001 both print as '1'\n"
        assert not out.exists()

    def test_analyze_prints_thresholds_in_ascending_order(self, tmp_path, capsys):
        # rare large jumps, each above 10 standard deviations, so q=2 and q=10 both pass
        rng = np.random.default_rng(4)
        returns = 1e-4 * rng.standard_normal(20000)
        jumps = rng.choice(returns.size, 40, replace=False)
        returns[jumps] = 0.05 * rng.choice([-1, 1], jumps.size)
        ts = np.datetime64("2000-01-01T00:00:00") + np.arange(returns.size) * np.timedelta64(60, "s")
        write_csv(PriceSeries("jumps", ts, 100 * np.exp(np.cumsum(returns)), np.timedelta64(60, "s")),
                  tmp_path / "jumps.csv")
        assert main(["analyze", str(tmp_path / "jumps.csv"), "--q", "2", "--q", "10", "--subsets", "2",
                     "--ensemble", "2", "--out", str(tmp_path / "o")]) == 0
        assert re.fullmatch(r"jumps: q=2: <tau>=\S+, q=10: <tau>=\S+\n", capsys.readouterr().out)

    def test_analyze_subcommand_exit_codes(self, tmp_path):
        csv = synth_csv(tmp_path / "s.csv", length=10000, kind="correlated", seed=6)
        rc = main(["analyze", str(csv), "--q", "1.0", "--ensemble", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        rc_bad = main(["analyze", str(tmp_path / "missing.csv"), "--q", "1.0",
                       "--out", str(tmp_path / "o2")])
        assert rc_bad != 0
