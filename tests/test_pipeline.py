import json
import re
import shutil
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from volintervals import (
    AnalysisConfig,
    PriceSeries,
    VolatilitySeries,
    cluster_survival,
    clusters,
    extract_intervals,
    ingest_csv,
    median_split,
    run_pipeline,
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
    _analyze_one,
    _envelope,
    _seed_rows,
    _write_json,
    load_config,
)
from volintervals.synthetic import correlated_gaussian

from test_golden import SESSION_CONFIG, write_intraday_csv


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
                            r"line 3: bad timestamp NaT"),
        "nat_timestamp": (b"timestamp,price\n2000-01-03,1\n2000-01-04,2\nNaT,3\n",
                          r"line 4: bad timestamp NaT"),
        "epoch_seconds_as_year": (b"timestamp,price\n946857600,1\n946944000,2\n",
                                  r"line 2: bad timestamp 946857600, need a date in years 1-9999"),
        "duplicate_names_line": (b"timestamp,price\n2000-01-04,1\n2000-01-03,2\n\n2000-01-04,3\n",
                                 r"line 5: duplicate timestamp 2000-01-04"),
        "field_over_csv_limit": (b"timestamp,price\n2000-01-03,1\n" + b"9" * 200_000 + b",2\n",
                                 r"line 3: field larger than field limit"),
        "not_utf8": (b"timestamp,price\n2000-01-03,1\n2000-01-04,2\n2000-01-05,\xe9\n",
                     r"line 4: not UTF-8 text"),
        "utc_offset_east": (b"timestamp,price\n2020-01-01T09:00+09:00,1\n2020-01-01T09:01+09:00,2\n",
                            r"line 2: bad timestamp '2020-01-01T09:00\+09:00': UTC offsets"),
        "utc_offset_west": (b"timestamp,price\n2020-01-01 09:00,1\n2020-01-01 09:01-05:00,2\n",
                            r"line 3: bad timestamp '2020-01-01 09:01-05:00': UTC offsets"),
        "utc_offset_z": (b"timestamp,price\n2020-01-01T00:00:00Z,1\n2020-01-02T00:00:00Z,2\n",
                         r"line 2: bad timestamp '2020-01-01T00:00:00Z': UTC offsets"),
        "sub_second_pair": (b"timestamp,price\n2020-01-01T00:00:00.2,1\n2020-01-01T00:00:00.7,2\n",
                            r"line 2: bad timestamp '2020-01-01T00:00:00.2': fractions of a second"),
        "sub_second_later": (b"timestamp,price\n2020-01-01T00:00:01.000,1\n"
                             b"2020-01-01T00:00:02.50,2\n2020-01-01T00:00:03,3\n",
                             r"line 3: bad timestamp '2020-01-01T00:00:02.50': fractions of a second"),
        "ten_zero_digits": (b"timestamp,price\n2020-01-01T00:00:00.0000000000,1\n"
                            b"2020-01-01T00:00:01,2\n", r"line 2: .*: fractions of a second"),
    }

    @pytest.mark.filterwarnings("ignore:.*out of order")
    @pytest.mark.parametrize("case", BAD_CONTENT)
    def test_bad_content_is_an_ingest_error_naming_the_line(self, tmp_path, case):
        content, message = self.BAD_CONTENT[case]
        f = tmp_path / "x.csv"
        f.write_bytes(content)
        with pytest.raises(IngestError, match=rf"^{re.escape(str(f))}: {message}"):
            ingest_csv(f)

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
        f = tmp_path / "w.csv"
        f.write_text("timestamp,price\n2000-01-01T00:00:00.000,1\n+2000-01-01 00:00:01.,2\n"
                     "2000-01-01T00:00:02,3\n")
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


TIMESTAMPS = st.one_of(
    st.datetimes(datetime(1900, 1, 1), datetime(2100, 1, 1)).map(datetime.isoformat),
    st.sampled_from(["", "NaT", "2000-01-01", "2000-01-01T00:00:00.5", "2000-13-01",
                     "123456789", "-0001-01-01", "2000-01-01T00:00Z", '"2000-01-01',
                     "2000-01-01T09:00+09:00", "2000-01-01T09:00:00-05:00",
                     "2000-01-01 09:00-0500", "2000-01-01T09+09", "1-01-01T09-05",
                     "2000-01-01T00:00:00.000"])
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


@given(header=st.sampled_from(["timestamp,price", "Timestamp , PRICE,volume", "time,price", ""]),
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


class TestSplitByDate:
    def test_cut_before_all_data_raises(self, tmp_path):
        s = ingest_csv(synth_csv(tmp_path / "s.csv", length=100, kind="iid"))
        with pytest.raises(ValueError):
            split_by_date(s, "1970-01-01")

    def test_lengths(self, tmp_path):
        s = ingest_csv(synth_csv(tmp_path / "s.csv", length=100, kind="iid"))
        cut = s.timestamps[40]
        pre, post = split_by_date(s, cut)
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


# case id -> (AnalysisConfig keyword overrides, key the error must name)
INVALID_CONFIGS = {
    "empty_thresholds": ({"thresholds": []}, "threshold"),
    "nan_threshold": ({"thresholds": [1.0, float("nan")]}, "thresholds"),
    "inf_threshold": ({"thresholds": [float("inf")]}, "thresholds"),
    "negative_threshold": ({"thresholds": [-1.0]}, "thresholds"),
    "zero_subsets": ({"n_subsets": 0}, "n_subsets"),
    "one_bin": ({"n_bins": 1}, "n_bins"),
    "unknown_binning": ({"binning": "log"}, "binning"),
    "zero_workers": ({"max_workers": 0}, "max_workers"),
    "zero_ensemble": ({"ensemble": 0}, "ensemble"),
    "open_without_close": ({"session_open": "09:00"}, "session_close"),
    "close_without_open": ({"session_close": "15:00"}, "session_open"),
    "gaps_without_session": ({"drop_session_gaps": True}, "drop_session_gaps"),
    "open_not_hhmm": ({"session_open": "9am", "session_close": "15:00"}, "session_open"),
    "close_not_hhmm": ({"session_open": "09:00", "session_close": "25:00"}, "session_close"),
    "open_after_close": ({"session_open": "15:00", "session_close": "09:00"}, "session_open"),
}


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    csv = synth_csv(tmp / "inst.csv", length=20000, kind="correlated", seed=1)
    cfg = AnalysisConfig(inputs=[str(csv)], thresholds=[1.0, 2.0],
                         seed=0, ensemble=5, out_dir=str(tmp / "out"))
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
        with pytest.raises(ConfigError, match=key):
            AnalysisConfig(**{"inputs": ["x.csv"], "thresholds": [1.0], **override})

    def test_json_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "x.json", {"q": float("nan")})
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_reruns_byte_identical(self, pipeline_run, tmp_path):
        tmp, cfg, _ = pipeline_run
        cfg2 = AnalysisConfig(inputs=cfg.inputs, thresholds=cfg.thresholds,
                              seed=cfg.seed, ensemble=cfg.ensemble,
                              out_dir=str(tmp_path / "out2"))
        run_pipeline(cfg2)
        base = Path(cfg.out_dir)
        for f in sorted((tmp_path / "out2").rglob("*")):
            if f.is_file():
                rel = f.relative_to(tmp_path / "out2")
                assert f.read_bytes() == (base / rel).read_bytes(), rel

    def test_per_q_outputs_independent(self, pipeline_run, tmp_path):
        tmp, cfg, _ = pipeline_run
        cfg2 = AnalysisConfig(inputs=cfg.inputs, thresholds=[1.0],
                              seed=cfg.seed, ensemble=cfg.ensemble,
                              out_dir=str(tmp_path / "only_q1"))
        run_pipeline(cfg2)
        base = Path(cfg.out_dir) / "inst" / "q1"
        for f in sorted((tmp_path / "only_q1" / "inst" / "q1").glob("*")):
            assert f.read_bytes() == (base / f.name).read_bytes(), f.name

    def test_period_split_trees_have_identical_schema(self, tmp_path):
        csv = synth_csv(tmp_path / "inst.csv", length=20000, kind="correlated", seed=2)
        cfg = AnalysisConfig(inputs=[str(csv)], thresholds=[1.0], ensemble=3,
                             split_date="2005-01-01", out_dir=str(tmp_path / "out"))
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
        # q=3.5 has 11 events: extraction passes, 8 conditional subsets need 16 intervals
        cfg = AnalysisConfig(inputs=[str(csv)], thresholds=[3.5, 1.0], ensemble=5,
                             out_dir=str(out))
        report = run_pipeline(cfg)
        assert report["errors"] == [{
            "error": "need at least 16 intervals for 8 subsets, have 10",
            "instrument": "inst", "q": 3.5, "stage": "conditional"}]
        assert sorted(p.name for p in (out / "inst" / "q3.5").iterdir()) == \
            ["intervals.tsv", "scaled_pdf.tsv"]
        assert (out / "inst" / "q1" / "cluster_surrogate.tsv").read_text() \
            .startswith("# seeds=5\nk\tmean\tlo\thi\n")
        summary = json.loads((out / "inst" / "summary.json").read_text())
        assert list(summary["per_q"]) == ["1"]
        assert json.loads((out / "inst" / "collapse_matrix.json").read_text())["q"] == ["1", "3.5"]

    def test_errors_attributed_and_pipeline_continues(self, tmp_path):
        csv = synth_csv(tmp_path / "inst.csv", length=2000, kind="iid", seed=4)
        # q=50 yields no events; q=1 still succeeds
        cfg = AnalysisConfig(inputs=[str(csv)], thresholds=[1.0, 50.0], ensemble=2,
                             out_dir=str(tmp_path / "out"))
        report = run_pipeline(cfg)
        assert report["exit_code"] == 1
        assert any(e["q"] == 50.0 and e["stage"] == "extract" for e in report["errors"])
        assert (tmp_path / "out" / "inst" / "q1" / "intervals.tsv").exists()


    def test_repeated_thresholds_run_once(self, tmp_path):
        csv = synth_csv(tmp_path / "inst.csv", length=2000, kind="iid", seed=4)
        out = tmp_path / "out"
        assert main(["analyze", str(csv), "--q", "1", "--q", "1", "--q", "50", "--q", "50",
                     "--ensemble", "2", "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert [(e["q"], e["stage"]) for e in report["errors"]] == [(50.0, "extract")]
        assert list(report["instruments"][0]["per_q"]) == ["1"]
        cfg = AnalysisConfig(inputs=["x.csv"], thresholds=[2.0, 1.0, 2.0, 1.0])
        assert cfg.thresholds == [1.0, 2.0]

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

    def test_conditional_blocks_sorted_once_per_statistic(self, tmp_path, monkeypatch):
        # conditional PDFs, conditional mean, shuffled conditional mean
        calls = []
        blocks = volintervals.memory.conditional_blocks
        monkeypatch.setattr(volintervals.memory, "conditional_blocks",
                            lambda seq, n: calls.append(seq.threshold_q) or blocks(seq, n))
        prices = ingest_csv(synth_csv(tmp_path / "inst.csv", length=20000, seed=1))
        cfg = AnalysisConfig(inputs=["inst.csv"], thresholds=[1.0, 2.0], ensemble=2)
        summary, _, passed = _analyze_one(prices, cfg, tmp_path / "out")
        assert summary["errors"] == [] and list(passed) == [1.0, 2.0]
        assert calls == [1.0] * 3 + [2.0] * 3

    @pytest.mark.filterwarnings("ignore:all intervals identical")
    def test_surrogate_error_keeps_its_threshold_order(self, tmp_path, monkeypatch):
        # q=0.5 passes every stage, q=1 passes all but the surrogate (see
        # TestSurrogateEnvelopes) and q=6 fails extraction
        values = np.array([5, 5, 0, 5, 0.7, 0.7, 0, 0.7, 0.7, 0.7, 0.7, 0.7])
        monkeypatch.setattr(volintervals.pipeline, "_volatility",
                            lambda prices, cfg: (VolatilitySeries(values), None))
        csv = tmp_path / "inst.csv"
        csv.write_text("timestamp,price\n" + "".join(
            f"2000-01-{d:02d}T00:00:00,{100 + d}\n" for d in range(1, 14)))
        out = tmp_path / "out"
        cfg = AnalysisConfig(inputs=[str(csv)], thresholds=[6.0, 1.0, 0.5], n_subsets=1,
                             ensemble=8, out_dir=str(out))
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
        cfg = AnalysisConfig(inputs=["x.csv"], thresholds=[1.0], seed=11, ensemble=6)
        got = self.assert_matches_per_threshold(vol, [1.0, 1.5, 2.0], cfg)
        assert all(env.shape == (15, 4) for env in got.values())

    def test_seed_without_above_median_run_fails_its_threshold(self):
        # q=1 has 3 events: a seed that spaces them evenly leaves both intervals
        # at the median; q=0.5 has 10 events and an above-median run in every seed
        vol = VolatilitySeries(np.array([5, 5, 0, 5, 0.7, 0.7, 0, 0.7, 0.7, 0.7, 0.7, 0.7]))
        cfg = AnalysisConfig(inputs=["x.csv"], thresholds=[1.0], ensemble=8)
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
    report = run_pipeline(AnalysisConfig(inputs=[str(csv)], thresholds=[1.0], ensemble=16,
                                         max_workers=3, out_dir=str(tmp_path / "out")))
    assert report["exit_code"] == 0
    assert len(threads) > 1


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
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, run):
    monkeypatch.delenv("VOLINTERVALS_OUT", raising=False)
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


def test_many_units_on_two_workers_with_constant_thread_switches(tmp_path, monkeypatch):
    # 6 units on 2 threads, then their seeds, with the GIL handed over as
    # often as possible to shake out ordering bugs
    monkeypatch.delenv("VOLINTERVALS_OUT", raising=False)
    inputs = [str(synth_csv(tmp_path / f"i{k}.csv", length=3000, seed=k)) for k in range(3)]
    cfg = dict(inputs=inputs, thresholds=[1.0, 1.5], ensemble=12, split_date="1990-01-01")
    run_pipeline(AnalysisConfig(**cfg, max_workers=1, out_dir=str(tmp_path / "serial")))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = _finish_within(120, lambda: run_pipeline(
            AnalysisConfig(**cfg, max_workers=2, out_dir=str(tmp_path / "pooled"))))
    finally:
        sys.setswitchinterval(interval)
    assert report["exit_code"] == 0 and len(report["instruments"]) == 6
    assert _tree(tmp_path / "pooled") == _tree(tmp_path / "serial")


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        f = tmp_path / "cfg"
        f.write_text(
            "# comment\ninput = a.csv\ninput = b.csv\nq = 1.0,1.5\nbins = 20\n"
            "subsets = 4\nseed = 7\nensemble = 9\nout = results\n"
            "session_open = 09:00\nsession_close = 15:00\ndrop_session_gaps = true\n")
        cfg = load_config(f)
        assert cfg.inputs == ["a.csv", "b.csv"]
        assert cfg.thresholds == [1.0, 1.5]
        assert cfg.n_bins == 20 and cfg.n_subsets == 4
        assert cfg.seed == 7 and cfg.ensemble == 9
        assert cfg.out_dir == "results"
        assert (cfg.session_open, cfg.session_close) == ("09:00", "15:00")
        assert cfg.drop_session_gaps

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "cfg"
        f.write_text("input = a.csv\nq = 1\nwat = 3\n")
        with pytest.raises(ConfigError, match="wat"):
            load_config(f)

    @pytest.mark.parametrize("key, value", [("bins", "x"), ("q", "1,abc"), ("seed", "1.5")])
    def test_bad_value_names_line_and_key(self, tmp_path, key, value):
        f = tmp_path / "cfg"
        f.write_text(f"input = a.csv\nq = 1\n{key} = {value}\n")
        with pytest.raises(ConfigError) as exc:
            load_config(f)
        assert str(exc.value) == f"{f}:3: bad value for {key}: {value!r}"

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VOLINTERVALS_OUT", str(tmp_path / "envout"))
        cfg = AnalysisConfig(inputs=["a.csv"], thresholds=[1.0], out_dir="ignored")
        assert cfg.out_dir == str(tmp_path / "envout")


class TestCli:
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

    def test_analyze_subcommand_exit_codes(self, tmp_path):
        csv = synth_csv(tmp_path / "s.csv", length=10000, kind="correlated", seed=6)
        rc = main(["analyze", str(csv), "--q", "1.0", "--ensemble", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        rc_bad = main(["analyze", str(tmp_path / "missing.csv"), "--q", "1.0",
                       "--out", str(tmp_path / "o2")])
        assert rc_bad != 0
