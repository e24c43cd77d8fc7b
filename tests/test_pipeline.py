import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from volintervals import AnalysisConfig, ingest_csv, run_pipeline, split_by_date, write_csv
from volintervals.cli import main
from volintervals.pipeline import ConfigError, IngestError, _write_json, load_config


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

    def test_emit_then_ingest_round_trip(self, tmp_path):
        f = synth_csv(tmp_path / "s.csv", length=500, kind="iid", seed=3)
        s1 = ingest_csv(f)
        f2 = tmp_path / "s2.csv"
        write_csv(s1, f2)
        s2 = ingest_csv(f2)
        assert np.array_equal(s1.prices, s2.prices)  # bit-exact
        assert np.array_equal(s1.timestamps, s2.timestamps)


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

    def test_errors_attributed_and_pipeline_continues(self, tmp_path):
        csv = synth_csv(tmp_path / "inst.csv", length=2000, kind="iid", seed=4)
        # q=50 yields no events; q=1 still succeeds
        cfg = AnalysisConfig(inputs=[str(csv)], thresholds=[1.0, 50.0], ensemble=2,
                             out_dir=str(tmp_path / "out"))
        report = run_pipeline(cfg)
        assert report["exit_code"] == 1
        assert any(e["q"] == 50.0 and e["stage"] == "extract" for e in report["errors"])
        assert (tmp_path / "out" / "inst" / "q1" / "intervals.tsv").exists()


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
