"""CSV ingestion, configuration, and the end-to-end analysis pipeline.

Emits plot-ready TSV files plus JSON summaries per instrument and
threshold. All randomized steps derive their seeds from the configured
base seed, so a fixed config reproduces byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .clusters import cluster_survival, clusters, median_split, shuffle_volatility
from .distributions import collapse_distance, pdf_estimate, poisson_deviation, scale_pdf
from .intervals import InsufficientEventsError, extract_intervals
from .memory import conditional_mean_curve, conditional_pdf, shuffle_intervals
from .series import (
    PriceSeries,
    SessionCalendar,
    build_intraday_pattern,
    gap_report,
    intraday_detrend,
    log_returns,
    normalize_volatility,
    session_slots,
)

__all__ = [
    "AnalysisConfig",
    "ConfigError",
    "IngestError",
    "ingest_csv",
    "write_csv",
    "split_by_date",
    "load_config",
    "q_summary",
    "run_pipeline",
    "run_stage",
]

OUT_DIR_ENV = "VOLINTERVALS_OUT"
_SURROGATE_KMAX = 15


class ConfigError(ValueError):
    pass


class IngestError(ValueError):
    pass


@dataclass
class AnalysisConfig:
    inputs: list[str]
    thresholds: list[float]
    binning: str = "logarithmic"
    n_bins: int = 30
    n_subsets: int = 8
    seed: int = 0
    ensemble: int = 100
    split_date: str | None = None
    session_open: str | None = None
    session_close: str | None = None
    drop_session_gaps: bool = False
    out_dir: str = "out"
    max_workers: int = 4

    def __post_init__(self):
        if not self.inputs:
            raise ConfigError("no input files configured")
        if not self.thresholds or not all(math.isfinite(q) and q > 0 for q in self.thresholds):
            raise ConfigError(f"thresholds must be finite, positive and non-empty, got {self.thresholds}")
        self.thresholds = sorted(float(q) for q in self.thresholds)
        if self.binning not in ("linear", "logarithmic"):
            raise ConfigError(f"binning must be 'linear' or 'logarithmic', got {self.binning!r}")
        for key, least in (("n_bins", 2), ("n_subsets", 1), ("ensemble", 1), ("max_workers", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if bool(self.session_open) != bool(self.session_close):
            raise ConfigError("session_open and session_close must be given together")
        if self.drop_session_gaps and not self.session_open:
            raise ConfigError("drop_session_gaps requires session_open and session_close")
        env_out = os.environ.get(OUT_DIR_ENV)
        if env_out:
            self.out_dir = env_out


def load_config(path) -> AnalysisConfig:
    """Parse a line-oriented key=value config file."""
    kw: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "input":
            kw.setdefault("inputs", []).append(value)
        elif key == "q":
            kw["thresholds"] = [float(v) for v in value.split(",") if v.strip()]
        elif key in ("bins", "subsets", "seed", "ensemble", "max_workers"):
            kw[{"bins": "n_bins", "subsets": "n_subsets"}.get(key, key)] = int(value)
        elif key == "drop_session_gaps":
            kw["drop_session_gaps"] = value.lower() in ("1", "true", "yes")
        elif key in ("binning", "split_date", "session_open", "session_close", "out"):
            kw["out_dir" if key == "out" else key] = value
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return AnalysisConfig(**kw)


def ingest_csv(path) -> PriceSeries:
    """Read a `timestamp,price` CSV into a PriceSeries.

    Unsorted rows are sorted with a warning; duplicate timestamps are a
    hard error. The sampling interval is the median timestamp step.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"{path}: no such file")
    timestamps, prices = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["timestamp", "price"]:
            raise IngestError(f"{path}: expected header 'timestamp,price'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise IngestError(f"{path}: line {lineno}: expected 2 fields")
            try:
                ts = np.datetime64(row[0].strip())
            except ValueError as exc:
                raise IngestError(f"{path}: line {lineno}: bad timestamp {row[0]!r}") from exc
            try:
                price = float(row[1])
            except ValueError as exc:
                raise IngestError(f"{path}: line {lineno}: bad price {row[1]!r}") from exc
            timestamps.append(ts)
            prices.append(price)
    if len(prices) < 2:
        raise IngestError(f"{path}: need at least 2 rows")
    ts = np.array(timestamps, dtype="datetime64[s]")
    p = np.array(prices)
    order = np.argsort(ts, kind="stable")
    if not np.array_equal(order, np.arange(ts.size)):
        warnings.warn(f"{path}: timestamps out of order; sorting")
        ts, p = ts[order], p[order]
    steps = np.diff(ts).astype(np.int64)  # seconds
    if np.any(steps == 0):
        raise IngestError(f"{path}: duplicate timestamp {ts[np.flatnonzero(steps == 0)[0]]}")
    step = np.median(steps)
    return PriceSeries(
        instrument_id=path.stem,
        timestamps=ts,
        prices=p,
        sampling_interval=np.timedelta64(int(step), "s"),
    )


def write_csv(series: PriceSeries, path) -> None:
    """Emit a series in the ingestion format (round-trips bit-exactly)."""
    with _atomic(path) as fh:
        fh.write("timestamp,price\n")
        for ts, p in zip(series.timestamps, series.prices):
            fh.write(f"{_iso(ts)},{float(p)!r}\n")


def split_by_date(series: PriceSeries, cut) -> tuple[PriceSeries, PriceSeries]:
    """Split into (strictly before cut, from cut on); both parts non-empty."""
    cut = np.datetime64(cut)
    ts = series.timestamps
    n_before = int(np.searchsorted(ts, cut, side="left"))
    if n_before < 2 or ts.size - n_before < 2:
        raise ValueError(f"cut {cut} leaves an empty or degenerate part")
    mk = lambda sl, tag: PriceSeries(
        instrument_id=f"{series.instrument_id}_{tag}",
        timestamps=ts[sl],
        prices=series.prices[sl],
        sampling_interval=series.sampling_interval,
    )
    return mk(slice(None, n_before), "pre"), mk(slice(n_before, None), "post")


# ---------------------------------------------------------------------------
# emission helpers

def _iso(ts) -> str:
    return np.datetime_as_string(ts, unit="s")


@contextmanager
def _atomic(path):
    """Write to a temp file and rename it into place on success."""
    path = Path(path)
    tmp = path.with_name("." + path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fmt(v) -> str:
    return f"{v:.10g}"


def _write_tsv(path, header, columns, comment: str | None = None) -> None:
    # numeric columns come as arrays and print as %.10g, formatted lazily so
    # only one row of strings is alive at a time; other columns are strings
    cells = [map("%.10g".__mod__, c.tolist()) if isinstance(c, np.ndarray) else c
             for c in columns]
    with _atomic(path) as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("\t".join(header) + "\n")
        fh.writelines("\t".join(row) + "\n" for row in zip(*cells, strict=True))


def _write_json(path, obj) -> None:
    with _atomic(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# analysis stages, shared by `analyze` and the per-stage subcommands

class Table(NamedTuple):
    """A stage's TSV: q{q}/{stem}{suffix}.tsv under analyze, else {stem}_q{q}{suffix}.tsv."""

    stem: str
    header: tuple[str, ...]
    columns: tuple  # numeric np.ndarrays, or sequences of strings
    suffix: str = ""
    comment: str | None = None


def _intervals_tables(seq, vol, cfg):
    yield Table("intervals", ("q", "interval"),
                ([_fmt(seq.threshold_q)] * len(seq), seq.intervals))


def _pdf_tables(seq, vol, cfg):
    pdf = pdf_estimate(seq, mode=cfg.binning, n_bins=cfg.n_bins)
    scaled = scale_pdf(pdf, seq.mean_interval, q=seq.threshold_q)
    yield Table("scaled_pdf", ("x", "y"), (scaled.x, scaled.y))


_MEAN_HEADER = ("tau0_scaled", "mean_scaled", "stderr")


def _conditional_tables(seq, vol, cfg):
    for k in range(1, cfg.n_subsets + 1):
        cp = conditional_pdf(seq, n_subsets=cfg.n_subsets, k=k,
                             mode=cfg.binning, n_bins=cfg.n_bins)
        yield Table("conditional_pdf", ("x", "y"), (cp.scaled.x, cp.scaled.y), f"_k{k}")
    curve = conditional_mean_curve(seq, n_bins=cfg.n_subsets)
    yield Table("conditional_mean", _MEAN_HEADER, (curve.bin_centers, curve.means, curve.stderr))


def _shuffled_mean_tables(seq, vol, cfg):
    curve = conditional_mean_curve(shuffle_intervals(seq, cfg.seed), n_bins=cfg.n_subsets)
    yield Table("conditional_mean_shuffled", _MEAN_HEADER,
                (curve.bin_centers, curve.means, curve.stderr))


def _cluster_tables(seq, vol, cfg):
    runs = clusters(median_split(seq), median=float(np.median(seq.intervals)), q=seq.threshold_q)
    above, below = cluster_survival(runs, "above"), cluster_survival(runs, "below")
    surv = np.vstack([above, below])
    yield Table("cluster_survival", ("side", "k", "survival"),
                (["above"] * len(above) + ["below"] * len(below), surv[:, 0], surv[:, 1]))


def _surrogate_envelope(vol, q, cfg) -> tuple[np.ndarray, int]:
    """Mean +/- 3 sigma survival of above-median runs over shuffled volatility."""
    surv = np.zeros((cfg.ensemble, _SURROGATE_KMAX))
    used = 0
    for i in range(cfg.ensemble):
        try:
            sv = shuffle_volatility(vol, cfg.seed + i)
            seq = extract_intervals(sv, q)
        except InsufficientEventsError:
            continue
        s = cluster_survival(clusters(median_split(seq)), side="above")
        k = np.minimum(s.shape[0], _SURROGATE_KMAX)
        surv[used, :k] = s[:k, 1]
        used += 1
    if used == 0:
        raise InsufficientEventsError(q, 0)
    surv = surv[:used]
    mean = surv.mean(axis=0)
    sd = surv.std(axis=0, ddof=1) if used > 1 else np.zeros(_SURROGATE_KMAX)
    rows = np.column_stack([np.arange(1, _SURROGATE_KMAX + 1), mean, mean - 3 * sd, mean + 3 * sd])
    return rows, used


def _surrogate_tables(seq, vol, cfg):
    env, used = _surrogate_envelope(vol, seq.threshold_q, cfg)
    yield Table("cluster_surrogate", ("k", "mean", "lo", "hi"), tuple(env.T),
                comment=f"seeds={used}")


# stage name -> (label that attributes its errors, tables of one threshold);
# `analyze` runs them all in this order, a subcommand runs the stage of its name
STAGES = {
    "intervals": ("extract", _intervals_tables),
    "pdf": ("pdf", _pdf_tables),
    "conditional": ("conditional", _conditional_tables),
    "conditional_shuffled": ("conditional", _shuffled_mean_tables),
    "clusters": ("clusters", _cluster_tables),
    "surrogate": ("surrogate", _surrogate_tables),
}


def _volatility(prices: PriceSeries, cfg: AnalysisConfig):
    """Normalized volatility, intraday-detrended when cfg names a session,
    and the session id of every sample (None without a session)."""
    vol = normalize_volatility(log_returns(prices))
    if not cfg.session_open:
        return vol, None
    cal = SessionCalendar(cfg.session_open, cfg.session_close)
    slots, session_ids = session_slots(vol.timestamps, cal, prices.sampling_interval)
    pattern = build_intraday_pattern(vol, slots, session_ids)
    return intraday_detrend(vol, pattern, slots), session_ids


def q_summary(seq) -> dict:
    """Interval count, mean interval and distance from the exponential of one threshold."""
    return {"count": int(len(seq)), "mean_interval": seq.mean_interval,
            "poisson_deviation": poisson_deviation(seq)}


def run_stage(cfg: AnalysisConfig, name: str, out: Path) -> Iterator:
    """Run stage `name` on cfg.inputs[0] per threshold, writing under `out`.

    Yields each threshold's IntervalSequence once its files are written;
    the first failing threshold raises.
    """
    vol, session_ids = _volatility(ingest_csv(cfg.inputs[0]), cfg)
    _, tables = STAGES[name]
    for q in cfg.thresholds:
        seq = extract_intervals(vol, q, session_ids=session_ids,
                                drop_session_gaps=cfg.drop_session_gaps)
        for t in tables(seq, vol, cfg):
            _write_tsv(out / f"{t.stem}_q{q:g}{t.suffix}.tsv", t.header, t.columns, t.comment)
        yield seq


def _analyze_one(prices: PriceSeries, cfg: AnalysisConfig, outdir: Path) -> dict:
    summary: dict = {"instrument": prices.instrument_id, "n_samples": len(prices), "per_q": {}}
    errors: list[dict] = []
    vol, session_ids = _volatility(prices, cfg)
    summary["gaps"] = gap_report(prices)
    if session_ids is not None:
        summary["detrended"] = True

    seqs = {}
    for q in cfg.thresholds:
        stage = "extract"
        try:
            seq = extract_intervals(vol, q, session_ids=session_ids,
                                    drop_session_gaps=cfg.drop_session_gaps)
            seqs[q] = seq
            for stage, tables in STAGES.values():
                for t in tables(seq, vol, cfg):
                    path = outdir / f"q{q:g}" / f"{t.stem}{t.suffix}.tsv"
                    _write_tsv(path, t.header, t.columns, t.comment)
            summary["per_q"][f"{q:g}"] = q_summary(seq)
        except ValueError as exc:  # InsufficientEvents/PairsError included
            errors.append({"instrument": prices.instrument_id, "q": q,
                           "stage": stage, "error": str(exc)})

    if len(seqs) >= 2:
        qs = sorted(seqs)
        mat = collapse_distance([seqs[q] for q in qs])
        _write_json(outdir / "collapse_matrix.json",
                    {"q": [f"{q:g}" for q in qs], "ks_distance": mat.tolist()})
    summary["errors"] = errors
    _write_json(outdir / "summary.json", summary)
    return summary


def run_pipeline(cfg: AnalysisConfig) -> dict:
    """Run every configured analysis; returns the report bundle.

    Failures are attributed to (instrument, q, stage) and do not stop
    independent units. The report's "exit_code" is 0 only if everything
    succeeded.
    """
    out = Path(cfg.out_dir)
    units = []  # (series, outdir)
    report: dict = {"instruments": [], "errors": []}
    for path in cfg.inputs:
        try:
            series = ingest_csv(path)
        except IngestError as exc:
            report["errors"].append({"instrument": str(path), "q": None,
                                     "stage": "ingest", "error": str(exc)})
            continue
        if cfg.split_date:
            try:
                pre, post = split_by_date(series, cfg.split_date)
            except ValueError as exc:
                report["errors"].append({"instrument": series.instrument_id, "q": None,
                                         "stage": "split", "error": str(exc)})
                continue
            units.append((pre, out / series.instrument_id / "pre"))
            units.append((post, out / series.instrument_id / "post"))
        else:
            units.append((series, out / series.instrument_id))

    if units:
        with ThreadPoolExecutor(max_workers=min(cfg.max_workers, len(units))) as ex:
            for summary in ex.map(lambda unit: _analyze_one(unit[0], cfg, unit[1]), units):
                report["instruments"].append(summary)
                report["errors"].extend(summary["errors"])
    report["exit_code"] = 0 if not report["errors"] else 1
    _write_json(out / "report.json", report)
    return report
