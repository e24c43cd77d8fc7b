"""CSV ingestion, configuration, and the end-to-end analysis pipeline.

Emits plot-ready TSV files plus JSON summaries per instrument and
threshold. All randomized steps derive their seeds from the configured
base seed, so a fixed config reproduces byte-identical outputs.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .clusters import cluster_survival, clusters, median_split, shuffle_volatility
from .distributions import collapse_distance, pdf_estimate, poisson_deviation, scale_pdf
from .intervals import extract_intervals
from .memory import conditional_mean_curve, conditional_pdfs, shuffle_intervals
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
    calendar: SessionCalendar | None = field(init=False, default=None)  # from session_open/close

    def __post_init__(self):
        if not self.inputs:
            raise ConfigError("no input files configured")
        if not self.thresholds or not all(math.isfinite(q) and q > 0 for q in self.thresholds):
            raise ConfigError(f"thresholds must be finite, positive and non-empty, got {self.thresholds}")
        self.thresholds = sorted({float(q) for q in self.thresholds})
        if self.binning not in ("linear", "logarithmic"):
            raise ConfigError(f"binning must be 'linear' or 'logarithmic', got {self.binning!r}")
        for key, least in (("n_bins", 2), ("n_subsets", 1), ("ensemble", 1), ("max_workers", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if bool(self.session_open) != bool(self.session_close):
            raise ConfigError("session_open and session_close must be given together")
        if self.drop_session_gaps and not self.session_open:
            raise ConfigError("drop_session_gaps requires session_open and session_close")
        try:
            if self.session_open:
                self.calendar = SessionCalendar(self.session_open, self.session_close)
        except ValueError as exc:  # a bound that is not HH:MM, or open not before close
            raise ConfigError(str(exc)) from None
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
        try:
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
        except ConfigError:
            raise
        except ValueError as exc:  # int() or float() of the value
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return AnalysisConfig(**kw)


def _blank(row) -> bool:
    return not row or (len(row) == 1 and not row[0].strip())


def _first_non_utf8_line(path: Path) -> int:
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return len(re.findall(rb"\r\n?|\n", data[:exc.start])) + 1
    return 1


def _data_row_line(path: Path, k: int) -> int:
    """File line of the k-th (0-based) data row, for errors found after the read."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        rows = (reader.line_num for row in reader if not _blank(row))
        return next(itertools.islice(rows, k, None))


def _clock_defect(text: str) -> str | None:
    """Why a timestamp is not whole seconds of wall-clock time, if it is not.

    numpy would convert an offset to UTC with only a warning, and the
    timestamps are stored in whole seconds; numpy also overflows on more
    than 9 digits of fraction, zeros included.
    """
    clock = text.partition("T")[2] or text.partition(" ")[2]
    if "+" in clock or "-" in clock or "Z" in clock or "z" in clock:
        return "UTC offsets are not supported, give local wall-clock time"
    fraction = clock.rpartition(".")[2] if "." in clock else ""
    if fraction.isdigit() and (fraction.strip("0") or len(fraction) > 9):
        return "fractions of a second are not supported"
    return None


def ingest_csv(path) -> PriceSeries:
    """Read a UTF-8 `timestamp,price` CSV into a PriceSeries.

    Timestamps are wall-clock times in whole seconds: a UTC offset or a
    non-zero fraction of a second is an error. Unsorted rows are sorted
    with a warning; duplicate timestamps are a hard error. The sampling
    interval is the median timestamp step. Bad content raises an
    IngestError naming the file and the line (the last line of a quoted
    record that spans several), except for a file with fewer than 2 rows.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"{path}: no such file")
    timestamps, prices = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:2]] != ["timestamp", "price"]:
                raise IngestError(f"{path}: line 1: expected header 'timestamp,price'")
            for row in reader:
                if len(row) < 2:
                    if _blank(row):
                        continue
                    raise IngestError(f"{path}: line {reader.line_num}: expected 2 fields")
                text = row[0].strip()
                # rarely true, so the exact check stays off the common path; the
                # sign of an offset follows at least the 10 characters of Y-MM-DDTHH
                if "+" in text or "Z" in text or "z" in text or "." in text or "-" in text[10:]:
                    if defect := _clock_defect(text):
                        raise IngestError(f"{path}: line {reader.line_num}: "
                                          f"bad timestamp {row[0]!r}: {defect}")
                try:
                    ts = np.datetime64(text)
                except ValueError as exc:
                    raise IngestError(f"{path}: line {reader.line_num}: "
                                      f"bad timestamp {row[0]!r}") from exc
                try:
                    price = float(row[1])
                except ValueError as exc:
                    raise IngestError(f"{path}: line {reader.line_num}: bad price {row[1]!r}") from exc
                if not (math.isfinite(price) and price > 0):
                    raise IngestError(f"{path}: line {reader.line_num}: price must be finite and "
                                      f"positive, got {row[1]!r}")
                timestamps.append(ts)
                prices.append(price)
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise IngestError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: line {_first_non_utf8_line(path)}: not UTF-8 text") from exc
    if len(prices) < 2:
        raise IngestError(f"{path}: need at least 2 rows")
    ts = np.array(timestamps, dtype="datetime64[s]")
    # NaT (an empty or 'NaT' field) and years that overflow or are not
    # calendar years, such as Unix epoch seconds read as a year
    years = ts.astype("datetime64[Y]").astype(np.int64) + 1970
    bad = np.flatnonzero((years < 1) | (years > 9999))
    if bad.size:
        raise IngestError(f"{path}: line {_data_row_line(path, bad[0])}: bad timestamp "
                          f"{timestamps[bad[0]]}, need a date in years 1-9999")
    p = np.array(prices)
    order = np.argsort(ts, kind="stable")
    if not np.array_equal(order, np.arange(ts.size)):
        warnings.warn(f"{path}: timestamps out of order; sorting")
        ts, p = ts[order], p[order]
    steps = np.diff(ts).astype(np.int64)  # seconds
    dup = np.flatnonzero(steps == 0)
    if dup.size:
        raise IngestError(f"{path}: line {_data_row_line(path, order[dup[0] + 1])}: "
                          f"duplicate timestamp {ts[dup[0]]}")
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
    # numeric columns come as arrays, formatted lazily so only one row of
    # strings is alive at a time: floats as %.10g, integers with str (the
    # same digits below 10^10, at half the cost); other columns are strings
    cells = [map(str if c.dtype.kind in "iu" else "%.10g".__mod__, c.tolist())
             if isinstance(c, np.ndarray) else c for c in columns]
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


def _intervals_tables(seq, cfg):
    yield Table("intervals", ("q", "interval"),
                ([_fmt(seq.threshold_q)] * len(seq), seq.intervals))


def _pdf_tables(seq, cfg):
    pdf = pdf_estimate(seq, mode=cfg.binning, n_bins=cfg.n_bins)
    scaled = scale_pdf(pdf, seq.mean_interval, q=seq.threshold_q)
    yield Table("scaled_pdf", ("x", "y"), (scaled.x, scaled.y))


_MEAN_HEADER = ("tau0_scaled", "mean_scaled", "stderr")


def _conditional_tables(seq, cfg):
    pdfs = conditional_pdfs(seq, n_subsets=cfg.n_subsets, mode=cfg.binning, n_bins=cfg.n_bins)
    for k, scaled in enumerate(pdfs, start=1):
        yield Table("conditional_pdf", ("x", "y"), (scaled.x, scaled.y), f"_k{k}")
    curve = conditional_mean_curve(seq, n_bins=cfg.n_subsets)
    yield Table("conditional_mean", _MEAN_HEADER, (curve.bin_centers, curve.means, curve.stderr))


def _shuffled_mean_tables(seq, cfg):
    curve = conditional_mean_curve(shuffle_intervals(seq, cfg.seed), n_bins=cfg.n_subsets)
    yield Table("conditional_mean_shuffled", _MEAN_HEADER,
                (curve.bin_centers, curve.means, curve.stderr))


def _cluster_tables(seq, cfg):
    runs = clusters(median_split(seq))
    above, below = cluster_survival(runs, "above"), cluster_survival(runs, "below")
    surv = np.vstack([above, below])
    yield Table("cluster_survival", ("side", "k", "survival"),
                (["above"] * len(above) + ["below"] * len(below), surv[:, 0], surv[:, 1]))


# stage name -> (label that attributes its errors, tables of one threshold);
# `analyze` runs them all in this order and then the surrogate of every
# threshold that passed them, a subcommand runs the stage of its name
STAGES = {
    "intervals": ("extract", _intervals_tables),
    "pdf": ("pdf", _pdf_tables),
    "conditional": ("conditional", _conditional_tables),
    "conditional_shuffled": ("conditional", _shuffled_mean_tables),
    "clusters": ("clusters", _cluster_tables),
}


def _seed_rows(vol, qs, seed) -> list:
    """Above-median run survival of each q of ascending `qs` on one shuffle of vol.

    Each q's events are the previous q's that exceed it. An entry holds the
    survival at k = 1.._SURROGATE_KMAX, or the ValueError of a shuffle that
    leaves no interval above the median.
    """
    g, ev, rows = shuffle_volatility(vol, seed).values, None, []
    for q in qs:
        ev = np.flatnonzero(g > q) if ev is None else ev[g[ev] > q]
        iv = np.diff(ev)
        try:
            s = cluster_survival(clusters(iv > np.median(iv)), side="above")[:_SURROGATE_KMAX, 1]
        except ValueError as exc:  # no interval above the median
            rows.append(exc)
            continue
        rows.append(np.pad(s, (0, _SURROGATE_KMAX - s.size)))
    return rows


def _envelope(rows):
    """k, mean and mean -/+ 3 sigma of one q's survival rows over the seeds,
    or the error of its first failing seed."""
    exc = next((r for r in rows if isinstance(r, ValueError)), None)
    if exc is not None:
        return exc
    surv = np.array(rows)
    mean = surv.mean(axis=0)
    sd = surv.std(axis=0, ddof=1) if len(rows) > 1 else np.zeros(_SURROGATE_KMAX)
    return np.column_stack([np.arange(1, _SURROGATE_KMAX + 1), mean, mean - 3 * sd, mean + 3 * sd])


def _write_surrogates(summary: dict, passed: dict, seed_rows: list, outdir: Path) -> None:
    """Each passed q's cluster_surrogate.tsv and q_summary, from its rows of every seed.

    A q with a failing seed gets that seed's error instead, and the unit's
    errors stay in threshold order.
    """
    for (q, stats), rows in zip(passed.items(), zip(*seed_rows)):
        env = _envelope(rows)
        if isinstance(env, ValueError):
            summary["errors"].append({"instrument": summary["instrument"], "q": q,
                                      "stage": "surrogate", "error": str(env)})
            continue
        _write_tsv(outdir / f"q{q:g}" / "cluster_surrogate.tsv", ("k", "mean", "lo", "hi"),
                   tuple(env.T), f"seeds={len(rows)}")
        summary["per_q"][f"{q:g}"] = stats
    summary["errors"].sort(key=lambda e: e["q"])


def _volatility(prices: PriceSeries, cfg: AnalysisConfig):
    """Normalized volatility, intraday-detrended when cfg names a session,
    and the session id of every sample (None without a session)."""
    vol = normalize_volatility(log_returns(prices))
    if cfg.calendar is None:
        return vol, None
    slots, session_ids = session_slots(vol.timestamps, cfg.calendar, prices.sampling_interval)
    pattern = build_intraday_pattern(vol, slots, session_ids)
    return intraday_detrend(vol, pattern, slots), session_ids


def q_summary(seq) -> dict:
    """Interval count, mean interval and distance from the exponential of one threshold."""
    return {"count": int(len(seq)), "mean_interval": seq.mean_interval,
            "poisson_deviation": poisson_deviation(seq)}


def run_stage(cfg: AnalysisConfig, name: str, out: Path) -> Iterator[str]:
    """Run stage `name` on cfg.inputs[0] per threshold, writing under `out`.

    Yields the subcommand's report lines as they become known: each
    threshold's mean interval and Poisson deviation for `pdf`, the counts
    (also written to intervals_summary.json) for `intervals`, and where the
    files went for the others. The first failing threshold raises.
    """
    vol, session_ids = _volatility(ingest_csv(cfg.inputs[0]), cfg)
    _, tables = STAGES[name]
    counts = []
    for q in cfg.thresholds:
        seq = extract_intervals(vol, q, session_ids=session_ids,
                                drop_session_gaps=cfg.drop_session_gaps)
        for t in tables(seq, cfg):
            _write_tsv(out / f"{t.stem}_q{q:g}{t.suffix}.tsv", t.header, t.columns)
        counts.append({"q": q, "count": len(seq), "mean_interval": seq.mean_interval})
        if name == "pdf":
            yield (f"q={q:g}: mean_interval={_fmt(seq.mean_interval)} "
                   f"poisson_deviation={_fmt(poisson_deviation(seq))}")
    if name == "intervals":
        _write_json(out / "intervals_summary.json", counts)
        yield json.dumps(counts)
    elif name != "pdf":
        yield f"wrote {'cluster' if name == 'clusters' else name} statistics to {out}"


def _analyze_one(prices: PriceSeries, cfg: AnalysisConfig, outdir: Path):
    """Every stage but the surrogate on one unit, writing its TSVs and collapse_matrix.json.

    Returns the unit's summary, its volatility (None if that failed) and
    the q_summary of each threshold that passed every stage, in ascending q.
    """
    summary: dict = {"instrument": prices.instrument_id, "n_samples": len(prices), "per_q": {},
                     "gaps": gap_report(prices)}
    try:
        vol, session_ids = _volatility(prices, cfg)
    except ValueError as exc:  # constant prices, a sample outside the session, detrending
        summary["errors"] = [{"instrument": prices.instrument_id, "q": None,
                              "stage": "volatility", "error": str(exc)}]
        return summary, None, {}
    if session_ids is not None:
        summary["detrended"] = True

    seqs, errors = {}, {}
    for q in cfg.thresholds:
        stage = "extract"
        try:
            seq = extract_intervals(vol, q, session_ids=session_ids,
                                    drop_session_gaps=cfg.drop_session_gaps)
            seqs[q] = seq
            for stage, tables in STAGES.values():
                for t in tables(seq, cfg):
                    _write_tsv(outdir / f"q{q:g}" / f"{t.stem}{t.suffix}.tsv", t.header, t.columns)
        except ValueError as exc:  # InsufficientEvents/PairsError included
            errors[q] = {"instrument": prices.instrument_id, "q": q,
                         "stage": stage, "error": str(exc)}

    if len(seqs) >= 2:
        qs = sorted(seqs)
        mat = collapse_distance([seqs[q] for q in qs])
        _write_json(outdir / "collapse_matrix.json",
                    {"q": [f"{q:g}" for q in qs], "ks_distance": mat.tolist()})
    summary["errors"] = [errors[q] for q in cfg.thresholds if q in errors]
    return summary, vol, {q: q_summary(seq) for q, seq in seqs.items() if q not in errors}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


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
        # one pool and three passes, in which no task waits on another: the
        # units, then one shuffle per (unit, seed) serving all of the unit's
        # thresholds, then each unit's surrogate and summary from this thread
        with ThreadPoolExecutor(max_workers=min(cfg.max_workers, _usable_cpus())) as ex:
            analyzed = list(ex.map(lambda unit: _analyze_one(unit[0], cfg, unit[1]), units))
            seed_rows = ex.map(lambda job: _seed_rows(*job), [
                (vol, list(passed), cfg.seed + i)
                for _, vol, passed in analyzed if passed for i in range(cfg.ensemble)])
            for (summary, _, passed), (_, outdir) in zip(analyzed, units):
                if passed:
                    _write_surrogates(summary, passed,
                                      list(itertools.islice(seed_rows, cfg.ensemble)), outdir)
                _write_json(outdir / "summary.json", summary)
                report["instruments"].append(summary)
                report["errors"].extend(summary["errors"])
    report["exit_code"] = 0 if not report["errors"] else 1
    _write_json(out / "report.json", report)
    return report
