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
    "parse_time",
    "load_config",
    "run_pipeline",
    "run_stage",
]

_SURROGATE_KMAX = 15


class ConfigError(ValueError):
    pass


class IngestError(ValueError):
    pass


@dataclass
class AnalysisConfig:
    inputs: list[str] = field(default_factory=list)
    thresholds: list[float] = field(default_factory=lambda: [1.0, 1.25, 1.5, 1.75, 2.0])
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
        for p in self.inputs:  # a blank name would be read as ".", and out as the working directory
            if not str(p).strip():
                raise ConfigError(f"inputs must not be blank, got {p!r}")
        if not str(self.out_dir).strip():
            raise ConfigError(f"out_dir must not be blank, got {self.out_dir!r}")
        if not self.thresholds or not all(math.isfinite(q) and q > 0 for q in self.thresholds):
            raise ConfigError(f"thresholds must be finite, positive and non-empty, got {self.thresholds}")
        self.thresholds = sorted({float(q) for q in self.thresholds})
        for a, b in zip(self.thresholds, self.thresholds[1:]):  # q{q:g} names each one's outputs
            if f"{a:g}" == f"{b:g}":
                raise ConfigError(f"thresholds {a} and {b} both print as '{a:g}'")
        first: dict = {}  # file stem -> the input that has it; out/{stem}/ holds its outputs
        for p in self.inputs:
            if (stem := Path(p).stem) in first:
                raise ConfigError(f"inputs {first[stem]} and {p} share the file stem {stem!r}, "
                                  "which names their output directory")
            first[stem] = p
        if self.binning not in ("linear", "logarithmic"):
            raise ConfigError(f"binning must be 'linear' or 'logarithmic', got {self.binning!r}")
        for key, least in (("n_bins", 2), ("n_subsets", 1), ("seed", 0), ("ensemble", 1),
                           ("max_workers", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if self.split_date is not None:
            parse_time(self.split_date, "split_date")
        if bool(self.session_open) != bool(self.session_close):
            raise ConfigError("session_open and session_close must be given together")
        if self.drop_session_gaps and not self.session_open:
            raise ConfigError("drop_session_gaps requires session_open and session_close")
        try:
            if self.session_open:
                self.calendar = SessionCalendar(self.session_open, self.session_close)
        except ValueError as exc:  # a bound that is not HH:MM, or open not before close
            raise ConfigError(str(exc)) from None


def load_config(path, **overrides) -> AnalysisConfig:
    """Parse a key=value config file into an AnalysisConfig, `overrides` replacing its values."""
    kw: dict = {}
    first_line: dict = {}  # key -> the line that set it
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"{path}: cannot read config file: {getattr(exc, 'strerror', exc)}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key}")
        try:
            if key == "input":
                kw.setdefault("inputs", []).append(value)
            elif key == "q":
                kw["thresholds"] = [float(v) for v in value.split(",") if v.strip()]
            elif key in ("bins", "subsets", "seed", "ensemble", "max_workers"):
                kw[{"bins": "n_bins", "subsets": "n_subsets"}.get(key, key)] = int(value)
            elif key == "drop_session_gaps":  # .index raises for a word that is neither
                kw[key] = ("0", "false", "no", "1", "true", "yes").index(value.lower()) > 2
            elif key in ("binning", "split_date", "session_open", "session_close", "out"):
                kw["out_dir" if key == "out" else key] = value
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:  # int(), float() or .index() of the value
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        if key != "input" and key in first_line:  # every `input` line adds a file
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}, first set on line {first_line[key]}")
        first_line[key] = lineno
    return AnalysisConfig(**{**kw, **overrides})


def _first_non_utf8_line(path: Path) -> int:
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return len(re.findall(rb"\r\n?|\n", data[:exc.start])) + 1
    return 1


# a timestamp, digits mapped to '0': a date, alone or with hours, minutes or seconds
# after 'T' or ' '; no sign, zone, fraction, word or text for numpy to read, nor a
# year outside 0000-9999
_DIGITS_TO_0 = str.maketrans("123456789", "000000000")
_PLAIN_SHAPES = {"0000-00-00", *(f"0000-00-00{sep}{clock}" for sep in "T "
                                 for clock in ("00", "00:00", "00:00:00"))}
_TIMESTAMP_RULE = ("need YYYY-MM-DD in years 1-9999, alone or followed by T or a space "
                   "and HH, HH:MM or HH:MM:SS")


def _timestamp(text: str) -> np.datetime64:
    """`text` if it has one of _PLAIN_SHAPES, a year from 1 and a date and time
    that exist; ValueError with the rule otherwise."""
    try:
        if text.translate(_DIGITS_TO_0) in _PLAIN_SHAPES and not text.startswith("0000"):
            return np.datetime64(text)
    except ValueError:  # no such date or time, such as month 13 or hour 24
        pass
    raise ValueError(f"bad timestamp {text!r}: {_TIMESTAMP_RULE}")


def parse_time(text: str, setting: str) -> np.datetime64:
    """A date or time given by the user, by the rule of a CSV timestamp;
    ConfigError naming `setting` if it breaks that rule."""
    try:
        return _timestamp(text.strip())
    except ValueError as exc:
        raise ConfigError(f"{setting}: {exc}") from None


def _read_rows(path: Path) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Timestamps, prices and file lines of any CSV's rows, read row by row;
    IngestError naming the line."""
    timestamps, prices, lines = [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:  # -sig: drops the byte-order mark Excel writes
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:2]] != ["timestamp", "price"]:
                raise IngestError(f"{path}: line 1: expected header 'timestamp,price'")
            for row in reader:
                if len(row) < 2:
                    if not row or not row[0].strip():  # a blank line
                        continue
                    raise IngestError(f"{path}: line {reader.line_num}: expected 2 fields")
                try:
                    ts = _timestamp(row[0].strip())
                except ValueError as exc:
                    raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None
                try:
                    price = float(row[1])
                except ValueError as exc:
                    raise IngestError(f"{path}: line {reader.line_num}: bad price {row[1]!r}") from exc
                if not (math.isfinite(price) and price > 0):
                    raise IngestError(f"{path}: line {reader.line_num}: price must be finite and "
                                      f"positive, got {row[1]!r}")
                timestamps.append(ts)
                prices.append(price)
                lines.append(reader.line_num)
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise IngestError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: line {_first_non_utf8_line(path)}: not UTF-8 text") from exc
    if len(prices) < 2:
        raise IngestError(f"{path}: need at least 2 rows")
    return np.array(timestamps, dtype="datetime64[s]"), np.array(prices), lines


# bytes read per chunk of the array path: the lists of one chunk's cells are
# its transient memory (the whole file split at once doubled the peak RSS).
# Two chunks make the csv module's default field limit, which no line of a
# plain file reaches.
_CHUNK_BYTES = 1 << 16


def _chunks(fh) -> Iterator[bytes]:
    """Whole lines, about _CHUNK_BYTES at a time, the last given a line end if it
    has none; b"" once a line outgrows a chunk."""
    rest = b""
    while block := fh.read(_CHUNK_BYTES):
        chunk = rest + block
        cut = chunk.rfind(b"\n") + 1
        chunk, rest = chunk[:cut], chunk[cut:]
        if chunk or len(rest) > _CHUNK_BYTES:
            yield chunk
    if rest:
        yield rest + b"\n"


def _read_plain(path: Path) -> tuple[np.ndarray, np.ndarray, range] | None:
    """Timestamps, prices and file lines of a plain CSV's rows, parsed as arrays
    a chunk at a time; None for anything else, which is left to _read_rows.

    Plain is the exact header `timestamp,price`, then ASCII lines shorter
    than two chunks of exactly two fields, without carriage returns. All
    timestamps have _PLAIN_SHAPES and parse, in years 1-9999, and all prices
    (so none quoted) parse as finite and positive; there are at least 2 rows.
    Such a file is one that _read_rows reads, to the same arrays; its rows
    are its lines after the header.
    """
    stamps, prices = [], []
    with open(path, "rb") as fh:
        if fh.readline() != b"timestamp,price\n":
            return None
        for chunk in _chunks(fh):
            if not chunk or not chunk.isascii() or b"\r" in chunk:
                return None
            b = np.frombuffer(chunk, np.uint8)
            commas, ends = np.flatnonzero(b == ord(",")), np.flatnonzero(b == ord("\n"))
            # one comma on each line: commas and line ends alternate
            if commas.size != ends.size or (commas > ends).any() or (commas[1:] < ends[:-1]).any():
                return None
            cells = chunk[:-1].decode("ascii").replace("\n", ",").split(",")
            shapes = "\n".join(cells[0::2]).translate(_DIGITS_TO_0).split("\n")
            if not _PLAIN_SHAPES.issuperset(shapes):
                return None
            try:
                stamps.append(np.array(cells[0::2], dtype="datetime64[s]"))
                prices.append(np.array(cells[1::2], dtype=float))
            except ValueError:
                return None
    if not stamps:
        return None
    ts, p = np.concatenate(stamps), np.concatenate(prices)
    # the shapes leave one year that is not a calendar year: 0000
    if ts.size < 2 or not (np.isfinite(p) & (p > 0)).all() or (ts < np.datetime64("0001")).any():
        return None
    return ts, p, range(2, ts.size + 2)


def ingest_csv(path) -> PriceSeries:
    """Read a UTF-8 `timestamp,price` CSV into a PriceSeries.

    Timestamps are wall-clock times in whole seconds, written YYYY-MM-DD,
    alone or followed by T or a space and HH, HH:MM or HH:MM:SS. Unsorted
    rows are sorted with a warning; duplicate timestamps are a hard error.
    The sampling interval is the median timestamp step. Bad content raises
    an IngestError naming the file and the line (the last line of a quoted
    record that spans several), except for a file with fewer than 2 rows.
    A plain file is parsed as arrays, anything else row by row, with the
    same result and the same errors.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"{path}: no such file")
    ts, p, lines = _read_plain(path) or _read_rows(path)
    order = np.argsort(ts, kind="stable")
    if not np.array_equal(order, np.arange(ts.size)):
        warnings.warn(f"{path}: timestamps out of order; sorting")
        ts, p = ts[order], p[order]
    steps = np.diff(ts).astype(np.int64)  # seconds
    dup = np.flatnonzero(steps == 0)
    if dup.size:
        raise IngestError(f"{path}: line {lines[order[dup[0] + 1]]}: "
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
            fh.write(f"{np.datetime_as_string(ts, unit='s')},{float(p)!r}\n")


def split_by_date(series: PriceSeries, cut) -> tuple[PriceSeries, PriceSeries]:
    """Split into (strictly before cut, from cut on); both parts non-empty."""
    cut = parse_time(cut, "split_date") if isinstance(cut, str) else np.datetime64(cut)
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
    scaled = scale_pdf(pdf, seq.mean_interval)
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


# stage name, which labels its errors -> tables of one threshold; `analyze`
# runs them all in this order and then the surrogate of every threshold that
# passed them, a subcommand runs the stage of its name
STAGES = {
    "intervals": _intervals_tables,
    "pdf": _pdf_tables,
    "conditional": _conditional_tables,
    "conditional_shuffled": _shuffled_mean_tables,
    "clusters": _cluster_tables,
}


def _seed_rows(vol, qs, seed) -> list:
    """Above-median run survival of each q of `qs` on one shuffle of vol.

    An entry holds the survival at k = 1.._SURROGATE_KMAX, or the
    ValueError of a shuffle that leaves no interval above the median.
    """
    shuffled, rows = shuffle_volatility(vol, seed), []
    for q in qs:
        try:
            runs = clusters(median_split(extract_intervals(shuffled, q)))
            s = cluster_survival(runs, side="above")[:_SURROGATE_KMAX, 1]
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


def _volatility(prices: PriceSeries, cfg: AnalysisConfig):
    """Normalized volatility, intraday-detrended when cfg names a session, and
    the session id of every return (None without one), timed by its first price."""
    vol = normalize_volatility(log_returns(prices))
    if cfg.calendar is None:
        return vol, None
    slots, session_ids = session_slots(prices.timestamps[:-1], cfg.calendar, prices.sampling_interval)
    pattern = build_intraday_pattern(vol, slots, session_ids)
    return intraday_detrend(vol, pattern, slots), session_ids


def run_stage(cfg: AnalysisConfig, name: str) -> Iterator[str]:
    """Run stage `name` on cfg.inputs[0] per threshold, writing under cfg.out_dir.

    Yields the subcommand's report lines as they become known: each
    threshold's mean interval and Poisson deviation for `pdf`, the counts
    (also written to intervals_summary.json) for `intervals`, and where the
    files went for the others. The first failing threshold raises.
    """
    out = Path(cfg.out_dir)
    vol, session_ids = _volatility(ingest_csv(cfg.inputs[0]), cfg)
    counts = []
    for q in cfg.thresholds:
        seq = extract_intervals(vol, q, session_ids=session_ids,
                                drop_session_gaps=cfg.drop_session_gaps)
        for t in STAGES[name](seq, cfg):
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


def _analyze_one(vol, session_ids, cfg: AnalysisConfig, outdir: Path) -> list:
    """Every stage but the surrogate on one unit, writing its TSVs and collapse_matrix.json.
    Returns per threshold its interval count, mean interval and distance from the
    exponential, or the (stage, error) that stopped it."""
    seqs, outcomes = {}, []
    for q in cfg.thresholds:
        stage = "extract"
        try:
            seq = extract_intervals(vol, q, session_ids=session_ids,
                                    drop_session_gaps=cfg.drop_session_gaps)
            seqs[q] = seq
            for stage, tables in STAGES.items():
                for t in tables(seq, cfg):
                    _write_tsv(outdir / f"q{q:g}" / f"{t.stem}{t.suffix}.tsv", t.header, t.columns)
            outcomes.append({"count": len(seq), "mean_interval": seq.mean_interval,
                             "poisson_deviation": poisson_deviation(seq)})
        except ValueError as exc:  # InsufficientEvents/PairsError included
            outcomes.append((stage, exc))

    if len(seqs) >= 2:  # in ascending q, as cfg.thresholds are
        mat = collapse_distance(list(seqs.values()))
        _write_json(outdir / "collapse_matrix.json",
                    {"q": [f"{q:g}" for q in seqs], "ks_distance": mat.tolist()})
    return outcomes


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def run_pipeline(cfg: AnalysisConfig) -> dict:
    """Run every configured analysis; returns the report bundle.

    Outputs go under cfg.out_dir. Failures are attributed to (instrument,
    q, stage) and do not stop independent units. The report's "exit_code"
    is 0 only if everything succeeded.
    """
    out = Path(cfg.out_dir)
    report: dict = {"instruments": [], "errors": []}
    # one pool, each task taking only what this thread knows when it queues it:
    # per unit, its stages and one shuffle per seed that serves every threshold;
    # an error that ends the run cancels the seed tasks still queued
    ex = ThreadPoolExecutor(max_workers=min(cfg.max_workers, _usable_cpus()))
    try:
        queued = []  # (summary, outdir, stage task, seed tasks); no tasks if volatility failed
        for path in cfg.inputs:
            try:
                series = ingest_csv(path)
            except IngestError as exc:
                report["errors"].append({"instrument": str(path), "q": None,
                                         "stage": "ingest", "error": str(exc)})
                continue
            parts = [(series, "")]
            if cfg.split_date:
                try:
                    parts = list(zip(split_by_date(series, cfg.split_date), ("pre", "post")))
                except ValueError as exc:
                    report["errors"].append({"instrument": series.instrument_id, "q": None,
                                             "stage": "split", "error": str(exc)})
                    continue
            for prices, part in parts:
                outdir = out / series.instrument_id / part
                summary: dict = {"instrument": prices.instrument_id, "n_samples": len(prices),
                                 "per_q": {}, "gaps": gap_report(prices), "errors": []}
                try:
                    vol, session_ids = _volatility(prices, cfg)
                except ValueError as exc:  # constant prices, a sample outside the session, detrending
                    summary["errors"].append({"instrument": prices.instrument_id, "q": None,
                                              "stage": "volatility", "error": str(exc)})
                    queued.append((summary, outdir, None, []))
                    continue
                if session_ids is not None:
                    summary["detrended"] = True
                try:  # as q rises intervals only thin out, so too few for 'conditional' here fail every q
                    n_low = len(extract_intervals(vol, cfg.thresholds[0], session_ids=session_ids,
                                                  drop_session_gaps=cfg.drop_session_gaps))
                except ValueError:  # no interval: under two events, or none in one session
                    n_low = 0
                n_seeds = cfg.ensemble if n_low >= 2 * cfg.n_subsets else 0
                queued.append((summary, outdir, ex.submit(_analyze_one, vol, session_ids, cfg, outdir),
                              [ex.submit(_seed_rows, vol, cfg.thresholds, cfg.seed + i)
                               for i in range(n_seeds)]))

        for summary, outdir, stages, seeds in queued:
            for i, (q, outcome) in enumerate(zip(cfg.thresholds, stages.result() if stages else [])):
                if not isinstance(outcome, dict):
                    stage, exc = outcome
                else:  # q passed every stage, so the unit has seeds, each with a row per q
                    env = _envelope([f.result()[i] for f in seeds])
                    if not isinstance(env, ValueError):
                        _write_tsv(outdir / f"q{q:g}" / "cluster_surrogate.tsv", ("k", "mean", "lo", "hi"),
                                   tuple(env.T), f"seeds={len(seeds)}")
                        summary["per_q"][f"{q:g}"] = outcome
                        continue
                    stage, exc = "surrogate", env
                summary["errors"].append({"instrument": summary["instrument"], "q": q,
                                          "stage": stage, "error": str(exc)})
            _write_json(outdir / "summary.json", summary)
            report["instruments"].append(summary)
            report["errors"].extend(summary["errors"])
    finally:
        ex.shutdown(cancel_futures=True)
    report["exit_code"] = 0 if not report["errors"] else 1
    _write_json(out / "report.json", report)
    return report
