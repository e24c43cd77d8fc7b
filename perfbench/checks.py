"""Output checks for one workload pass.

An analysis is one (unit, q) pair: an instrument (or split half) under
`analyze`, or one subcommand under the per-stage CLI. It fails when the
program reports an error for it, when one of its outputs is missing,
unparsable or non-finite, when a pass writes bytes that differ from the
warm-up pass, or when an independent numpy oracle disagrees with it.
The oracles read only the input CSV and the emitted files; they share no
code with the library.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from inputs import BARS_PER_SESSION, SPLIT_SESSION, Workload, session_days

Key = tuple[str, str]  # (unit, q label)

ANALYZE_Q_FILES = (
    ["intervals.tsv", "scaled_pdf.tsv"]
    + [f"conditional_pdf_k{k}.tsv" for k in range(1, 9)]
    + ["conditional_mean.tsv", "conditional_mean_shuffled.tsv",
       "cluster_survival.tsv", "cluster_surrogate.tsv"]
)
CLI_Q_FILES = {
    "intervals": ["intervals_q{q}.tsv"],
    "pdf": ["scaled_pdf_q{q}.tsv"],
    "conditional": [f"conditional_pdf_q{{q}}_k{k}.tsv" for k in range(1, 9)]
    + ["conditional_mean_q{q}.tsv"],
    "clusters": ["cluster_survival_q{q}.tsv"],
}
# workload -> (unit, q, instrument, intervals file, detrended and split)
ORACLE_TARGET = {
    "daily_surrogate": ("daily", 1.0, "daily", "daily/q1/intervals.tsv", False),
    "intraday_panel": ("panel0/pre", 1.5, "panel0", "panel0/pre/q1.5/intervals.tsv", True),
    "cli_stages": ("intervals", 1.0, "iid", "intervals/intervals_q1.tsv", False),
}
KS_TOL = 1e-12
OPEN_MINUTE = 9 * 60


def qlabel(q: float) -> str:
    return f"{q:g}"


def keys(w: Workload) -> list[Key]:
    return [(u, qlabel(q)) for u in w.units for q in w.thresholds]


def owners(w: Workload) -> dict[str, list[Key]]:
    """Expected output file (relative to the output dir) -> analyses it belongs to."""
    own: dict[str, list[Key]] = {}
    analyze = w.name != "cli_stages"
    for unit in w.units:
        unit_keys = [(unit, qlabel(q)) for q in w.thresholds]
        for key in unit_keys:
            names = (ANALYZE_Q_FILES if analyze else
                     [n.format(q=key[1]) for n in CLI_Q_FILES[unit]])
            for n in names:
                own[f"{unit}/q{key[1]}/{n}" if analyze else f"{unit}/{n}"] = [key]
        if analyze:
            own[f"{unit}/collapse_matrix.json"] = unit_keys
            own[f"{unit}/summary.json"] = unit_keys
        elif unit == "intervals":
            own["intervals/intervals_summary.json"] = unit_keys
    if analyze:
        own["report.json"] = keys(w)
    return own


def keys_of_path(w: Workload, rel: str) -> list[Key]:
    """Analyses a (possibly unexpected) output path belongs to."""
    own = owners(w)
    if rel in own:
        return own[rel]
    return [k for k in keys(w) if rel.startswith(k[0] + "/")] or keys(w)


def keys_of_argv(w: Workload, i: int) -> list[Key]:
    """Analyses produced by the i-th argv list of a pass."""
    if w.name == "cli_stages":
        return [(w.units[i], qlabel(q)) for q in w.thresholds]
    return keys(w)


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, float):
        return bool(np.isfinite(obj))
    return True


def read_tsv(path: Path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Header and numeric columns of an emitted TSV; raises ValueError if unparsable."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split("\t")
    rows = [ln.split("\t") for ln in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path}: ragged rows")
    cols = {}
    for j, name in enumerate(header):
        values = [r[j] for r in rows]
        cols[name] = np.array(values) if name == "side" else np.array(values, dtype=float)
    return header, cols


def _tsv_ok(path: Path) -> bool:
    try:
        _, cols = read_tsv(path)
    except (ValueError, IndexError):
        return False
    return all(c.dtype.kind != "f" or np.isfinite(c).all() for c in cols.values())


def read_prices(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps (datetime64[s]) and prices of an input CSV, parsed independently."""
    lines = path.read_text().splitlines()[1:]
    fields = [ln.split(",") for ln in lines if ln]
    ts = np.array([f[0] for f in fields], dtype="datetime64[s]")
    return ts, np.array([f[1] for f in fields], dtype=float)


def oracle_intervals(ts: np.ndarray, prices: np.ndarray, q: float, detrend: bool) -> np.ndarray:
    """Return intervals from first principles.

    Volatility is |ln Y(t+1) - ln Y(t)| over sqrt(<G^2> - <G>^2); with
    `detrend` it is divided by the mean volatility of its minute of the
    session and intervals spanning two sessions are dropped.
    """
    g = np.diff(np.log(prices))
    v = np.abs(g) / np.sqrt(np.mean(g * g) - np.mean(g) ** 2)
    left = ts[:-1]  # a return belongs to the sample it starts from
    day = left.astype("datetime64[D]")
    if detrend:
        minute = ((left - day.astype("datetime64[s]")).astype(np.int64) // 60) - OPEN_MINUTE
        per_minute = np.bincount(minute, weights=v, minlength=BARS_PER_SESSION)
        n_per_minute = np.bincount(minute, minlength=BARS_PER_SESSION)
        v = v / (per_minute / n_per_minute)[minute]
    events = np.flatnonzero(v > q)
    intervals = np.diff(events)
    if detrend:
        intervals = intervals[day[events[1:]] == day[events[:-1]]]
    return intervals


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """sup_x |F_a(x) - F_b(x)| of the two empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    fa = np.searchsorted(a, x, side="right") / a.size
    fb = np.searchsorted(b, x, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


class Checker:
    """Collects failed analyses for one workload's outputs."""

    def __init__(self, w: Workload):
        self.w = w
        self.failed: set[Key] = set()
        self.notes: list[str] = []
        self.reported_errors = False  # report.json attributes failures to (unit, q)

    def fail(self, ks: list[Key], why: str) -> None:
        self.failed.update(ks)
        self.notes.append(why)

    def check_tree(self) -> None:
        """Presence, finiteness, reported errors and both oracles, on the last pass's tree."""
        w, out = self.w, self.w.out_dir
        for rel, ks in owners(w).items():
            path = out / rel
            if not path.is_file():
                self.fail(ks, f"missing {rel}")
            elif rel.endswith(".tsv") and not _tsv_ok(path):
                self.fail(ks, f"unparsable or non-finite {rel}")
            elif rel.endswith(".json"):
                try:
                    obj = json.loads(path.read_text())
                except ValueError:
                    self.fail(ks, f"invalid JSON {rel}")
                    continue
                if not _all_finite(obj):
                    self.fail(ks, f"non-finite number in {rel}")
                elif rel.endswith("summary.json") and "per_q" in obj:
                    for k in ks:
                        if k[1] not in obj["per_q"]:
                            self.fail([k], f"{rel} lacks q={k[1]}")
        if w.name != "cli_stages":
            self._check_report()
            for unit in w.units:
                self._check_collapse(unit)
        self._check_intervals_oracle()

    def _check_report(self) -> None:
        path = self.w.out_dir / "report.json"
        if not path.is_file():
            return
        for err in json.loads(path.read_text()).get("errors", []):
            # a split half "inst/pre" reports itself as instrument "inst_pre"
            inst, q = err.get("instrument"), err.get("q")
            ks = [k for k in keys(self.w) if k[0].replace("/", "_") == inst
                  and (q is None or k[1] == qlabel(q))]
            self.fail(ks or keys(self.w), f"reported error {err}")
            self.reported_errors = True

    def _check_collapse(self, unit: str) -> None:
        path = self.w.out_dir / unit / "collapse_matrix.json"
        try:
            mat = json.loads(path.read_text())
            qs, d = mat["q"], np.array(mat["ks_distance"], dtype=float)
            samples = {ql: read_tsv(self.w.out_dir / unit / f"q{ql}" / "intervals.tsv")[1]["interval"]
                       for ql in qs}
        except (OSError, ValueError, KeyError, IndexError):
            return  # already failed as missing or unparsable
        for i, qi in enumerate(qs):
            for j, qj in enumerate(qs):
                a, b = samples[qi], samples[qj]
                expect = 0.0 if i == j else ks_statistic(a / a.mean(), b / b.mean())
                if abs(d[i, j] - expect) > KS_TOL:
                    self.fail([(unit, qi), (unit, qj)],
                              f"{unit} KS(q={qi}, q={qj}) = {d[i, j]!r}, oracle {expect!r}")

    def _check_intervals_oracle(self) -> None:
        """Re-derive one intervals file per workload from its input CSV."""
        w = self.w
        unit, q, instrument, rel, detrend = ORACLE_TARGET[w.name]
        ts, prices = read_prices(w.inputs[instrument])
        if detrend:
            pre = ts < session_days()[SPLIT_SESSION].astype("datetime64[s]")
            ts, prices = ts[pre], prices[pre]
        expect = oracle_intervals(ts, prices, q, detrend)
        try:
            got = read_tsv(w.out_dir / rel)[1]
        except (OSError, ValueError, IndexError):
            return  # already failed as missing or unparsable
        if not (np.array_equal(got["interval"], expect) and np.all(got["q"] == q)):
            self.fail([(unit, qlabel(q))], f"{rel} differs from the numpy oracle "
                                           f"({got['interval'].size} vs {expect.size} intervals)")
