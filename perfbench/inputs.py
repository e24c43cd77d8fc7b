"""Workload inputs, built from the library's own public generators.

Every input is a pure function of the workload seed: the same seed gives
byte-identical CSV and config files. Each workload also fixes the argv
lists of one pass, so the pass is exactly what a user would type.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from volintervals import PriceSeries, VolatilitySeries, write_csv
from volintervals.synthetic import (
    GeneratorSpec,
    correlated_gaussian,
    gen_iid_gaussian,
    impose_intraday_pattern,
)

WORKLOADS = ("daily_surrogate", "intraday_panel", "cli_stages")

DAILY_ROWS = 2**18
GAMMA = 0.3
RETURN_SCALE = 1e-4  # keeps exp(cumsum) in floating range for long series

SESSIONS = 200
BARS_PER_SESSION = 360  # 09:00 .. 14:59, one-minute bars
SPLIT_SESSION = 100
INTRADAY_QS = (1.0, 1.25, 1.5, 1.75, 2.0)
DAILY_QS = (1.0, 1.5, 2.0)
CLI_DEFAULT_QS = (1.0, 1.25, 1.5, 1.75, 2.0)  # the CLI's default thresholds
CLI_STAGES = ("intervals", "pdf", "conditional", "clusters")


@dataclass
class Workload:
    """The generated inputs of one workload and the argv lists of one pass."""

    name: str
    inputs: dict[str, Path]  # instrument id -> CSV
    out_dir: Path
    passes: list[list[str]]  # cli.main argv lists, run in order
    thresholds: tuple[float, ...]
    units: list[str]  # output subdirectories, one per analysis unit
    records: list[dict]  # per input file: name, rows and sha256


def _prices(returns: np.ndarray, timestamps: np.ndarray, step_s: int, name: str) -> PriceSeries:
    logp = np.cumsum(RETURN_SCALE * returns)
    return PriceSeries(instrument_id=name, timestamps=timestamps,
                       prices=100.0 * np.exp(logp - logp[0]),
                       sampling_interval=np.timedelta64(step_s, "s"))


def _daily(returns: np.ndarray, name: str) -> PriceSeries:
    start = np.datetime64("1984-01-04T00:00:00")
    ts = start + np.arange(returns.size) * np.timedelta64(86400, "s")
    return _prices(returns, ts, 86400, name)


def u_shaped_pattern(n_slots: int = BARS_PER_SESSION) -> np.ndarray:
    """Positive time-of-day activity: high at open and close, low at midday."""
    x = (np.arange(n_slots) - (n_slots - 1) / 2) / ((n_slots - 1) / 2)
    return 0.6 + 1.4 * x * x


def session_days(n: int = SESSIONS) -> np.ndarray:
    return np.busday_offset(np.datetime64("2021-01-04"), np.arange(n), roll="forward")


def _intraday(seed: int, name: str) -> PriceSeries:
    n = SESSIONS * BARS_PER_SESSION
    x = correlated_gaussian(n, GAMMA, seed)
    shaped = impose_intraday_pattern(VolatilitySeries(values=np.abs(x)), u_shaped_pattern())
    returns = np.sign(x) * shaped.values
    open_s = np.timedelta64(9 * 3600, "s")
    bars = np.arange(BARS_PER_SESSION) * np.timedelta64(60, "s")
    days = session_days().astype("datetime64[s]")
    ts = (days[:, None] + open_s + bars[None, :]).ravel()
    return _prices(returns, ts, 60, name)


def _write(series: PriceSeries, path: Path) -> dict:
    write_csv(series, path)
    return {"file": path.name, "rows": len(series),
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the inputs of workload `name` under `work` and describe one pass."""
    inp, out = work / "inputs", work / "out"
    inp.mkdir(parents=True, exist_ok=True)
    if name == "daily_surrogate":
        csv = inp / "daily.csv"
        rec = _write(_daily(correlated_gaussian(DAILY_ROWS, GAMMA, seed), "daily"), csv)
        argv = ["analyze", str(csv), "--ensemble", "100", "--log-bins",
                "--seed", str(seed), "--out", str(out)]
        for q in DAILY_QS:
            argv += ["--q", f"{q:g}"]
        return Workload(name, {"daily": csv}, out, [argv], DAILY_QS, ["daily"], [rec])
    if name == "intraday_panel":
        files, records, units = {}, [], []
        for i in range(2):
            inst = f"panel{i}"
            csv = inp / f"{inst}.csv"
            records.append(_write(_intraday(2 * seed + i, inst), csv))
            files[inst] = csv
            units += [f"{inst}/pre", f"{inst}/post"]
        split = str(session_days()[SPLIT_SESSION])
        cfg = inp / "panel.cfg"
        lines = [f"input={p}" for p in files.values()] + [
            "q=" + ",".join(f"{q:g}" for q in INTRADAY_QS),
            "ensemble=5", "max_workers=2", f"seed={seed}",
            "session_open=09:00", "session_close=15:00", "drop_session_gaps=true",
            f"split_date={split}", f"out={out}",
        ]
        cfg.write_text("\n".join(lines) + "\n")
        records.append({"file": cfg.name, "rows": len(lines),
                        "sha256": hashlib.sha256(cfg.read_bytes()).hexdigest()})
        return Workload(name, files, out, [["analyze", "--config", str(cfg)]],
                        INTRADAY_QS, units, records)
    if name == "cli_stages":
        csv = inp / "iid.csv"
        g = gen_iid_gaussian(GeneratorSpec(kind="iid_gaussian", length=DAILY_ROWS, seed=seed)).values
        rec = _write(_daily(g, "iid"), csv)
        argvs = [[stage, str(csv), "--out", str(out / stage)] for stage in CLI_STAGES]
        return Workload(name, {"iid": csv}, out, argvs, CLI_DEFAULT_QS, list(CLI_STAGES), [rec])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
