"""Command-line entry points.

Subcommands: analyze, intervals, pdf, conditional, clusters, synth,
split. Output is TSV/JSON for external plotting; no rendering here.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .pipeline import (
    AnalysisConfig,
    ConfigError,
    IngestError,
    ingest_csv,
    load_config,
    parse_time,
    run_pipeline,
    run_stage,
    split_by_date,
    write_csv,
)
from .series import PriceSeries
from .synthetic import GeneratorSpec, correlated_gaussian, gen_iid_gaussian

# analysis flags; each stores under its AnalysisConfig field name, and only
# when typed, so `_config` lays it over the --config file and the defaults
FLAGS = {
    "--q": dict(dest="thresholds", action="append", type=float,
                help="volatility threshold (repeatable)"),
    "--bins": dict(dest="n_bins", type=int),
    "--log-bins": dict(dest="binning", action="store_const", const="logarithmic"),
    "--linear-bins": dict(dest="binning", action="store_const", const="linear"),
    "--subsets": dict(dest="n_subsets", type=int),
    "--seed": dict(type=int),
    "--ensemble": dict(type=int),
    "--split-date": dict(),
    "--out": dict(dest="out_dir"),
}
_BINS = ("--bins", "--log-bins", "--linear-bins")
# analysis command -> (help, the flags it reads); every command but analyze
# runs the pipeline stage of its name
ANALYSIS_COMMANDS = {
    "analyze": ("run the full pipeline", tuple(FLAGS)),
    "intervals": ("extract return intervals", ("--q", "--out")),
    "pdf": ("scaled interval PDF per threshold", ("--q", *_BINS, "--out")),
    "conditional": ("conditional PDFs and mean curve", ("--q", *_BINS, "--subsets", "--out")),
    "clusters": ("above/below-median cluster survival", ("--q", "--out")),
}


def _config(args) -> AnalysisConfig:
    """AnalysisConfig's defaults, overridden by the --config file, overridden by the typed flags."""
    typed = {f.name: getattr(args, f.name) for f in fields(AnalysisConfig) if hasattr(args, f.name)}
    path = getattr(args, "config", None)
    return load_config(path, **typed) if path else AnalysisConfig(**typed)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="volintervals",
                                 description="Volatility return-interval analysis")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, (text, flags) in ANALYSIS_COMMANDS.items():
        p = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        if name == "analyze":
            p.add_argument("inputs", nargs="*", help="input CSV files (timestamp,price)")
            p.add_argument("--config", help="key=value config file")
        else:
            p.add_argument("inputs", nargs=1, metavar="input")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])

    p = sub.add_parser("synth", help="emit a synthetic price CSV")
    p.add_argument("--kind", choices=["iid", "correlated"], default="iid")
    p.add_argument("--length", type=int, default=2**16)
    p.add_argument("--gamma", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start", default="1984-01-04")
    p.add_argument("--interval", default="1d", help="sampling step, e.g. 1d or 1m")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("split", help="split a CSV at a date")
    p.add_argument("input")
    p.add_argument("--split-date", required=True)
    p.add_argument("--out", default="out")

    return ap


def _parse_step(text) -> int:
    """--interval in seconds: a count of at least 1 (1 if none), then a unit (s if none)."""
    units = {"d": 86400, "day": 86400, "m": 60, "min": 60, "s": 1, "h": 3600}
    m = re.fullmatch(r"\s*(\d*)\s*(day|d|min|m|s|h)?\s*", text)
    if not m or not (m[1] or m[2]) or int(m[1] or 1) < 1:
        raise ConfigError(f"--interval must be a count of at least 1 and a unit "
                          f"d, day, h, m, min or s, got {text!r}")
    return int(m[1] or 1) * units[m[2] or "s"]


# the last second that a timestamp, and so a synth row, can have
_LAST_SECOND = np.datetime64("9999-12-31T23:59:59")


def _out_path(text) -> Path:
    """synth's and split's --out; a blank one would name the working directory."""
    if not text.strip():
        raise ConfigError(f"--out must not be blank, got {text!r}")
    return Path(text)


def _cmd_synth(args) -> int:
    out = _out_path(args.out)
    if args.length < 2:
        raise ConfigError(f"--length must be >= 2, got {args.length}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if not 0 < args.gamma < 1:  # read only by --kind correlated, checked for every kind
        raise ConfigError(f"--gamma must lie in (0, 1), got {args.gamma}")
    seconds = _parse_step(args.interval)
    start = parse_time(args.start, "--start").astype("datetime64[s]")
    if int((_LAST_SECOND - start).astype(np.int64)) < (args.length - 1) * seconds:
        raise ConfigError(f"--start {args.start}, --interval {args.interval} and --length {args.length} "
                          f"put the last row after {_LAST_SECOND}")
    step = np.timedelta64(seconds, "s")
    if args.kind == "iid":
        g = gen_iid_gaussian(GeneratorSpec(kind="iid_gaussian", length=args.length,
                                           seed=args.seed)).values
    else:
        g = correlated_gaussian(args.length, args.gamma, args.seed)
    # small increments keep exp(cumsum) in floating range for long series
    logp = np.cumsum(1e-4 * g)
    prices = 100.0 * np.exp(logp - logp[0])
    ts = start + np.arange(args.length) * step
    series = PriceSeries(instrument_id=out.stem, timestamps=ts,
                         prices=prices, sampling_interval=step)
    write_csv(series, out)
    print(f"wrote {args.out} ({args.length} rows)")
    return 0


def _cmd_split(args) -> int:
    out = _out_path(args.out)
    series = ingest_csv(args.input)
    pre, post = split_by_date(series, args.split_date)
    for part in (pre, post):
        write_csv(part, out / f"{part.instrument_id}.csv")
        print(f"wrote {out / (part.instrument_id + '.csv')} ({len(part)} rows)")
    return 0


def _cmd_stage(args) -> int:
    for line in run_stage(_config(args), args.command):
        print(line)
    return 0


def _cmd_analyze(args) -> int:
    report = run_pipeline(_config(args))
    for s in report["instruments"]:
        qs = ", ".join(f"q={q}: <tau>={v['mean_interval']:.10g}" for q, v in s["per_q"].items())
        print(f"{s['instrument']}: {qs}")
    if report["errors"]:
        print(json.dumps(report["errors"], indent=2), file=sys.stderr)
    return report["exit_code"]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"analyze": _cmd_analyze, "synth": _cmd_synth, "split": _cmd_split}
    try:
        return handlers.get(args.command, _cmd_stage)(args)
    except (ConfigError, IngestError, ValueError, OSError) as exc:  # OSError: a path we cannot write or read
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
