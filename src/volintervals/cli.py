"""Command-line entry points.

Subcommands: analyze, intervals, pdf, conditional, clusters, synth,
split. Output is TSV/JSON for external plotting; no rendering here.
"""

from __future__ import annotations

import argparse
import json
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
    run_pipeline,
    run_stage,
    split_by_date,
    write_csv,
)
from .series import PriceSeries
from .synthetic import GeneratorSpec, correlated_gaussian, gen_iid_gaussian

DEFAULT_QS = [1.0, 1.25, 1.5, 1.75, 2.0]

# analysis flags; each stores under its AnalysisConfig field name, which
# `_config` passes through unchanged
FLAGS = {
    "--q": dict(dest="thresholds", action="append", type=float,
                help="volatility threshold (repeatable)"),
    "--bins": dict(dest="n_bins", type=int, default=30),
    "--log-bins": dict(dest="binning", action="store_const", const="logarithmic",
                       default="logarithmic"),
    "--linear-bins": dict(dest="binning", action="store_const", const="linear"),
    "--subsets": dict(dest="n_subsets", type=int, default=8),
    "--seed": dict(type=int, default=0),
    "--ensemble": dict(type=int, default=100),
    "--split-date": dict(),
    "--out": dict(dest="out_dir", default="out"),
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
    """The AnalysisConfig of an analysis command's flags; unset keys keep their defaults."""
    kw = {f.name: getattr(args, f.name) for f in fields(AnalysisConfig) if hasattr(args, f.name)}
    kw["thresholds"] = kw["thresholds"] or DEFAULT_QS
    return AnalysisConfig(**kw)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="volintervals",
                                 description="Volatility return-interval analysis")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, (text, flags) in ANALYSIS_COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name == "analyze":
            p.add_argument("inputs", nargs="*", help="input CSV files (timestamp,price)")
            p.add_argument("--config", default=None, help="key=value config file")
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


def _parse_step(text) -> np.timedelta64:
    text = text.strip().lower()
    units = {"d": "D", "day": "D", "m": "m", "min": "m", "s": "s", "h": "h"}
    for suffix in sorted(units, key=len, reverse=True):
        if text.endswith(suffix):
            return np.timedelta64(int(text[: -len(suffix)] or 1), units[suffix])
    return np.timedelta64(int(text), "s")


def _cmd_synth(args) -> int:
    if args.kind == "iid":
        g = gen_iid_gaussian(GeneratorSpec(kind="iid_gaussian", length=args.length,
                                           seed=args.seed)).values
    else:
        g = correlated_gaussian(args.length, args.gamma, args.seed)
    # small increments keep exp(cumsum) in floating range for long series
    logp = np.cumsum(1e-4 * g)
    prices = 100.0 * np.exp(logp - logp[0])
    step = _parse_step(args.interval)
    start = np.datetime64(args.start).astype("datetime64[s]")
    ts = start + np.arange(args.length) * step.astype("timedelta64[s]")
    series = PriceSeries(instrument_id=Path(args.out).stem, timestamps=ts,
                         prices=prices, sampling_interval=step.astype("timedelta64[s]"))
    write_csv(series, args.out)
    print(f"wrote {args.out} ({args.length} rows)")
    return 0


def _cmd_split(args) -> int:
    series = ingest_csv(args.input)
    pre, post = split_by_date(series, args.split_date)
    out = Path(args.out)
    for part in (pre, post):
        write_csv(part, out / f"{part.instrument_id}.csv")
        print(f"wrote {out / (part.instrument_id + '.csv')} ({len(part)} rows)")
    return 0


def _cmd_stage(args) -> int:
    # subcommands write under --out; VOLINTERVALS_OUT redirects only analyze
    for line in run_stage(_config(args), args.command, Path(args.out_dir)):
        print(line)
    return 0


def _cmd_analyze(args) -> int:
    if args.config:
        cfg = load_config(args.config)
        if args.inputs:
            cfg.inputs = list(args.inputs)
    else:
        cfg = _config(args)
    report = run_pipeline(cfg)
    for s in report["instruments"]:
        qs = ", ".join(f"q={q}: <tau>={v['mean_interval']:.10g}" for q, v in sorted(s["per_q"].items()))
        print(f"{s['instrument']}: {qs}")
    if report["errors"]:
        print(json.dumps(report["errors"], indent=2), file=sys.stderr)
    return report["exit_code"]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"analyze": _cmd_analyze, "synth": _cmd_synth, "split": _cmd_split}
    try:
        return handlers.get(args.command, _cmd_stage)(args)
    except (ConfigError, IngestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
