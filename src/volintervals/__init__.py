"""Scaling and memory analysis of volatility return intervals.

Pipeline: prices -> log-returns -> normalized volatility -> threshold
exceedance intervals -> scaled distributions, conditional (memory)
statistics, and above/below-median cluster runs, with shuffled
surrogates and synthetic correlated/i.i.d. oracles for verification.
"""

from .clusters import cluster_survival, median_split, run_sizes, shuffle_volatility
from .distributions import collapse_distance, geometric_deviation, pdf_estimate
from .intervals import extract_intervals, mean_interval
from .memory import conditional_blocks, conditional_mean_curve, shuffle_intervals
from .pipeline import AnalysisConfig, ingest_csv, run_pipeline, split_by_date, write_csv
from .series import (
    PriceSeries,
    ReturnSeries,
    VolatilitySeries,
    build_intraday_pattern,
    intraday_detrend,
    log_returns,
    normalize_volatility,
    session_bounds,
    session_slots,
)
from .synthetic import (
    GeneratorSpec,
    correlated_gaussian,
    gen_iid_gaussian,
    impose_intraday_pattern,
)

__version__ = "0.1.0"
