"""Scaling and memory analysis of volatility return intervals.

Pipeline: prices -> log-returns -> normalized volatility -> threshold
exceedance intervals -> scaled distributions, conditional (memory)
statistics, and above/below-median cluster runs, with shuffled
surrogates and synthetic correlated/i.i.d. oracles for verification.
"""

from .clusters import cluster_survival, clusters, median_split, shuffle_volatility
from .distributions import (
    BinnedPDF,
    collapse_distance,
    pdf_estimate,
    poisson_deviation,
    scale_pdf,
)
from .intervals import IntervalSequence, extract_intervals
from .memory import (
    conditional_mean_curve,
    conditional_pdfs,
    shuffle_intervals,
)
from .pipeline import AnalysisConfig, ingest_csv, run_pipeline, split_by_date, write_csv
from .series import (
    PriceSeries,
    ReturnSeries,
    SessionCalendar,
    VolatilitySeries,
    build_intraday_pattern,
    intraday_detrend,
    log_returns,
    normalize_volatility,
    session_slots,
)
from .synthetic import (
    GeneratorSpec,
    correlated_gaussian,
    gen_iid_gaussian,
    impose_intraday_pattern,
)

__version__ = "0.1.0"
