"""Each argument guard of the public functions and constructors raises its own type and
message, and each public name exists where it is listed."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import volintervals
from volintervals import (
    PriceSeries,
    VolatilitySeries,
    build_intraday_pattern,
    cluster_survival,
    collapse_distance,
    extract_intervals,
    geometric_deviation,
    intraday_detrend,
    mean_interval,
    median_split,
    pdf_estimate,
    run_sizes,
)
from volintervals.synthetic import correlated_gaussian, impose_intraday_pattern

DAY = np.timedelta64(1, "D")
DAYS = np.arange("2000-01-01", "2000-01-04", dtype="datetime64[D]").astype("datetime64[s]")
IV = np.array([1, 2, 3])

GUARDS = {
    "median_split_empty": (lambda: median_split(np.array([], dtype=np.int64)), ValueError,
                           "interval sequence must be non-empty"),
    "pdf_empty": (lambda: pdf_estimate([], 1.0), ValueError,
                  "cannot estimate a PDF from an empty sequence"),
    "pdf_mode": (lambda: pdf_estimate(IV, 2.0, mode="cubic"), ValueError,
                 "unknown binning mode 'cubic'"),
    "pdf_one_bin": (lambda: pdf_estimate(IV, 2.0, n_bins=1), ValueError,
                    "need at least 2 bins"),
    "scale_pdf_mean": (lambda: pdf_estimate(IV, 0.0), ValueError,
                       "mean_interval must be positive"),
    "sequence_empty": (lambda: mean_interval([]), ValueError, "interval sequence must be non-empty"),
    "sequence_zero": (lambda: mean_interval([1, 0]), ValueError,
                      "intervals must be >= 1 sampling step"),
    # both take the mean, and so its checks, from mean_interval
    "geometric_empty": (lambda: geometric_deviation([]), ValueError,
                        "interval sequence must be non-empty"),
    "collapse_empty": (lambda: collapse_distance([[1, 2], []]), ValueError,
                       "interval sequence must be non-empty"),
    "collapse_jitter_zero": (lambda: collapse_distance([[1, 2], [0, 1]], jitter_seed=0), ValueError,
                             "intervals must be >= 1 sampling step"),
    # sizes that hold no run, or a size that is no run
    "survival_no_runs": (lambda: cluster_survival(run_sizes([False, False])), ValueError,
                         "no clusters"),
    "survival_empty": (lambda: cluster_survival([]), ValueError, "no clusters"),
    "survival_zero": (lambda: cluster_survival([0, 2]), ValueError, "cluster sizes must be >= 1"),
    "extract_q": (lambda: extract_intervals([3.0, 3.0], 0), ValueError,
                  "threshold q must be positive"),
    "extract_q_nan": (lambda: extract_intervals([3.0, 3.0], float("nan")), ValueError,
                      "threshold q must be positive"),
    "extract_one_sample": (lambda: extract_intervals([3.0], 1.0), ValueError,
                           "volatility series needs at least 2 samples"),
    "extract_nan": (lambda: extract_intervals([2.0, np.nan, 2.0], 1.0), ValueError,
                    "volatility values must be non-negative"),
    "extract_negative": (lambda: extract_intervals([2.0, -3.0, 2.0], 1.0), ValueError,
                         "volatility values must be non-negative"),
    "prices_one": (lambda: PriceSeries("p", DAYS[:1], [1.0], DAY), ValueError,
                   "price series needs at least 2 observations"),
    "prices_shape": (lambda: PriceSeries("p", DAYS, [1.0, 2.0], DAY), ValueError,
                     "timestamps and prices must have equal length"),
    "prices_nan": (lambda: PriceSeries("p", DAYS, [1.0, np.nan, 2.0], DAY), ValueError,
                   "price at index 1 must be finite and positive, got nan"),
    "prices_inf": (lambda: PriceSeries("p", DAYS, [1.0, 2.0, np.inf], DAY), ValueError,
                   "price at index 2 must be finite and positive, got inf"),
    "prices_zero": (lambda: PriceSeries("p", DAYS, [0.0, 1.0, 2.0], DAY), ValueError,
                    "price at index 0 must be finite and positive, got 0.0"),
    "prices_nat": (lambda: PriceSeries("p", np.array(["2000-01-01", "NaT", "2000-01-03"],
                                                     dtype="datetime64[s]"), [1.0, 2.0, 3.0], DAY),
                   ValueError, "timestamps must be strictly increasing"),
    "volatility_negative": (lambda: VolatilitySeries([1.0, -1.0]), ValueError,
                            "volatility values must be non-negative"),
    "volatility_nan": (lambda: VolatilitySeries([1.0, np.nan]), ValueError,
                       "volatility values must be non-negative"),
    "detrend_slot": (lambda: intraday_detrend(VolatilitySeries([1.0, 1.0]), np.ones(2), [0, 2]),
                     ValueError, "slot 2 not covered by pattern"),
    # a negative slot would index the pattern from its end, a fractional one be truncated
    "detrend_negative_slot": (lambda: intraday_detrend(VolatilitySeries(np.ones(6)),
                                                       np.array([1.0, 2.0, 4.0]),
                                                       [-1, 0, 1, 2, 0, 1]),
                              ValueError, "slot at index 0 must be a non-negative integer, got -1"),
    "detrend_fractional_slot": (lambda: intraday_detrend(VolatilitySeries(np.ones(2)), np.ones(2),
                                                         [1, 0.9]),
                                ValueError,
                                "slot at index 1 must be a non-negative integer, got 0.9"),
    "pattern_negative_slot": (lambda: build_intraday_pattern(VolatilitySeries(np.ones(4)),
                                                             [0, 1, -1, 1], [0, 0, 1, 1]),
                              ValueError, "slot at index 2 must be a non-negative integer, got -1"),
    "pattern_fractional_slot": (lambda: build_intraday_pattern(VolatilitySeries(np.ones(4)),
                                                               [0.9, 1, 0, 1], [0, 0, 1, 1]),
                                ValueError,
                                "slot at index 0 must be a non-negative integer, got 0.9"),
    "pattern_nan_slot": (lambda: build_intraday_pattern(VolatilitySeries(np.ones(4)),
                                                        [0, 1, 0, np.nan], [0, 0, 1, 1]),
                         ValueError, "slot at index 3 must be a non-negative integer, got nan"),
    "impose_empty": (lambda: impose_intraday_pattern(VolatilitySeries(np.ones(4)), []),
                     ValueError, "pattern values must be positive"),
    "impose_nan": (lambda: impose_intraday_pattern(VolatilitySeries(np.ones(4)), [1.0, np.nan]),
                   ValueError, "pattern values must be positive"),
    "extract_short_sessions": (lambda: extract_intervals([2.0, 0.0, 2.0, 2.0], 1.0, [0, 0]),
                               ValueError,
                               "session_ids has length 2 but the volatility has 4 samples"),
    "extract_long_sessions": (lambda: extract_intervals([2.0, 0.0, 2.0], 1.0, [0, 0, 0, 1]),
                              ValueError,
                              "session_ids has length 4 but the volatility has 3 samples"),
    "detrend_short_slots": (lambda: intraday_detrend(VolatilitySeries([1.0, 2.0]), np.ones(2), [0]),
                            ValueError, "slots has length 1 but the volatility has 2 samples"),
    "pattern_long_sessions": (lambda: build_intraday_pattern(VolatilitySeries([1.0, 2.0]), [0, 1],
                                                             [0, 1, 1]),
                              ValueError,
                              "session_ids has length 3 but the volatility has 2 samples"),
    # an empty series, or [nan] from dividing by the zero deviation of one sample
    "correlated_empty": (lambda: correlated_gaussian(0, 0.3, 0), ValueError, "length must be >= 2"),
    "correlated_one": (lambda: correlated_gaussian(1, 0.3, 0), ValueError, "length must be >= 2"),
}


@pytest.mark.parametrize("call, kind, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_type_and_message(call, kind, message):
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind and str(exc.value) == message


MODULES = [m.name for m in pkgutil.iter_modules(volintervals.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_exists(name):
    module = importlib.import_module(f"volintervals.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_the_package_imports_only_names_its_modules_list():
    tree = ast.parse(Path(volintervals.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(MODULES) - {"cli"}
    for node in imports:
        listed = importlib.import_module(f"volintervals.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in listed] == [], node.module
