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
    IntervalSequence,
    PriceSeries,
    VolatilitySeries,
    clusters,
    extract_intervals,
    intraday_detrend,
    pdf_estimate,
    scale_pdf,
)

DAY = np.timedelta64(1, "D")
DAYS = np.arange("2000-01-01", "2000-01-04", dtype="datetime64[D]").astype("datetime64[s]")
SEQ = IntervalSequence(1.0, [1, 2, 3])

GUARDS = {
    "clusters_empty": (lambda: clusters([]), ValueError, "label sequence must be non-empty"),
    "pdf_empty": (lambda: pdf_estimate([]), ValueError,
                  "cannot estimate a PDF from an empty sequence"),
    "pdf_mode": (lambda: pdf_estimate(SEQ, mode="cubic"), ValueError,
                 "unknown binning mode 'cubic'"),
    "pdf_one_bin": (lambda: pdf_estimate(SEQ, n_bins=1), ValueError, "need at least 2 bins"),
    "scale_pdf_mean": (lambda: scale_pdf(pdf_estimate(SEQ), 0.0), ValueError,
                       "mean_interval must be positive"),
    "sequence_empty": (lambda: IntervalSequence(1.0, []), ValueError,
                       "interval sequence must be non-empty"),
    "sequence_zero": (lambda: IntervalSequence(1.0, [1, 0]), ValueError,
                      "intervals must be >= 1 sampling step"),
    "extract_q": (lambda: extract_intervals([3.0, 3.0], 0), ValueError,
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
