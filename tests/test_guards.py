"""Each argument guard of the public functions and constructors raises its own type and message."""

import numpy as np
import pytest

from volintervals import (
    IntervalSequence,
    IntradayPattern,
    PriceSeries,
    VolatilitySeries,
    clusters,
    extract_intervals,
    intraday_detrend,
    pdf_estimate,
    scale_pdf,
)
from volintervals.series import DetrendError

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
    "extract_no_sessions": (lambda: extract_intervals([3.0, 3.0], 1.0, drop_session_gaps=True),
                            ValueError, "drop_session_gaps requires session_ids"),
    "prices_one": (lambda: PriceSeries("p", DAYS[:1], [1.0], DAY), ValueError,
                   "price series needs at least 2 observations"),
    "prices_shape": (lambda: PriceSeries("p", DAYS, [1.0, 2.0], DAY), ValueError,
                     "timestamps and prices must have equal length"),
    "volatility_negative": (lambda: VolatilitySeries([1.0, -1.0]), ValueError,
                            "volatility values must be non-negative"),
    "detrend_slot": (lambda: intraday_detrend(VolatilitySeries([1.0, 1.0]),
                                              IntradayPattern(np.ones(2), np.ones(2, int)), [0, 2]),
                     DetrendError, "slot 2 not covered by pattern"),
}


@pytest.mark.parametrize("call, kind, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_type_and_message(call, kind, message):
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind and str(exc.value) == message
