"""Price series, log-returns, normalized volatility, and intraday detrending.

The normalized volatility is the absolute log-return divided by the
full-sample standard deviation of the log-returns (population moments,
i.e. time averages). Intraday detrending divides each observation by the
cross-session mean volatility of its time-of-day slot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PriceSeries",
    "ReturnSeries",
    "VolatilitySeries",
    "SessionCalendar",
    "log_returns",
    "normalize_volatility",
    "build_intraday_pattern",
    "intraday_detrend",
    "session_slots",
    "gap_report",
]


@dataclass(frozen=True)
class PriceSeries:
    """Timestamped prices for one instrument at a fixed sampling interval."""

    instrument_id: str
    timestamps: np.ndarray  # datetime64
    prices: np.ndarray
    sampling_interval: np.timedelta64

    def __post_init__(self):
        ts = np.asarray(self.timestamps)
        prices = np.asarray(self.prices, dtype=float)
        if prices.size < 2:
            raise ValueError("price series needs at least 2 observations")
        bad = np.flatnonzero(~(np.isfinite(prices) & (prices > 0)))
        if bad.size:
            raise ValueError(f"price at index {bad[0]} must be finite and positive, "
                             f"got {float(prices[bad[0]])}")
        if ts.shape != prices.shape:
            raise ValueError("timestamps and prices must have equal length")
        # compared in the timestamps' own unit: nanoseconds overflow past 292 years
        if not (np.diff(ts) > np.timedelta64(0)).all():  # NaT fails every comparison
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", prices)

    def __len__(self):
        return self.prices.size


@dataclass(frozen=True)
class ReturnSeries:
    """Log-returns."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class VolatilitySeries:
    """Normalized absolute-return magnitudes."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not (v >= 0).all():  # NaN fails every comparison
            raise ValueError("volatility values must be non-negative")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class SessionCalendar:
    """Trading session [open, close), "HH:MM" wall-clock strings."""

    open_time: str = "09:00"
    close_time: str = "15:00"

    def __post_init__(self):
        if self.open_minute() >= self.close_minute():
            raise ValueError(f"session_open {self.open_time} is not before "
                             f"session_close {self.close_time}")

    def open_minute(self) -> int:
        return _hhmm_minute(self.open_time, "session_open")

    def close_minute(self) -> int:
        return _hhmm_minute(self.close_time, "session_close")


def _hhmm_minute(text: str, name: str) -> int:
    m = re.fullmatch(r"([01]?[0-9]|2[0-3]):([0-5][0-9])", text)
    if m is None:
        raise ValueError(f"{name} must be HH:MM, got {text!r}")
    return int(m[1]) * 60 + int(m[2])


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """Log-return between consecutive samples: ln(Y[t+1]) - ln(Y[t])."""
    g = np.diff(np.log(prices.prices))
    return ReturnSeries(values=g)


def normalize_volatility(returns: ReturnSeries) -> VolatilitySeries:
    """Normalize |G| by the full-sample standard deviation of G.

    The normalizer is sqrt(<G^2> - <G>^2) with <.> the time average over
    the whole sample (population variance, not ddof=1). A std under 1e-6
    of the RMS is taken for the rounding of equal returns, and is zero.
    """
    g = returns.values
    mean_sq = np.mean(g * g)
    var = mean_sq - np.mean(g) ** 2
    if not var > 1e-12 * mean_sq:  # also false for NaN
        raise ValueError("return series has zero standard deviation")
    return VolatilitySeries(values=np.abs(g) / np.sqrt(var))


def session_slots(timestamps, calendar: SessionCalendar, sampling_interval) -> tuple[np.ndarray, np.ndarray]:
    """Map timestamps to (slot, session_id) arrays.

    Slot is the number of whole sampling intervals elapsed since session
    open; session id is the calendar day. The session is [open, close):
    samples before the open or at or after the close are rejected.
    """
    ts = np.asarray(timestamps).astype("datetime64[s]")
    days = ts.astype("datetime64[D]")
    secs = (ts - days).astype(np.int64) - 60 * calendar.open_minute()  # since the open
    length = 60 * (calendar.close_minute() - calendar.open_minute())
    for outside, where in ((secs < 0, f"before session open {calendar.open_time}"),
                           (secs >= length, f"at or after session close {calendar.close_time}")):
        if np.any(outside):
            raise ValueError(f"sample at index {int(np.flatnonzero(outside)[0])} falls {where}")
    step = max(int(np.timedelta64(sampling_interval, "s").astype(np.int64)), 1)
    return secs // step, days.astype(np.int64)


def build_intraday_pattern(vol: VolatilitySeries, slots, session_ids) -> np.ndarray:
    """Mean volatility of each time-of-day slot across sessions, indexed by
    slot; NaN for a slot never observed (empty, not zero)."""
    slots = np.asarray(slots, dtype=np.int64)
    session_ids = np.asarray(session_ids)
    if np.unique(session_ids).size < 2:
        raise ValueError("intraday pattern needs at least 2 sessions")
    n_slots = int(slots.max()) + 1
    counts = np.bincount(slots, minlength=n_slots)
    sums = np.bincount(slots, weights=vol.values, minlength=n_slots)
    return np.divide(sums, counts, out=np.full(n_slots, np.nan), where=counts > 0)


def intraday_detrend(vol: VolatilitySeries, pattern: np.ndarray, slots) -> VolatilitySeries:
    """Divide each observation by its slot's cross-session mean, `pattern`
    being build_intraday_pattern's slot means."""
    slots = np.asarray(slots, dtype=np.int64)
    if slots.max() >= pattern.size:
        raise ValueError(f"slot {int(slots.max())} not covered by pattern")
    means = pattern[slots]
    bad = ~(means > 0)  # catches NaN (empty slot) and non-positive means
    if np.any(bad):
        s = int(slots[np.flatnonzero(bad)[0]])
        raise ValueError(f"pattern slot {s} is empty or non-positive")
    return VolatilitySeries(values=vol.values / means)


def gap_report(prices: PriceSeries) -> list[int]:
    """Indices i where the step from sample i to i+1 exceeds the sampling interval."""
    diffs = np.diff(prices.timestamps)
    return np.flatnonzero(diffs > prices.sampling_interval).tolist()
