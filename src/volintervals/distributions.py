"""Interval PDFs, the scaled collapse, and distance-to-baseline measures.

The scaled form plots P_q(tau) * <tau> against tau / <tau>; if the
scaled curves for different thresholds coincide, the interval
distribution is a single shape rescaled by its mean. Collapse quality is
measured by two-sample Kolmogorov-Smirnov distances on the raw scaled
samples (never on bins); deviation from the memoryless baseline is the
KS distance of the integer intervals to the geometric law with the same
mean. Both are plain statistics; no p-value is computed.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .intervals import mean_interval

__all__ = [
    "pdf_estimate",
    "collapse_distance",
    "geometric_deviation",
]


def pdf_estimate(intervals, mean_interval: float, mode: str = "logarithmic",
                 n_bins: int = 30) -> tuple[np.ndarray, np.ndarray]:
    """Histogram density of intervals in collapse coordinates: the arrays
    (bin centre / mean_interval, density * mean_interval).

    The density integrates to 1 over the bins. Logarithmic mode uses
    log-spaced edges from min to max interval and geometric bin centres.
    """
    x = np.asarray(intervals, dtype=float)
    if x.size == 0:
        raise ValueError("cannot estimate a PDF from an empty sequence")
    if mode not in ("linear", "logarithmic"):
        raise ValueError(f"unknown binning mode {mode!r}")
    if n_bins < 2:
        raise ValueError("need at least 2 bins")
    if mean_interval <= 0:
        raise ValueError("mean_interval must be positive")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        if mode == "logarithmic":
            warnings.warn("all intervals identical; falling back to a single linear bin")
            mode = "linear"
        edges = np.array([lo - 0.5, lo + 0.5])
    elif mode == "logarithmic":
        edges = np.geomspace(lo, hi, n_bins + 1)
    else:
        edges = np.linspace(lo, hi, n_bins + 1)
    densities = np.histogram(x, bins=edges)[0] / (x.size * np.diff(edges))
    centres = np.sqrt(edges[:-1] * edges[1:]) if mode == "logarithmic" else 0.5 * (edges[:-1] + edges[1:])
    return centres / mean_interval, densities * mean_interval


def continuity_corrected_sample(intervals, rng) -> np.ndarray:
    """Scaled intervals with the integer lattice smoothed out.

    Subtracts U(0,1) jitter from each interval before scaling by the
    jittered mean. Integer intervals put large point masses on
    q-dependent lattices, which dominates any raw-sample KS comparison;
    the correction makes the samples continuous so KS measures the
    underlying shape.
    """
    mean_interval(intervals)  # rejects an empty sample or an interval below 1
    x = np.asarray(intervals) - rng.random(len(intervals))
    return x / x.mean()


# A two-sample KS distance is a multiple of 1/lcm(n1, n2). When neither
# sample exceeds this size the distance is rounded to that lattice, which
# removes the float error of the ECDF difference; larger samples keep the
# difference as computed. Both rules are those of the reference two-sample KS
# statistic the tests compare against, so collapse_matrix.json keeps its bytes.
_KS_LATTICE_MAX_N = 10_000


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sup |F_a - F_b| of two sorted, non-empty samples."""
    na, nb = a.size, b.size
    # both ECDFs step only at sample values, so the difference is evaluated once per
    # distinct value, at its last copy; integer intervals have tens to hundreds of them
    both = np.concatenate([x[np.r_[x[1:] != x[:-1], True]] for x in (a, b)])
    diff = np.searchsorted(a, both, side="right") / na - np.searchsorted(b, both, side="right") / nb
    d = float(np.abs(diff).max())
    if max(na, nb) <= _KS_LATTICE_MAX_N:
        lcm = na // math.gcd(na, nb) * nb
        d = round(d * lcm) / lcm
    return d


def collapse_distance(sequences, jitter_seed: int | None = None) -> np.ndarray:
    """Pairwise two-sample KS distances between scaled interval arrays.

    Symmetric, zero diagonal. Each sample is sorted once. With jitter_seed
    set, samples are continuity corrected first (deterministic per seed);
    use this when comparing sequences whose means, and hence scaled integer
    lattices, differ.
    """
    if len(sequences) < 2:
        raise ValueError("need at least 2 sequences")
    if jitter_seed is None:
        scaled = [np.asarray(s) / mean_interval(s) for s in sequences]
    else:
        rng = np.random.default_rng(jitter_seed)
        scaled = [continuity_corrected_sample(s, rng) for s in sequences]
    samples = [np.sort(x) for x in scaled]
    n = len(samples)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = _ks_distance(samples[i], samples[j])
    return d


def geometric_deviation(intervals) -> float:
    """KS distance of the intervals from the geometric law with p = 1/<tau>,
    that of the intervals between uncorrelated exceedances."""
    mean, iv = mean_interval(intervals), np.asarray(intervals)
    # both CDFs step only at integers, so the sup is the max over k = 1..max tau;
    # the geometric CDF is 1 - (1 - p)^k by plain products, which no host's SIMD
    # transcendental code can round differently
    emp = np.cumsum(np.bincount(iv)[1:]) / iv.size
    cdf = 1.0 - np.cumprod(np.full(emp.size, 1.0 - 1.0 / mean))
    return float(np.abs(emp - cdf).max())
