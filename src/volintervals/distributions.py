"""Interval PDFs, the scaled collapse, and distance-to-baseline measures.

The scaled form plots P_q(tau) * <tau> against tau / <tau>; if the
scaled curves for different thresholds coincide, the interval
distribution is a single shape rescaled by its mean. Collapse quality is
measured by two-sample Kolmogorov-Smirnov distances on the raw scaled
samples (never on bins); deviation from the memoryless baseline is the
KS distance to the unit-mean exponential. Both are plain statistics
computed from sorted samples; no p-value is computed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .intervals import IntervalSequence

__all__ = [
    "BinnedPDF",
    "pdf_estimate",
    "scale_pdf",
    "collapse_distance",
    "poisson_deviation",
]


@dataclass(frozen=True)
class BinnedPDF:
    bin_edges: np.ndarray
    densities: np.ndarray
    binning_mode: str  # "linear" or "logarithmic"

    def bin_centers(self) -> np.ndarray:
        e = self.bin_edges
        if self.binning_mode == "logarithmic":
            return np.sqrt(e[:-1] * e[1:])
        return 0.5 * (e[:-1] + e[1:])


def pdf_estimate(seq, mode: str = "logarithmic", n_bins: int = 30) -> BinnedPDF:
    """Histogram density of an interval sequence, integral normalized to 1.

    Logarithmic mode uses log-spaced edges from min to max interval.
    """
    x = np.asarray(seq.intervals if isinstance(seq, IntervalSequence) else seq, dtype=float)
    if x.size == 0:
        raise ValueError("cannot estimate a PDF from an empty sequence")
    if mode not in ("linear", "logarithmic"):
        raise ValueError(f"unknown binning mode {mode!r}")
    if n_bins < 2:
        raise ValueError("need at least 2 bins")
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        if mode == "logarithmic":
            warnings.warn("all intervals identical; falling back to a single linear bin")
            mode = "linear"
        bin_edges = np.array([lo - 0.5, lo + 0.5])
    elif mode == "logarithmic":
        bin_edges = np.geomspace(lo, hi, n_bins + 1)
    else:
        bin_edges = np.linspace(lo, hi, n_bins + 1)
    counts, bin_edges = np.histogram(x, bins=bin_edges)
    widths = np.diff(bin_edges)
    densities = counts / (x.size * widths)
    return BinnedPDF(bin_edges=bin_edges, densities=densities, binning_mode=mode)


def scale_pdf(pdf: BinnedPDF, mean_interval: float) -> tuple[np.ndarray, np.ndarray]:
    """Rescale a density to collapse coordinates: the arrays (tau/<tau>, P*<tau>)."""
    if mean_interval <= 0:
        raise ValueError("mean_interval must be positive")
    return pdf.bin_centers() / mean_interval, pdf.densities * mean_interval


def continuity_corrected_sample(seq, rng) -> np.ndarray:
    """Scaled intervals with the integer lattice smoothed out.

    Subtracts U(0,1) jitter from each interval before scaling by the
    jittered mean. Integer intervals put large point masses on
    q-dependent lattices, which dominates any raw-sample KS comparison;
    the correction makes the samples continuous so KS measures the
    underlying shape.
    """
    x = seq.intervals - rng.random(len(seq))
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
    both = np.concatenate([a, b])
    diff = np.searchsorted(a, both, side="right") / na - np.searchsorted(b, both, side="right") / nb
    d = float(np.abs(diff).max())
    if max(na, nb) <= _KS_LATTICE_MAX_N:
        lcm = na // math.gcd(na, nb) * nb
        d = round(d * lcm) / lcm
    return d


def collapse_distance(sequences, jitter_seed: int | None = None) -> np.ndarray:
    """Pairwise two-sample KS distances between scaled interval sequences.

    Symmetric, zero diagonal. Each sample is sorted once. With jitter_seed
    set, samples are continuity corrected first (deterministic per seed);
    use this when comparing sequences whose means, and hence scaled integer
    lattices, differ.
    """
    if len(sequences) < 2:
        raise ValueError("need at least 2 sequences")
    if jitter_seed is None:
        scaled = [s.scaled() for s in sequences]
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


# Rational-function coefficients of expm1 on [-0.5, 0.5], highest power first.
_EXPM1_P = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2,
            9.9999999999999999991025e-1)
_EXPM1_Q = (3.0019850513866445504159e-6, 2.5244834034968410419224e-3,
            2.2726554820815502876593e-1, 2.0000000000000000009103e0)


def _exponential_cdf(x: np.ndarray) -> np.ndarray:
    """1 - exp(-x), elementwise for x >= 0, as cephes computes -expm1(-x).

    A port of Moshier's Cephes expm1 (unity.c) that equals
    -scipy.special.expm1(-x) to the last bit: above 0.5 through math.exp, the
    C library's exp (np.exp's SIMD code differs in the last bit on some
    hosts); up to 0.5 by cephes's rational function, where np.polyval takes
    polevl's Horner steps in the same order.
    """
    out = np.empty_like(x)
    big = x > 0.5
    out[big] = 1.0 - np.fromiter(map(math.exp, (-x[big]).tolist()), float)
    xs = -x[~big]
    xx = xs * xs
    r = xs * np.polyval(_EXPM1_P, xx)
    r = r / (np.polyval(_EXPM1_Q, xx) - r)
    out[~big] = -(r + r)
    return out


def poisson_deviation(seq: IntervalSequence) -> float:
    """KS distance of the scaled intervals from the unit-mean exponential."""
    x = np.sort(seq.scaled())
    n = x.size
    # F_n - F is largest at the last of a run of equal values and F - F_n at the
    # first, so the exponential CDF is needed once per distinct value; integer
    # intervals have tens to hundreds of them
    first = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    cdf = _exponential_cdf(x[first])
    d_plus = (np.r_[first[1:], n] / n - cdf).max()
    d_minus = (cdf - first / n).max()
    return float(max(d_plus, d_minus))
