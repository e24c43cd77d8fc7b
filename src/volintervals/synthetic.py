"""Synthetic series with controlled correlation structure.

Two generators: i.i.d. Gaussian returns (no memory) and long-range
correlated Gaussian noise built by Fourier filtering, whose
autocorrelation decays as a power law t^(-gamma). Taking absolute values
of the correlated noise gives a volatility series with interval memory,
which is the test bed for every scaling/memory claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import ReturnSeries, VolatilitySeries

__all__ = [
    "GeneratorSpec",
    "gen_iid_gaussian",
    "correlated_gaussian",
    "impose_intraday_pattern",
]


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str  # only "iid_gaussian"; correlated noise is correlated_gaussian
    length: int
    seed: int = 0

    def __post_init__(self):
        if self.kind != "iid_gaussian":
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.length < 2:
            raise ValueError("length must be >= 2")


def gen_iid_gaussian(spec: GeneratorSpec) -> ReturnSeries:
    """i.i.d. standard normal returns, deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    return ReturnSeries(values=rng.standard_normal(spec.length))


def correlated_gaussian(length: int, gamma: float, seed: int) -> np.ndarray:
    """Zero-mean unit-variance Gaussian noise with autocorrelation ~ t^(-gamma).

    Fourier filtering: shape a white spectrum by |f|^(-(1-gamma)/2) and
    transform back. Lengths are padded internally to a power of two. The
    series has unit variance, matching the volatility normalization, so
    |x| is a long-range correlated volatility whose thresholds are in
    units of its standard deviation.
    """
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    n = 1 << (length - 1).bit_length()
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n)
    filt = np.zeros_like(freqs)
    filt[1:] = freqs[1:] ** (-(1.0 - gamma) / 2.0)
    x = np.fft.irfft(spec * filt, n)[:length]
    x -= x.mean()
    x /= x.std()
    return x


def impose_intraday_pattern(vol: VolatilitySeries, pattern) -> VolatilitySeries:
    """Multiply the series slot-wise by a repeating positive pattern.

    Exact inverse of intraday detrending with the same pattern (slots
    cycle through the pattern in order).
    """
    p = np.asarray(pattern, dtype=float)
    if np.any(p <= 0):
        raise ValueError("pattern values must be positive")
    slots = np.arange(len(vol)) % p.size
    return VolatilitySeries(values=vol.values * p[slots])
