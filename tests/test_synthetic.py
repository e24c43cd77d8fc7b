import numpy as np
import pytest

from volintervals import (
    GeneratorSpec,
    VolatilitySeries,
    correlated_gaussian,
    gen_iid_gaussian,
    impose_intraday_pattern,
    intraday_detrend,
    build_intraday_pattern,
)


def autocorrelation(x, max_lag: int) -> np.ndarray:
    """Sample autocorrelation for lags 0..max_lag, FFT-based."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    n = x.size
    m = 1 << (2 * n - 1).bit_length()  # zero padding to a power of two >= 2n
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conj(f), m)[: max_lag + 1] / n
    return acov / acov[0]


def fit_correlation_exponent(x, lag_min: int = 10, lag_max: int = 1000) -> float:
    """Power-law decay exponent of the autocorrelation, by log-log regression."""
    acf = autocorrelation(x, lag_max)
    lags = np.arange(lag_min, lag_max + 1)
    vals = acf[lag_min : lag_max + 1]
    keep = vals > 0
    slope, _ = np.polyfit(np.log(lags[keep]), np.log(vals[keep]), 1)
    return float(-slope)


class TestIidGaussian:
    def test_moments(self):
        n = 10**6
        r = gen_iid_gaussian(GeneratorSpec(kind="iid_gaussian", length=n, seed=0))
        assert abs(r.values.mean()) < 4 / np.sqrt(n)
        assert r.values.std() == pytest.approx(1.0, rel=0.01)

    def test_deterministic(self):
        spec = GeneratorSpec(kind="iid_gaussian", length=1000, seed=5)
        assert np.array_equal(gen_iid_gaussian(spec).values, gen_iid_gaussian(spec).values)

    def test_abs_returns_uncorrelated(self):
        n = 10**6
        r = gen_iid_gaussian(GeneratorSpec(kind="iid_gaussian", length=n, seed=1))
        g = np.abs(r.values)
        acf1 = autocorrelation(g, 1)[1]
        assert abs(acf1) < 4 / np.sqrt(n)


class TestLongRangeCorrelated:
    def test_fitted_exponent(self):
        x = correlated_gaussian(2**20, 0.3, seed=2)
        assert fit_correlation_exponent(x, 10, 1000) == pytest.approx(0.3, abs=0.1)

    def test_deterministic(self):
        a = correlated_gaussian(4096, 0.4, seed=3)
        b = correlated_gaussian(4096, 0.4, seed=3)
        assert np.array_equal(a, b)

    def test_shuffle_destroys_correlation(self):
        n = 2**18
        x = correlated_gaussian(n, 0.3, seed=4)
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(np.abs(x))
        assert abs(autocorrelation(shuffled, 1)[1]) < 4 / np.sqrt(n)

    def test_unit_variance_signed_series(self):
        x = correlated_gaussian(2**16, 0.5, seed=5)
        assert x.std() == pytest.approx(1.0, abs=1e-12)
        assert x.mean() == pytest.approx(0.0, abs=1e-12)

    def test_non_power_of_two_length(self):
        x = correlated_gaussian(1000, 0.3, seed=6)
        assert x.size == 1000

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.5, 1.5])
    def test_gamma_out_of_range(self, gamma):
        with pytest.raises(ValueError):
            correlated_gaussian(1024, gamma, seed=0)


class TestImposePattern:
    def test_all_ones_is_identity(self):
        vol = VolatilitySeries(np.array([1.0, 2.0, 3.0, 4.0]))
        out = impose_intraday_pattern(vol, [1.0, 1.0])
        assert np.array_equal(out.values, vol.values)

    def test_impose_then_detrend_roundtrip(self):
        rng = np.random.default_rng(7)
        vol = VolatilitySeries(np.abs(rng.standard_normal(4 * 100)))
        pattern = np.array([2.0, 1.0, 1.0, 2.0])
        shaped = impose_intraday_pattern(vol, pattern)
        slots = np.arange(len(vol)) % 4
        pat = build_intraday_pattern(
            VolatilitySeries(np.tile(pattern, 100)), slots, np.arange(len(vol)) // 4)
        back = intraday_detrend(shaped, pat, slots)
        assert np.allclose(back.values, vol.values, rtol=1e-12)

    def test_u_shape_slot_means_proportional(self):
        rng = np.random.default_rng(8)
        vol = VolatilitySeries(np.abs(rng.standard_normal(4 * 20000)))
        pattern = np.array([2.0, 1.0, 1.0, 2.0])
        shaped = impose_intraday_pattern(vol, pattern)
        slots = np.arange(len(vol)) % 4
        means = np.array([shaped.values[slots == s].mean() for s in range(4)])
        ratio = means / means[1]
        assert np.allclose(ratio, pattern / pattern[1], rtol=0.05)

    def test_non_positive_pattern_raises(self):
        with pytest.raises(ValueError):
            impose_intraday_pattern(VolatilitySeries(np.array([1.0])), [1.0, 0.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(kind="bogus", length=100)
    with pytest.raises(ValueError):  # correlated noise comes from correlated_gaussian
        GeneratorSpec(kind="longrange_correlated", length=100)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="iid_gaussian", length=1)
