import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import volintervals
from volintervals import (
    GeneratorSpec,
    VolatilitySeries,
    collapse_distance,
    extract_intervals,
    gen_iid_gaussian,
    geometric_deviation,
    mean_interval,
    normalize_volatility,
    pdf_estimate,
)
from volintervals.distributions import _ks_distance, continuity_corrected_sample


def bin_edges(intervals, mode, n_bins):
    """The edges pdf_estimate bins `intervals` with, rebuilt from its rule."""
    lo, hi = float(np.min(intervals)), float(np.max(intervals))
    if lo == hi:
        return np.array([lo - 0.5, lo + 0.5])
    return (np.geomspace if mode == "logarithmic" else np.linspace)(lo, hi, n_bins + 1)


class TestPdfEstimate:
    def test_counting(self):
        # edges 1, 1.5, .., 4: the last bin holds its right edge
        x, y = pdf_estimate([1, 1, 2, 4], 1.0, mode="linear", n_bins=6)
        assert np.array_equal(x, [1.25, 1.75, 2.25, 2.75, 3.25, 3.75])
        assert np.allclose(y, [1, 0, 0.5, 0, 0, 0.5])

    @pytest.mark.parametrize("mode", ["linear", "logarithmic"])
    def test_unit_integral(self, mode):
        rng = np.random.default_rng(0)
        iv = rng.geometric(0.2, size=5000)
        _, y = pdf_estimate(iv, 1.0, mode=mode, n_bins=12)
        assert np.sum(y * np.diff(bin_edges(iv, mode, 12))) == pytest.approx(1.0, abs=1e-9)

    def test_identical_intervals_log_mode_falls_back(self):
        with pytest.warns(UserWarning):
            x, y = pdf_estimate([3, 3, 3], 1.0, mode="logarithmic")
        # one linear bin [2.5, 3.5]: an arithmetic centre, where a geometric one is below 3
        assert x.tolist() == [3.0] and y.tolist() == [1.0]

    def test_log_binned_geometric_matches_analytic_pmf(self):
        p = 0.0455
        rng = np.random.default_rng(10)
        iv = rng.geometric(p, size=10**5)
        x, y = pdf_estimate(iv, 1.0, mode="logarithmic", n_bins=25)
        edges = bin_edges(iv, "logarithmic", 25)
        assert np.array_equal(x, np.sqrt(edges[:-1] * edges[1:]))
        counts, _ = np.histogram(iv, edges)
        for i in range(y.size):
            if counts[i] < 100:
                continue
            # analytic probability mass of integers inside the bin
            lo = int(np.ceil(edges[i]))
            hi = int(np.floor(np.nextafter(edges[i + 1], 0)))
            if i == y.size - 1:
                hi = int(np.floor(edges[i + 1]))
            ks = np.arange(lo, hi + 1)
            mass = (p * (1 - p) ** (ks - 1)).sum()
            est = y[i] * (edges[i + 1] - edges[i])
            assert est == pytest.approx(mass, rel=0.05)

    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=300),
           st.floats(min_value=1e-3, max_value=1e6), st.sampled_from(["linear", "logarithmic"]),
           st.integers(2, 40))
    def test_increasing_centres_and_unit_integral(self, intervals, mean, mode, n_bins):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x, y = pdf_estimate(intervals, mean, mode=mode, n_bins=n_bins)
        equal = min(intervals) == max(intervals)
        assert len(caught) == (mode == "logarithmic" and equal)
        assert np.all(np.diff(x) > 0)
        edges = bin_edges(intervals, mode, n_bins)
        assert x.size == y.size == edges.size - 1
        assert np.sum(y * np.diff(edges) / mean) == pytest.approx(1.0, abs=1e-9)


class TestScalePdf:
    def test_direct_application(self):
        x, y = pdf_estimate([1, 1, 2, 4], 2.0, mode="linear", n_bins=3)
        # density 0.25 over [2, 3) maps to (2.5 / 2, 0.25 * 2)
        assert np.allclose(x, [0.75, 1.25, 1.75])
        assert np.allclose(y, [1.0, 0.5, 0.5])

    def test_unit_mean_is_identity(self):
        # a unit mean leaves the bin centres and densities as they are
        x, y = pdf_estimate([1, 2, 3, 4], 1.0, mode="linear", n_bins=3)
        assert x.tolist() == [1.5, 2.5, 3.5]
        assert np.allclose(y, [0.25, 0.25, 0.5])
        x3, y3 = pdf_estimate([1, 2, 3, 4], 3.0, mode="linear", n_bins=3)
        assert np.allclose(x3 * 3, x) and np.allclose(y3 / 3, y)

    def test_unit_integral_in_scaled_coordinates(self):
        rng = np.random.default_rng(2)
        iv = rng.geometric(0.1, size=20000)
        _, y = pdf_estimate(iv, mean_interval(iv), mode="logarithmic", n_bins=20)
        widths = np.diff(bin_edges(iv, "logarithmic", 20)) / mean_interval(iv)
        assert np.sum(y * widths) == pytest.approx(1.0, abs=1e-9)

    def test_exponential_sample_matches_exp_curve(self):
        rng = np.random.default_rng(3)
        sample = rng.exponential(5.0, size=10**5)
        counts, edges = np.histogram(sample, bins=np.linspace(0.0, 20, 41))
        dens = counts / (sample.size * np.diff(edges))
        centers = 0.5 * (edges[:-1] + edges[1:])
        x, y = centers / 5.0, dens * 5.0
        keep = counts > 500
        assert np.allclose(y[keep], np.exp(-x[keep]), rtol=0.1)


class TestCollapseDistance:
    def test_identical_sequences(self):
        s = np.array([1, 2, 3, 5, 8])
        d = collapse_distance([s, s])
        assert d[0, 1] == 0.0
        assert d[1, 0] == 0.0
        assert d[0, 0] == 0.0

    def test_disjoint_supports_approach_one(self):
        a = np.linspace(0.1, 0.2, 100)
        b = np.linspace(10, 20, 100)
        assert _ks_distance(a, b) > 0.99

    def test_pseudometric_properties(self):
        rng = np.random.default_rng(4)
        ivs = [rng.geometric(p, size=3000) for p in (0.1, 0.2, 0.4)]
        d = collapse_distance(ivs)
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-12

    def test_single_shape_rescaled_collapses(self):
        # same continuous shape, different means: distance vanishes with n
        rng = np.random.default_rng(5)
        a = rng.exponential(1.0, size=10**5)
        b = rng.exponential(7.0, size=10**5)
        assert _ks_distance(np.sort(a / a.mean()), np.sort(b / b.mean())) < 0.02

    def test_jitter_removes_lattice_mismatch(self):
        rng = np.random.default_rng(6)
        a = rng.geometric(0.4, size=10**5)
        b = rng.geometric(0.04, size=10**5)
        raw = collapse_distance([a, b])[0, 1]
        corrected = collapse_distance([a, b], jitter_seed=0)[0, 1]
        # same geometric-family shape; raw KS is dominated by the lattice
        assert raw > 0.15
        assert corrected < 0.05

    def test_requires_two_sequences(self):
        with pytest.raises(ValueError):
            collapse_distance([np.array([1, 2])])


def ecdf_sup(a, b):
    """sup |F_a - F_b| in exact fractions, rounded once to float.

    For samples of at most 10,000 values _ks_distance rounds to the
    1/lcm lattice, which gives the same correctly rounded value.
    """
    a, b = sorted(a), sorted(b)
    def F(s, t):
        return Fraction(sum(v <= t for v in s), len(s))
    return float(max(abs(F(a, t) - F(b, t)) for t in a + b))


samples = st.lists(
    st.one_of(st.integers(1, 6).map(float), st.floats(0.01, 50.0)), min_size=1, max_size=25)


# each entry of collapse_distance's matrix is _ks_distance of two sorted samples
@pytest.mark.long_search
@given(samples, samples)
def test_collapse_matrix_is_the_ecdf_sup(a, b):
    sa, sb = np.sort(a), np.sort(b)
    assert _ks_distance(sa, sb) == _ks_distance(sb, sa) == ecdf_sup(a, b)
    assert _ks_distance(sa, sa) == 0.0


# sizes on both sides of 10,000, where scipy switches from its exact to its
# asymptotic p-value; the statistic must match on both paths
SIZES = [(1, 1), (3, 7), (50, 17), (2999, 3000), (10_000, 40), (10_000, 10_000),
         (10_001, 40), (9_000, 11_000), (12_000, 10_500)]


# integer intervals per size, a tied sample whose mean is 4, and constant intervals
GEOMETRIC_SAMPLES = {str(n): np.random.default_rng(n).geometric(0.1, size=n)
                     for n in (1, 2, 17, 3000, 10_000, 10_001, 12_000)}
GEOMETRIC_SAMPLES["ties"] = np.repeat([1, 2, 3, 5, 6, 7], 500)
GEOMETRIC_SAMPLES["ones"] = np.ones(5, dtype=int)


def geometric_oracle(intervals):
    """sup |F_n - F| over every integer 1..max tau, F scipy's geometric CDF with p = 1/<tau>."""
    iv = np.asarray(intervals)
    k = np.arange(1, iv.max() + 1)
    emp = np.searchsorted(np.sort(iv), k, side="right") / iv.size
    with np.errstate(divide="ignore"):  # p = 1 takes log1p(-1) = -inf, and F = 1
        cdf = stats.geom.cdf(k, 1 / mean_interval(iv))
    return float(np.abs(emp - cdf).max())


class TestScipyOracle:
    """The numpy statistics equal scipy.stats' to the last bit."""

    @pytest.mark.parametrize("n1,n2", SIZES)
    def test_collapse_distance_on_integer_intervals(self, n1, n2):
        rng = np.random.default_rng(n1 + n2)
        a, b = rng.geometric(0.2, size=n1), rng.geometric(0.05, size=n2)
        d = collapse_distance([a, b])
        assert d[0, 1] == stats.ks_2samp(a / mean_interval(a), b / mean_interval(b)).statistic

    @pytest.mark.parametrize("n1,n2", SIZES)
    def test_collapse_distance_on_continuous_samples(self, n1, n2):
        rng = np.random.default_rng(n1 * n2)
        a, b = rng.exponential(1.0, size=n1), rng.exponential(1.3, size=n2)
        assert _ks_distance(np.sort(a), np.sort(b)) == stats.ks_2samp(a, b).statistic

    def test_collapse_distance_on_small_tied_samples(self):
        # ties on two lattices put the ECDF difference off 1/lcm by rounding
        rng = np.random.default_rng(11)
        for _ in range(300):
            n1, n2 = rng.integers(1, 60, size=2)
            a, b = rng.integers(1, 6, n1) / 2.0, rng.integers(1, 6, n2) / 3.0
            assert _ks_distance(np.sort(a), np.sort(b)) == stats.ks_2samp(a, b).statistic

    def test_jitter_seed_path(self):
        rng = np.random.default_rng(12)
        ivs = [rng.geometric(p, size=n)
                for p, n in ((0.4, 4000), (0.04, 12_000), (0.1, 10_000))]
        d = collapse_distance(ivs, jitter_seed=3)
        jitter = np.random.default_rng(3)
        corrected = [continuity_corrected_sample(s, jitter) for s in ivs]
        for i in range(3):
            for j in range(i + 1, 3):
                assert d[i, j] == d[j, i] == stats.ks_2samp(corrected[i], corrected[j]).statistic

    @pytest.mark.parametrize("intervals", GEOMETRIC_SAMPLES.values(), ids=list(GEOMETRIC_SAMPLES))
    def test_poisson_deviation(self, intervals):
        assert geometric_deviation(np.array(intervals)) == pytest.approx(
            geometric_oracle(intervals), abs=1e-12)

    @pytest.mark.long_search
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=200))
    def test_geometric_deviation_on_any_intervals(self, intervals):
        assert geometric_deviation(np.array(intervals)) == pytest.approx(
            geometric_oracle(intervals), abs=1e-12)


def _python(code, *argv, cwd=None):
    """stdout of `python -c code argv...` in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(volintervals.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True, timeout=120).stdout


def test_cli_import_leaves_scipy_unloaded():
    code = ("import sys, volintervals.cli; volintervals.cli.build_parser(); "
            "print('scipy' in sys.modules)")
    assert _python(code).strip() == "False"


def test_commands_run_without_scipy(tmp_path):
    # synth, analyze with a split, pdf, whose stdout holds geometric_deviation, the
    # other stage commands and split
    commands = [["synth", "--kind", "correlated", "--length", "4096", "--out", "s.csv"],
                ["analyze", "s.csv", "--q", "1", "--q", "2", "--ensemble", "5",
                 "--split-date", "1989-12-29", "--out", "o"],
                ["pdf", "s.csv", "--q", "1", "--q", "2", "--out", "p"],
                ["intervals", "s.csv", "--q", "1", "--out", "i"],
                ["conditional", "s.csv", "--q", "1", "--out", "c"],
                ["clusters", "s.csv", "--q", "1", "--out", "k"],
                ["split", "s.csv", "--split-date", "1989-12-29", "--out", "sp"]]
    trees = []
    for block in ("sys.modules['scipy'] = None; ", ""):  # with the block any scipy import fails
        code = f"import sys; {block}from volintervals.cli import main; sys.exit(main(sys.argv[1:]))"
        cwd = tmp_path / ("blocked" if block else "free")
        cwd.mkdir()
        stdout = [_python(code, *argv, cwd=cwd) for argv in commands]
        files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
        trees.append((stdout, files))
    assert trees[0] == trees[1]
    assert "geometric_deviation=" in trees[0][0][2] and "o/s/pre/summary.json" in trees[0][1]
    assert {"i", "c", "k", "sp"} <= {name.split("/")[0] for name in trees[0][1]}


class TestPoissonDeviation:
    """Distance from the memoryless (Poisson) case, whose intervals are geometric."""

    def test_geometric_sample_is_close(self):
        rng = np.random.default_rng(7)
        assert geometric_deviation(rng.geometric(0.001, size=10**5)) < 0.01

    def test_constant_intervals(self):
        # point mass at 4, p = 1/4: sup |F_n - F| is at k = 3, where F_n is still 0
        assert geometric_deviation(np.array([4, 4, 4, 4])) == pytest.approx(1 - 0.75**3, abs=1e-15)

    def test_iid_intervals_near_geometric_at_high_threshold(self):
        rng = np.random.default_rng(8)
        g = np.abs(rng.standard_normal(10**6))
        iv = extract_intervals(VolatilitySeries(g), 2.0)
        assert geometric_deviation(iv) < 0.01

    def test_separates_iid_from_correlated_volatility(self, correlated_vol):
        # memoryless exceedances are geometric at every threshold; long-range
        # correlation clusters them, far from the geometric law
        iid = normalize_volatility(gen_iid_gaussian(GeneratorSpec("iid_gaussian", 2**18, seed=1)))
        for q in (1.0, 1.5, 2.0):
            assert geometric_deviation(extract_intervals(iid, q)) < 0.01
            assert geometric_deviation(extract_intervals(correlated_vol, q)) > 0.10
