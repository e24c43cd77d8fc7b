import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats

import volintervals
from volintervals import (
    IntervalSequence,
    collapse_distance,
    pdf_estimate,
    poisson_deviation,
    scale_pdf,
)
from volintervals.distributions import _expm1, continuity_corrected_sample


def make_seq(intervals, q=1.0):
    return IntervalSequence(threshold_q=q, intervals=np.asarray(intervals))


class TestPdfEstimate:
    def test_counting(self):
        # edges 1, 1.5, .., 4: the last bin holds its right edge
        pdf = pdf_estimate(make_seq([1, 1, 2, 4]), mode="linear", n_bins=6)
        assert np.array_equal(pdf.bin_edges, [1, 1.5, 2, 2.5, 3, 3.5, 4])
        assert np.allclose(pdf.densities, [1, 0, 0.5, 0, 0, 0.5])
        assert pdf.counts.tolist() == [2, 0, 1, 0, 0, 1]

    @pytest.mark.parametrize("mode", ["linear", "logarithmic"])
    def test_unit_integral(self, mode):
        rng = np.random.default_rng(0)
        seq = make_seq(rng.geometric(0.2, size=5000))
        pdf = pdf_estimate(seq, mode=mode, n_bins=12)
        assert np.sum(pdf.densities * np.diff(pdf.bin_edges)) == pytest.approx(1.0, abs=1e-9)

    def test_identical_intervals_log_mode_falls_back(self):
        with pytest.warns(UserWarning):
            pdf = pdf_estimate(make_seq([3, 3, 3]), mode="logarithmic")
        assert pdf.densities.size == 1
        assert np.sum(pdf.densities * np.diff(pdf.bin_edges)) == pytest.approx(1.0)

    def test_log_binned_geometric_matches_analytic_pmf(self):
        p = 0.0455
        rng = np.random.default_rng(10)
        seq = make_seq(rng.geometric(p, size=10**5))
        pdf = pdf_estimate(seq, mode="logarithmic", n_bins=25)
        edges = pdf.bin_edges
        for i in range(pdf.densities.size):
            if pdf.counts[i] < 100:
                continue
            # analytic probability mass of integers inside the bin
            lo = int(np.ceil(edges[i]))
            hi = int(np.floor(np.nextafter(edges[i + 1], 0)))
            if i == pdf.densities.size - 1:
                hi = int(np.floor(edges[i + 1]))
            ks = np.arange(lo, hi + 1)
            mass = (p * (1 - p) ** (ks - 1)).sum()
            est = pdf.densities[i] * (edges[i + 1] - edges[i])
            assert est == pytest.approx(mass, rel=0.05)


class TestScalePdf:
    def test_direct_application(self):
        pdf = pdf_estimate(make_seq([1, 1, 2, 4]), mode="linear", n_bins=3)
        scaled = scale_pdf(pdf, 2.0)
        # density 0.25 over [2, 3) maps to (2.5 / 2, 0.25 * 2)
        assert np.allclose(pdf.densities, [0.5, 0.25, 0.25])
        assert np.allclose(scaled.x, [0.75, 1.25, 1.75])
        assert np.allclose(scaled.y, [1.0, 0.5, 0.5])

    def test_unit_mean_is_identity(self):
        pdf = pdf_estimate(make_seq([1, 2, 3, 4]), mode="linear", n_bins=3)
        scaled = scale_pdf(pdf, 1.0)
        assert np.allclose(scaled.x, pdf.bin_centers())
        assert np.allclose(scaled.y, pdf.densities)

    def test_unit_integral_in_scaled_coordinates(self):
        rng = np.random.default_rng(2)
        seq = make_seq(rng.geometric(0.1, size=20000))
        pdf = pdf_estimate(seq, mode="logarithmic", n_bins=20)
        scaled = scale_pdf(pdf, seq.mean_interval)
        widths = np.diff(pdf.bin_edges) / seq.mean_interval
        assert np.sum(scaled.y * widths) == pytest.approx(1.0, abs=1e-9)

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
        s = make_seq([1, 2, 3, 5, 8])
        d = collapse_distance([s, s])
        assert d[0, 1] == 0.0
        assert d[1, 0] == 0.0
        assert d[0, 0] == 0.0

    def test_disjoint_supports_approach_one(self):
        a = np.linspace(0.1, 0.2, 100)
        b = np.linspace(10, 20, 100)
        assert collapse_distance([a, b])[0, 1] > 0.99

    def test_pseudometric_properties(self):
        rng = np.random.default_rng(4)
        seqs = [make_seq(rng.geometric(p, size=3000)) for p in (0.1, 0.2, 0.4)]
        d = collapse_distance(seqs)
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
        d = collapse_distance([a / a.mean(), b / b.mean()])
        assert d[0, 1] < 0.02

    def test_jitter_removes_lattice_mismatch(self):
        rng = np.random.default_rng(6)
        a = make_seq(rng.geometric(0.4, size=10**5))
        b = make_seq(rng.geometric(0.04, size=10**5))
        raw = collapse_distance([a, b])[0, 1]
        corrected = collapse_distance([a, b], jitter_seed=0)[0, 1]
        # same geometric-family shape; raw KS is dominated by the lattice
        assert raw > 0.15
        assert corrected < 0.05

    def test_requires_two_sequences(self):
        with pytest.raises(ValueError):
            collapse_distance([make_seq([1, 2])])

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="sample 1 is empty"):
            collapse_distance([np.array([1.0, 2.0]), np.array([])])

    def test_jitter_seed_rejects_prescaled_arrays(self):
        with pytest.raises(ValueError, match="jitter_seed needs IntervalSequence inputs"):
            collapse_distance([np.array([0.5, 1.5]), np.array([1.0, 1.0])], jitter_seed=0)


def ecdf_sup(a, b):
    """sup |F_a - F_b| in exact fractions, rounded once to float.

    For samples of at most 10,000 values collapse_distance rounds to the
    1/lcm lattice, which gives the same correctly rounded value.
    """
    a, b = sorted(a), sorted(b)
    def F(s, t):
        return Fraction(sum(v <= t for v in s), len(s))
    return float(max(abs(F(a, t) - F(b, t)) for t in a + b))


samples = st.lists(
    st.one_of(st.integers(1, 6).map(float), st.floats(0.01, 50.0)), min_size=1, max_size=25)


@given(st.lists(samples, min_size=2, max_size=4))
def test_collapse_matrix_is_the_ecdf_sup(xs):
    d = collapse_distance([np.array(x) for x in xs])
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)
    assert np.all((d >= 0) & (d <= 1))
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            assert d[i, j] == ecdf_sup(xs[i], xs[j])


# sizes on both sides of 10,000, where scipy switches from its exact to its
# asymptotic p-value; the statistic must match on both paths
SIZES = [(1, 1), (3, 7), (50, 17), (2999, 3000), (10_000, 40), (10_000, 10_000),
         (10_001, 40), (9_000, 11_000), (12_000, 10_500)]


def _geometric_and_exponential(n):
    rng = np.random.default_rng(n)
    return rng.geometric(0.1, size=n), rng.exponential(1.0, size=n)


# integer intervals and an exponential sample per size, and a sample with 6 values
# repeated 500 times: its mean is 4, so the intervals of 2 scale to exactly 0.5,
# where expm1 changes branch
_TIES = np.repeat([1, 2, 3, 5, 6, 7], 500)
POISSON_SAMPLES = {str(n): _geometric_and_exponential(n)
                   for n in (1, 2, 17, 3000, 10_000, 10_001, 12_000)}
POISSON_SAMPLES["ties"] = (_TIES, _TIES / 4.0)


class TestScipyOracle:
    """The numpy statistics equal scipy.stats' to the last bit."""

    @pytest.mark.parametrize("n1,n2", SIZES)
    def test_collapse_distance_on_integer_intervals(self, n1, n2):
        rng = np.random.default_rng(n1 + n2)
        a, b = make_seq(rng.geometric(0.2, size=n1)), make_seq(rng.geometric(0.05, size=n2))
        d = collapse_distance([a, b])
        assert d[0, 1] == stats.ks_2samp(a.scaled(), b.scaled()).statistic

    @pytest.mark.parametrize("n1,n2", SIZES)
    def test_collapse_distance_on_continuous_samples(self, n1, n2):
        rng = np.random.default_rng(n1 * n2)
        a, b = rng.exponential(1.0, size=n1), rng.exponential(1.3, size=n2)
        assert collapse_distance([a, b])[0, 1] == stats.ks_2samp(a, b).statistic

    def test_collapse_distance_on_small_tied_samples(self):
        # ties on two lattices put the ECDF difference off 1/lcm by rounding
        rng = np.random.default_rng(11)
        for _ in range(300):
            n1, n2 = rng.integers(1, 60, size=2)
            a, b = rng.integers(1, 6, n1) / 2.0, rng.integers(1, 6, n2) / 3.0
            assert collapse_distance([a, b])[0, 1] == stats.ks_2samp(a, b).statistic

    def test_jitter_seed_path(self):
        rng = np.random.default_rng(12)
        seqs = [make_seq(rng.geometric(p, size=n))
                for p, n in ((0.4, 4000), (0.04, 12_000), (0.1, 10_000))]
        d = collapse_distance(seqs, jitter_seed=3)
        jitter = np.random.default_rng(3)
        corrected = [continuity_corrected_sample(s, jitter) for s in seqs]
        for i in range(3):
            for j in range(i + 1, 3):
                assert d[i, j] == d[j, i] == stats.ks_2samp(corrected[i], corrected[j]).statistic

    @pytest.mark.parametrize("intervals, x", POISSON_SAMPLES.values(), ids=list(POISSON_SAMPLES))
    def test_poisson_deviation(self, intervals, x):
        seq = make_seq(intervals)
        assert poisson_deviation(seq) == stats.kstest(seq.scaled(), stats.expon.cdf).statistic
        assert poisson_deviation(x) == stats.kstest(x, stats.expon.cdf).statistic


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)  # -0.0 and nan payloads count


# expm1's two branches meet at +-0.5; then zeros, subnormals, underflow and overflow
EXPM1_EDGES = [
    *(v for b in (0.5, -0.5) for v in (np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf))),
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
    -745.2, -1e300, -np.inf, np.inf, np.nan, 709.78, 710.0, 1e300,
]


class TestExpm1:
    """The cephes port equals scipy.special.expm1 to the last bit."""

    def test_edge_values(self):
        x = np.array(EXPM1_EDGES)
        assert np.array_equal(_bits(_expm1(x)), _bits(special.expm1(x)))

    def test_sweep_of_the_exponential_cdf_domain(self):
        x = -50.0 * np.random.default_rng(5).random(10**6)  # (-50, 0]
        assert np.array_equal(_bits(_expm1(x)), _bits(special.expm1(x)))

    @given(st.floats())
    def test_any_float(self, v):
        x = np.array([v])
        assert _bits(_expm1(x)) == _bits(special.expm1(x))


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
    # synth, analyze with a split, and pdf, whose stdout holds poisson_deviation
    commands = [["synth", "--kind", "correlated", "--length", "4096", "--out", "s.csv"],
                ["analyze", "s.csv", "--q", "1", "--q", "2", "--ensemble", "5",
                 "--split-date", "1989-12-29", "--out", "o"],
                ["pdf", "s.csv", "--q", "1", "--q", "2", "--out", "p"]]
    trees = []
    for block in ("sys.modules['scipy'] = None; ", ""):  # with the block any scipy import fails
        code = f"import sys; {block}from volintervals.cli import main; sys.exit(main(sys.argv[1:]))"
        cwd = tmp_path / ("blocked" if block else "free")
        cwd.mkdir()
        stdout = [_python(code, *argv, cwd=cwd) for argv in commands]
        files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
        trees.append((stdout, files))
    assert trees[0] == trees[1]
    assert "poisson_deviation=" in trees[0][0][2] and "o/s/pre/summary.json" in trees[0][1]


class TestPoissonDeviation:
    def test_exponential_sample_is_close(self):
        rng = np.random.default_rng(7)
        assert poisson_deviation(rng.exponential(1.0, size=10**5)) < 0.01

    def test_constant_intervals(self):
        # point mass at x=1: sup |F_n - F| is reached just below the jump,
        # where the exponential CDF has already climbed to 1 - 1/e
        d = poisson_deviation(make_seq([4, 4, 4, 4]))
        assert d == pytest.approx(1 - np.exp(-1), abs=1e-9)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="sample is empty"):
            poisson_deviation([])

    def test_iid_intervals_near_exponential_at_high_threshold(self):
        rng = np.random.default_rng(8)
        g = np.abs(rng.standard_normal(10**6))
        from volintervals import VolatilitySeries, extract_intervals
        seq = extract_intervals(VolatilitySeries(g), 2.0)
        assert poisson_deviation(seq) < 0.05
