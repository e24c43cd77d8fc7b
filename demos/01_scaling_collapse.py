"""Scaling collapse of return-interval distributions.

Generates a long-range correlated volatility series, extracts return
intervals at several thresholds, and shows that the scaled PDFs
P_q(tau) * <tau> vs tau / <tau> approximately fall on one curve, while
each individual distribution is far from the memoryless baseline: the
geometric law with the same mean, that of uncorrelated exceedances.
"""

import numpy as np

from volintervals import (
    VolatilitySeries,
    collapse_distance,
    correlated_gaussian,
    extract_intervals,
    geometric_deviation,
    mean_interval,
    pdf_estimate,
)

vol = VolatilitySeries(np.abs(correlated_gaussian(2**20, 0.3, 1)))

qs = [1.0, 1.5, 2.0]
ivs = [extract_intervals(vol, q) for q in qs]

print("threshold   events    <tau>    KS-to-geometric")
for q, iv in zip(qs, ivs):
    print(f"  q={q:<4g} {iv.size:>8d} {mean_interval(iv):>8.2f}"
          f"    {geometric_deviation(iv):.3f}")

print("\nscaled PDF sample points (x = tau/<tau>, y = P*<tau>):")
for q, iv in zip(qs, ivs):
    x, y = pdf_estimate(iv, mean_interval(iv), n_bins=16)
    picks = y > 0
    xs = "  ".join(f"({a:5.2f},{b:6.3f})" for a, b in list(zip(x[picks], y[picks]))[:6])
    print(f"  q={q:<4g} {xs}")

d = collapse_distance(ivs, jitter_seed=0)
print("\npairwise collapse distance (continuity-corrected KS):")
for i, qi in enumerate(qs):
    for j in range(i + 1, len(qs)):
        print(f"  q={qi:g} vs q={qs[j]:g}: {d[i, j]:.3f}")
print("\nThe scaled curves approximately coincide (the residual distance is")
print("concentrated at small tau/<tau>, where integer intervals discretize")
print("the distributions differently per q), while every curve stays far")
print("from the memoryless geometric baseline.")
