"""Scaling collapse of return-interval distributions.

Generates a long-range correlated volatility series, extracts return
intervals at several thresholds, and shows that the scaled PDFs
P_q(tau) * <tau> vs tau / <tau> approximately fall on one curve, while
each individual distribution is far from the memoryless exponential.
"""

import numpy as np

from volintervals import (
    VolatilitySeries,
    collapse_distance,
    correlated_gaussian,
    extract_intervals,
    pdf_estimate,
    poisson_deviation,
    scale_pdf,
)

vol = VolatilitySeries(np.abs(correlated_gaussian(2**20, 0.3, 1)))

qs = [1.0, 1.5, 2.0]
seqs = [extract_intervals(vol, q) for q in qs]

print("threshold   events    <tau>    KS-to-exponential")
for s in seqs:
    print(f"  q={s.threshold_q:<4g} {len(s):>8d} {s.mean_interval:>8.2f}"
          f"    {poisson_deviation(s):.3f}")

print("\nscaled PDF sample points (x = tau/<tau>, y = P*<tau>):")
for s in seqs:
    x, y = scale_pdf(pdf_estimate(s, n_bins=16), s.mean_interval)
    picks = y > 0
    xs = "  ".join(f"({a:5.2f},{b:6.3f})" for a, b in list(zip(x[picks], y[picks]))[:6])
    print(f"  q={s.threshold_q:<4g} {xs}")

d = collapse_distance(seqs, jitter_seed=0)
print("\npairwise collapse distance (continuity-corrected KS):")
for i, qi in enumerate(qs):
    for j in range(i + 1, len(qs)):
        print(f"  q={qi:g} vs q={qs[j]:g}: {d[i, j]:.3f}")
print("\nThe scaled curves approximately coincide (the residual distance is")
print("concentrated at small tau/<tau>, where integer intervals discretize")
print("the distributions differently per q), while every curve stays far")
print("from the memoryless exponential baseline.")
