"""Scaling collapse of return-interval distributions.

Generates a long-range correlated volatility series, extracts return
intervals at several thresholds, and shows that the scaled PDFs
P_q(tau) * <tau> vs tau / <tau> approximately fall on one curve, while
each individual distribution is far from the memoryless exponential.
"""

import numpy as np

from volintervals import (
    GeneratorSpec,
    collapse_distance,
    extract_intervals,
    gen_longrange_correlated,
    pdf_estimate,
    poisson_deviation,
    scale_pdf,
)

vol = gen_longrange_correlated(
    GeneratorSpec(kind="longrange_correlated", length=2**20,
                  correlation_exponent=0.3, seed=1))

qs = [1.0, 1.5, 2.0]
seqs = [extract_intervals(vol, q) for q in qs]

print("threshold   events    <tau>    KS-to-exponential")
for s in seqs:
    print(f"  q={s.threshold_q:<4g} {len(s):>8d} {s.mean_interval:>8.2f}"
          f"    {poisson_deviation(s):.3f}")

print("\nscaled PDF sample points (x = tau/<tau>, y = P*<tau>):")
for s in seqs:
    scaled = scale_pdf(pdf_estimate(s, n_bins=16), s.mean_interval, q=s.threshold_q)
    picks = scaled.y > 0
    xs = "  ".join(f"({x:5.2f},{y:6.3f})" for x, y in
                   list(zip(scaled.x[picks], scaled.y[picks]))[:6])
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
