"""Clustering of return intervals beyond adjacent pairs.

Labels each interval above/below the median and measures the survival
function of run lengths. Correlated volatility produces runs far longer
than the geometric 2^(1-k) law that shuffled volatility obeys.
"""

import numpy as np

from volintervals import (
    GeneratorSpec,
    cluster_survival,
    clusters,
    extract_intervals,
    gen_longrange_correlated,
    median_split,
    shuffle_volatility,
)

vol = gen_longrange_correlated(
    GeneratorSpec(kind="longrange_correlated", length=2**20,
                  correlation_exponent=0.3, seed=1))

q = 2.0
seq = extract_intervals(vol, q)
runs = clusters(median_split(seq))
surv = cluster_survival(runs, "above")

shuf_seq = extract_intervals(shuffle_volatility(vol, seed=0), q)
shuf_runs = clusters(median_split(shuf_seq))
shuf_surv = cluster_survival(shuf_runs, "above")

print(f"q={q:g}: {len(seq)} intervals, median {np.median(seq.intervals):g}\n")
print("  k    P(size>=k)  shuffled    2^(1-k)")
for k in range(1, 11):
    obs = surv[k - 1, 1] if surv.shape[0] >= k else 0.0
    sh = shuf_surv[k - 1, 1] if shuf_surv.shape[0] >= k else 0.0
    print(f"  {k:>2d}   {obs:.5f}     {sh:.5f}     {2.0 ** (1 - k):.5f}")

print(f"\nlongest above-median run: {runs.above_sizes.max()} "
      f"(shuffled: {shuf_runs.above_sizes.max()})")
print("The shuffled column tracks the geometric law; the real sequence keeps")
print("an order of magnitude more probability in long runs.")
