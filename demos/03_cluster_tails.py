"""Clustering of return intervals beyond adjacent pairs.

Labels each interval above/below the median and measures the survival
function of run lengths. Correlated volatility produces runs far longer
than the geometric 2^(1-k) law that shuffled volatility obeys.
"""

import numpy as np

from volintervals import (
    VolatilitySeries,
    cluster_survival,
    correlated_gaussian,
    extract_intervals,
    median_split,
    run_sizes,
    shuffle_volatility,
)

vol = VolatilitySeries(np.abs(correlated_gaussian(2**20, 0.3, 1)))

q = 2.0
iv = extract_intervals(vol, q)
runs = run_sizes(median_split(iv))
surv = cluster_survival(runs)

shuf_runs = run_sizes(median_split(extract_intervals(shuffle_volatility(vol, seed=0), q)))
shuf_surv = cluster_survival(shuf_runs)

print(f"q={q:g}: {iv.size} intervals, median {np.median(iv):g}\n")
print("  k    P(size>=k)  shuffled    2^(1-k)")
for k in range(1, 11):
    obs = surv[k - 1, 1] if surv.shape[0] >= k else 0.0
    sh = shuf_surv[k - 1, 1] if shuf_surv.shape[0] >= k else 0.0
    print(f"  {k:>2d}   {obs:.5f}     {sh:.5f}     {2.0 ** (1 - k):.5f}")

print(f"\nlongest above-median run: {runs.max()} (shuffled: {shuf_runs.max()})")
print("The shuffled column tracks the geometric law; the real sequence keeps")
print("an order of magnitude more probability in long runs.")
