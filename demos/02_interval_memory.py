"""Memory between subsequent return intervals.

Conditions each interval on the size of its predecessor (octiles of the
value-sorted sequence). With long-range correlated volatility, small
intervals follow small ones and large follow large; shuffling the
intervals flattens the effect completely.
"""

import numpy as np

from volintervals import (
    VolatilitySeries,
    conditional_mean_curve,
    correlated_gaussian,
    extract_intervals,
    shuffle_intervals,
)

vol = VolatilitySeries(np.abs(correlated_gaussian(2**20, 0.3, 1)))
seq = extract_intervals(vol, 1.0)

centers, means, _ = conditional_mean_curve(seq, n_subsets=8)
_, shuffled_means, _ = conditional_mean_curve(shuffle_intervals(seq, seed=0), n_subsets=8)

print(f"q=1.0, {len(seq)} intervals, <tau> = {seq.mean_interval:.2f}\n")
print("octile   tau0/<tau>   <tau|tau0>/<tau>   shuffled")
for k in range(8):
    print(f"  {k + 1}      {centers[k]:>8.3f}     {means[k]:>8.3f}"
          f"          {shuffled_means[k]:>6.3f}")

print("\nThe conditional mean rises monotonically with the predecessor size;")
print("after shuffling every octile sits at 1 within sampling error, so the")
print("trend is memory in the ordering, not a property of the distribution.")
