"""Memory between subsequent return intervals.

Conditions each interval on the size of its predecessor (octiles of the
value-sorted sequence). With long-range correlated volatility, small
intervals follow small ones and large follow large; shuffling the
intervals flattens the effect completely.
"""

import numpy as np

from volintervals import (
    VolatilitySeries,
    conditional_blocks,
    conditional_mean_curve,
    correlated_gaussian,
    extract_intervals,
    mean_interval,
    shuffle_intervals,
)

vol = VolatilitySeries(np.abs(correlated_gaussian(2**20, 0.3, 1)))
iv = extract_intervals(vol, 1.0)
mean = mean_interval(iv)

centers, means, _ = conditional_mean_curve(conditional_blocks(iv, 8), mean)
shuffled = conditional_blocks(shuffle_intervals(iv, seed=0), 8)
_, shuffled_means, _ = conditional_mean_curve(shuffled, mean)

print(f"q=1.0, {iv.size} intervals, <tau> = {mean:.2f}\n")
print("octile   tau0/<tau>   <tau|tau0>/<tau>   shuffled")
for k in range(8):
    print(f"  {k + 1}      {centers[k]:>8.3f}     {means[k]:>8.3f}"
          f"          {shuffled_means[k]:>6.3f}")

print("\nThe conditional mean rises monotonically with the predecessor size;")
print("after shuffling every octile sits at 1 within sampling error, so the")
print("trend is memory in the ordering, not a property of the distribution.")
