"""
Random dyadic grids, bad cubes, and goodness probabilities
==========================================================

A window [0, 2^L) carries a family of dyadic grids indexed by a random
shift bit per generation.  A cube is "bad" when it sits too close to the
skeleton of a much coarser generation; the point of the construction is
that badness is rare (a union bound controls it) and independent of the
cube's position.  This script samples grids, compares the Monte Carlo bad
fraction against the exact enumeration, and prints the independence table.
"""

import numpy as np

from dyadshift.dyadic import (Window, independence_table, union_bound,
                              pi_bad_estimate, pi_bad_exact)

window = Window(L=3, k_min=-2, k_max=8)
r, theta = 5, 1.0

# the union bound certifies pi_bad <= (8 d / theta) 2^{-r theta}
print(f"union bound at r={r}, theta={theta}: {union_bound(r, theta)}")

# exact bad probability for a reference generation, by enumerating every
# relevant shift bit
exact = pi_bad_exact(window, 6, r=r, theta=theta)
print(f"exact pi_bad at generation 6: {exact}")

# the Monte Carlo estimate agrees within a few standard errors
report = pi_bad_estimate(window, r=r, theta=theta, samples=50_000, seed=0,
                         k_ref=6)
print(f"mc    pi_bad at generation 6: {report.pi_bad_hat:.5f} "
      f"+- {report.stderr:.5f}")

# badness reads coarse shift bits, position reads fine ones, so the two are
# independent; the contingency table of (position bin, badness) shows it
table = independence_table(window, r=r, theta=theta, samples=20_000, seed=1,
                           k_ref=5)
row = table.sum(axis=1, keepdims=True)
col = table.sum(axis=0, keepdims=True)
expected = row * col / table.sum()
chi2 = float(((table - expected) ** 2 / expected).sum())
print("position x badness counts:")
print(np.array2string(table))
print(f"chi-square statistic: {chi2:.2f} "
      f"(dof {(table.shape[0] - 1) * (table.shape[1] - 1)})")
