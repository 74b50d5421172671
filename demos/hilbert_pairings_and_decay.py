"""
Wavelet pairings of the Hilbert transform and their decay
=========================================================

The matrix of a singular integral operator in a wavelet basis is almost
diagonal: the pairing <psi_J, T psi_I> decays with the scale gap and the
distance between the cubes.  This script computes a few pairings against
the closed form for Haar, then runs a decay audit that compares every
class of cube pair with its theoretical bound.
"""

import math

import numpy as np

from dyadshift.dyadic import CubePairs, DyadicGrid, Window
from dyadshift.harness import decay_audit
from dyadshift.operators import (PairingEngine, PairingTable, make_operator,
                                 pairing_keys)
from dyadshift.wavelets import build_system


def haar_pair_exact(I_lo, I_len, J_lo, J_len):
    """Closed form <psi_J, H psi_I> for unit-normalized Haar wavelets."""
    def L(u):
        return 0.0 if u == 0.0 else u * math.log(abs(u))

    def box(a, b, c, d):
        return (L(d - a) - L(c - a) - L(d - b) + L(c - b)) / math.pi

    si, sj = 1.0 / math.sqrt(I_len), 1.0 / math.sqrt(J_len)
    tot = 0.0
    for (a, b, wi) in ((I_lo, I_lo + I_len / 2, si),
                       (I_lo + I_len / 2, I_lo + I_len, -si)):
        for (c, d, wj) in ((J_lo, J_lo + J_len / 2, sj),
                           (J_lo + J_len / 2, J_lo + J_len, -sj)):
            tot += wi * wj * box(a, b, c, d)
    return tot


window = Window(L=3, k_min=-3, k_max=4)
grid = DyadicGrid(window, omega=np.zeros(window.n_shift_bits, dtype=int))
system = build_system("haar", q=10)
op = make_operator("hilbert")

# three pairs (I, J) as int64 arrays of generations and indices: a far
# pair, a cube inside a coarser one, and a cube with itself
pairs = CubePairs(I_k=np.array([0, 2, 1]), I_l=np.array([1, 4, 3]),
                  J_k=np.array([0, 0, 1]), J_l=np.array([5, 1, 3]))
# a pairing depends on its key row alone (coarse generation, transpose,
# fine generation, lattice offset), so one table evaluates each distinct
# row once and the engine reads the pairs' values from it
table = PairingTable.build(op, system, window, pairing_keys(grid, pairs),
                           q_loc=10)
values = PairingEngine(grid, table).pairings(pairs)
for (I, J), got in zip(pairs, values):
    side_i, side_j = 2.0 ** -I.k, 2.0 ** -J.k
    ref = haar_pair_exact(I.l[0] * side_i, side_i, J.l[0] * side_j, side_j)
    print(f"<psi_J, H psi_I>  I={I} J={J}: {got:+.8f} (exact {ref:+.8f})")

# audit: the observed maxima against the per-class bounds; ratios well
# below 1 mean the bound has slack, ratios growing with the level mean the
# filter cannot see the requested smoothness order
rows, info = decay_audit(op, system, grid, s=1, eps=0.5, theta=1.0,
                         i_max=4, j_max=4, q_loc=10)
print(f"\naudit over {info['pairs_seen']} pairs "
      f"({info['window_truncated']} truncated):")
print("class      i  j  pairs  max|pairing|      bound  ratio  psi_ratio")
for r in rows:
    psi = "" if r.psi_ratio is None else f"  {r.psi_ratio:9.3f}"
    print(f"{r.kind:<9} {r.i:2d} {r.j:2d} {r.pair_count:6d}  "
          f"{r.max_pairing:12.3e}  {r.bound:9.3e}  {r.ratio:5.3f}{psi}")
