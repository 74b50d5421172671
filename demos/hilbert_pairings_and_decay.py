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
from dyadshift.harness import audit_rows_csv, decay_audit
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


window = Window(d=1, L=3, k_min=-3, k_max=4)
grid = DyadicGrid(window, omega=np.zeros(window.n_shift_bits, dtype=int))
system = build_system("haar", q=10, strict=False)
op = make_operator("hilbert")

# three pairs (I, J) as int64 arrays of generations and indices: a far
# pair, a cube inside a coarser one, and a cube with itself
pairs = CubePairs(I_k=np.array([0, 2, 1]), I_l=np.array([1, 4, 3]),
                  J_k=np.array([0, 0, 1]), J_l=np.array([5, 1, 3]))
# a pairing depends on its key row alone (coarse generation, transpose,
# fine generation, lattice offset), so one table evaluates each distinct
# row once and the engine reads the pairs' values from it
table = PairingTable.build(op, system, window,
                           pairing_keys(grid, pairs.I_k, pairs.I_l,
                                        pairs.J_k, pairs.J_l), q_loc=10)
values = PairingEngine(grid, table).pairings(pairs)
for (I, J), got in zip(pairs, values):
    ref = haar_pair_exact(I.l[0] * I.sidelength, I.sidelength,
                          J.l[0] * J.sidelength, J.sidelength)
    print(f"<psi_J, H psi_I>  I={I} J={J}: {got:+.8f} (exact {ref:+.8f})")

# audit: the observed maxima against the per-class bounds; ratios well
# below 1 mean the bound has slack, ratios growing with the level mean the
# filter cannot see the requested smoothness order
rows, info = decay_audit(op, system, grid, s=1, eps=0.5, theta=1.0,
                         i_max=4, j_max=4, q_loc=10)
print(f"\naudit over {info['pairs_seen']} pairs "
      f"({info['window_truncated']} truncated):")
print(audit_rows_csv(rows))
