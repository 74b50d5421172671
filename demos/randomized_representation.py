"""
Randomized wavelet representation of the Hilbert transform
==========================================================

The pairing <g, H f> can be recovered from the double wavelet expansion
restricted to good cubes, provided each retained term is divided by the
goodness probability of its smaller cube.  Averaging over random grids
gives an unbiased estimate; truncating the expansion by the shift level
max(i, j) <= N gives a convergence curve whose slope reflects the wavelet
smoothness.
"""

from dyadshift.dyadic import Window
from dyadshift.harness import convergence_experiment, randomized_expansion
from dyadshift.operators import TestFunction, make_operator
from dyadshift.wavelets import build_system

op = make_operator("hilbert")

# --- randomized good-cube expansion ----------------------------------
# the window is deep so the expansion itself is nearly complete and the
# remaining error is the Monte Carlo spread of the goodness filter
window = Window(L=10, k_min=-10, k_max=5)
system = build_system("haar", q=11)
f = TestFunction(center=511.1, halfwidth=0.8)
g = TestFunction(center=511.9, halfwidth=0.7)
res = randomized_expansion(op, system, window, f, g, r=4, theta=1.0,
                           n_omega=8, seed=0, q_loc=9)
print(f"good-cube estimate {res['estimate']:+.5f} +- {res['stderr']:.5f} "
      f"(reference {res['truth']:+.5f}, {res['n_omega']} grids)")

# --- truncation convergence on a deep window --------------------------
# mean-zero bumps keep the mass classifiable inside a finite window
window = Window(L=10, k_min=-10, k_max=5)
f = TestFunction(center=511.9, halfwidth=0.8, tilt=1)
g = TestFunction(center=512.2, halfwidth=0.7, tilt=1)
curve = convergence_experiment(op, system, window, f, g, s=1, eps=0.5,
                               N_max=7, n_omega=4, seed=7, q_loc=8)
print(f"truncation slope {curve.slope:.2f} over N in {curve.fit_range}")
for N, e, se in curve.points:
    print(f"  N = {N}: e_N = {e:.3e} +- {se:.1e}")
