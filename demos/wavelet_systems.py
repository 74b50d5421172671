"""
Compactly supported wavelet systems from conjugate mirror filters
=================================================================

A finite orthonormal filter determines its scaling function through the
two-scale relation: the values at the integers are an eigenvector of the
filter's two-scale matrix, and one two-scale pass per halving of the
spacing fills in the dyadic points, so the tables are exact up to rounding
(the printed residual).  Each system is summarized by a triple:
support diameter m, empirical differentiability order u, and the number of
extra vanishing moments v.  Smoother filters buy faster coefficient decay
against smooth kernels; Haar sits at the bottom with (1, 0, 0).
"""

import numpy as np

from dyadshift.wavelets import build_system, gram_defect

for name in ("haar", "db2", "db3", "db8"):
    system = build_system(name, q=10)
    moments = [system.moment(a) for a in range(system.v + 2)]
    print(f"{name:5s} m={system.m:3d} u={system.u} v={system.v} "
          f"two-scale residual {system.cascade_residual:.2e}")
    print(f"      moments 0..{system.v + 1}: "
          + " ".join(f"{mo:+.2e}" for mo in moments))

# orthonormality of the translates and dilates, measured as the worst
# deviation of the Gram matrix from the identity
system = build_system("db3", q=10)
entries = [(k, l, "psi") for k in range(3) for l in range(-2, 2 ** k + 2)]
defect = gram_defect(system, entries, res=12, span=(-8.0, 9.0))
print(f"db3 gram defect over {len(entries)} entries: {defect:.2e}")

# the wavelet table is an ordinary numpy array; a few samples
t = np.linspace(system.lo, system.lo + system.m, 7)
print("db3 psi samples:", np.round(system.mother(t, "psi"), 4))
