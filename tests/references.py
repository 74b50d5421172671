"""One-cube reference routes that the library batches: the tests compare
the batched functions with these, bit for bit where the batching keeps
the arithmetic."""

import math

import numpy as np

from dyadshift.dyadic import cube_arrays
from dyadshift.operators import sample_wavelet, support_intervals


def support_interval(grid, system, cube) -> tuple[float, float]:
    """(lo, hi) of the cube's m-dilate in absolute coordinates."""
    lo, hi = support_intervals(grid, system, *cube_arrays([cube]))
    return float(lo[0]), float(hi[0])


def localized_coefficient(grid, system, cube, func, q_loc: int) -> float:
    """<psi_cube, func> by one quadrature over the overlap of the cube's
    m-dilate with the support of func, on a mesh anchored on the absolute
    h-lattice (func must expose .support)."""
    a_w, b_w = support_interval(grid, system, cube)
    a_f, b_f = func.support
    a, b = max(a_w, a_f), min(b_w, b_f)
    if a >= b:
        return 0.0
    k_func = max(0, math.ceil(-math.log2(b_f - a_f)) + 1)
    res = q_loc + max(cube.k, k_func)
    h = 0.5 ** res
    x0 = math.floor(a / h) * h
    n = int(math.ceil((b - x0) / h))
    x = x0 + (np.arange(n) + 0.5) * h
    vals = sample_wavelet(grid, system, cube, x)
    return float(np.sum(vals * func(x)) * h)
