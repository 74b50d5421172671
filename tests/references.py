"""Reference routes the library replaced: one-cube forms of what it
batches, which the tests compare bit for bit where the batching keeps the
arithmetic, and the cascade iteration the exact scaling tables are checked
against."""

import math

import numpy as np

from dyadshift.dyadic import cube_arrays
from dyadshift.operators import sample_wavelet, support_intervals
from dyadshift.wavelets import _two_scale


def cascade(h, q: int, tol: float = 1e-10, max_iter: int = 80):
    """Iterate the two-scale map from the box on [0, 1), on the mesh
    x_n = n 2^-q, n = 0..(L-1) 2^q, until the sup-norm change falls below
    tol.  Returns (table, iterations, final change); L = len(h)."""
    h = np.asarray(h, dtype=float)
    step = 1 << q
    v = np.zeros((h.size - 1) * step + 1)
    v[:step] = 1.0
    for it in range(1, max_iter + 1):
        new = _two_scale(h, v, step)
        res = float(np.max(np.abs(new - v)))
        v = new
        if res < tol:
            return v, it, res
    raise RuntimeError(f"cascade: change {res:.3g} after {max_iter} passes")


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
