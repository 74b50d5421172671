"""Reference routes the library replaced or never had, which the tests
compare it with:
- the kernel-space oracle for pairings <psi_J, T psi_I> on separated
  supports: the dense double quadrature over both wavelets' midpoint nodes
  (pair_quadrature) and the same double sum as one lattice correlation
  (pair_correlation), from a table of the operators' kernels, while the
  library evaluates every operator through its symbol, and the closed form
  of Haar pairings under the Hilbert transform (haar_pair_exact);
- the Cube front end the library dropped (cube lists from a grid and their
  int64 arrays, Cube tuples into a CubePairs) and the per-call pairing
  table a PairingEngine once built for itself, with pairing counts taken
  from Python sets of the key rows;
- one-cube forms of what the library batches (a cube's box and dilate, one
  wavelet's samples and coefficient, the per-pair classification and join,
  with the WindowTruncationError they raise);
- the per-entry loops over Cube lists that assembled, applied and measured
  shifts before shifts were held as int64 arrays, the applying and
  measuring ones now a shift's only mesh routes, and the Cube-list cube
  enumeration and decay audit that preceded the int64 pair arrays;
- the cascade iteration the exact scaling tables are checked against;
- the field route with a padded buffer and the full complex symbol
  (padded_periodic_apply, multiplier), which the lean field kernel
  replaced, with the transpose's own symbol m(-xi), which the library no
  longer evaluates (its pairing table negates T's rows);
- the sampled quadrature of the identity's pairings (sampled_identity),
  which the exact Kronecker delta of the orthonormal wavelets replaced;
- the per-report CSV writers the library's modules held before the
  command line became the one writer (goodness, audit and curve CSV).
Where the batching keeps the arithmetic the tests compare bit for bit."""

import io
import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft, rfftfreq

from dyadshift.dyadic import (Cube, CubePairs, DyadicGrid, Window,
                              is_bad_batch)
from dyadshift.harness import DecayAuditRow, class_bound, psi_refinement
from dyadshift.operators import (PairingEngine, PairingTable, pairing_keys,
                                 sample_wavelets, support_intervals)
from dyadshift.shifts import CLASSES, classify_batch, coefficient_scale
from dyadshift.wavelets import _two_scale


class WindowTruncationError(RuntimeError):
    """A required containing cube does not exist inside the window."""


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


def zero_grid(w: Window) -> DyadicGrid:
    return DyadicGrid(w, omega=np.zeros(w.n_shift_bits, dtype=int))


@dataclass
class Mesh1D:
    """Midpoint sample mesh x0 + (n + 1/2) h, n = 0..n_pts-1."""

    x0: float
    h: float
    n_pts: int

    @property
    def centers(self) -> np.ndarray:
        return self.x0 + (np.arange(self.n_pts) + 0.5) * self.h

    @classmethod
    def cover(cls, lo: float, hi: float, res: int) -> "Mesh1D":
        h = 0.5 ** res
        x0 = math.floor(lo / h) * h
        n = int(math.ceil((hi - x0) / h))
        return cls(x0=x0, h=h, n_pts=n)


# ---------------------------------------------------------------------------
# Cubes, Cube pairs and per-call pairing tables


def cubes_touching(grid, k: int, lo_units: int, hi_units: int):
    """The window Cubes of generation k whose shifted interval overlaps
    [lo_units, hi_units], in index order (a generator), which
    DyadicGrid.touching gives as ranges: a walk in Python ints, each cube
    kept by its corners."""
    w = grid.window
    side = w.len_units(k)
    shift = int(grid.shift_units(k)[0])
    # from a cube left of both lo_units and 0, while cubes start before
    # hi_units and inside the window
    l = (max(lo_units, 0) - shift) // side - 1
    while (lo := l * side + shift) < min(hi_units, w.extent_units):
        if lo >= 0 and lo + side <= w.extent_units and lo + side > lo_units:
            yield Cube(k, (l,))
        l += 1


def cubes_at_scale(grid, k: int):
    """Every window Cube of generation k, in index order."""
    return cubes_touching(grid, k, 0, grid.window.extent_units)


def cube_arrays(cubes) -> tuple[np.ndarray, np.ndarray]:
    """int64 arrays of the generations and indices of cubes (any iterable,
    read once)."""
    cubes = list(cubes)
    return (np.array([c.k for c in cubes], dtype=np.int64),
            np.array([c.l[0] for c in cubes], dtype=np.int64))


def cube_pairs(pairs) -> CubePairs:
    """The CubePairs of a sequence of (Cube, Cube) tuples; a CubePairs is
    returned as it is."""
    if isinstance(pairs, CubePairs):
        return pairs
    return CubePairs(*cube_arrays(I for I, _ in pairs),
                     *cube_arrays(J for _, J in pairs))


def cube_pair_keys(grid, pairs) -> np.ndarray:
    """pairing_keys of the pairs (a CubePairs or (Cube, Cube) tuples)."""
    return pairing_keys(grid, cube_pairs(pairs))


def lone_pairings(op, grid, system, pairs, q_loc: int = 10,
                  pad_factor: int = 8) -> np.ndarray:
    """<psi_J, T psi_I> of the pairs (a CubePairs or (Cube, Cube) tuples)
    from a table built over their own keys alone, as a PairingEngine did
    when it was given no table."""
    pairs = cube_pairs(pairs)
    table = PairingTable.build(op, system, grid.window,
                               cube_pair_keys(grid, pairs), q_loc, pad_factor)
    return PairingEngine(grid, table).pairings(pairs)


def pairing_counts(op, keys) -> dict:
    """The pairing counts a table over the key rows reports, with the
    rows: the pairs, the distinct rows, and the distinct (coarse k,
    transpose) of a singular operator, one field each."""
    rows = {tuple(row) for row in keys.tolist()}
    fields = {row[:2] for row in rows} if op.singular else set()
    return {"pairs": len(keys), "keys": len(rows), "fields": len(fields)}


# ---------------------------------------------------------------------------
# the padded field route


def multiplier(op, xi):
    """The full complex symbol m(xi) of op at the radian frequencies xi,
    from its stored form (see operators.KernelOp): 1 for the identity,
    -i sgn(xi) r(|xi|) for a singular operator."""
    if not op.singular:
        return np.ones_like(xi)
    m = -1j * np.sign(xi)
    if op.radial is not None:
        m = m * op.radial(np.abs(xi))
    return m


def padded_periodic_apply(op, mesh, transpose: bool = False,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """operators._periodic_apply as it was before rfft padded the samples
    itself, the odd symbol turned the spectrum in place and the pairing
    table negated the transposed rows: the samples in a zero buffer of the
    full mesh size, the rfft frequencies and the complex symbol
    multiplier(op, xi), or m(-xi) for the transpose T^t, with the same tail
    correction of the Hilbert symbol (singular, no radial factor),
    subtracted for T^t."""
    N, h = mesh.size, mesh.h
    buf = np.zeros(N)
    buf[mesh.n_left:mesh.n_left + mesh.vw.size] = mesh.vw
    X = rfft(buf)
    del buf
    xi = rfftfreq(N, d=h)
    xi *= 2.0 * math.pi
    if transpose:
        np.negative(xi, out=xi)
    X *= multiplier(op, xi)
    del xi
    out = irfft(X, n=N)
    del X
    out = out[:mesh.stop].copy()
    mesh_x = np.arange(out.size, dtype=float)
    mesh_x += 0.5
    mesh_x *= h
    mesh_x += mesh.x0
    if op.singular and op.radial is None:
        mu = [np.sum(mesh.vw * mesh.xw ** a) * h for a in range(4)]
        P = N * h
        c1 = math.pi / (3.0 * P * P)
        c3 = math.pi ** 3 / (45.0 * P ** 4)
        lin = mu[0] * mesh_x
        cub = lin - 3 * mu[1]
        lin -= mu[1]
        lin *= c1
        cub *= mesh_x
        cub += 3 * mu[2]
        cub *= mesh_x
        cub -= mu[3]
        cub *= c3
        lin += cub
        del cub
        if transpose:
            out -= lin
        else:
            out += lin
    return mesh_x, out


# ---------------------------------------------------------------------------
# the sampled identity route


def sampled_identity(system, window, keys, q_loc: int) -> np.ndarray:
    """<psi_J, psi_I> of each key row (see pairing_keys) by the sampled
    quadrature the identity's table used before it read the Kronecker
    delta: the coarser wavelet sampled at the finer wavelet's midpoint
    nodes, at spacing 2^-q_loc of the finer side, in coordinates relative
    to the coarser cube's corner."""
    unit = 2.0 ** (-window.unit_exp)
    out = np.empty(len(keys))
    nodes: dict = {}  # fine generation -> (nodes, values, spacing)
    for row, (kc, _, kf, delta) in enumerate(keys.tolist()):
        if kf not in nodes:
            t, vf, hf = system.scaled_nodes(q_loc, kf)
            nodes[kf] = (t * 2.0 ** (-kf), vf, hf)
        uf, vf, hf = nodes[kf]
        vc = 2.0 ** (kc / 2.0) * system.mother((uf + delta * unit)
                                               * 2.0 ** kc)
        out[row] = np.sum(vc * vf) * hf
    return out


# ---------------------------------------------------------------------------
# kernel-space pairings


def _hilbert_kernel(u):
    return 1.0 / (math.pi * u)


def _smoothed_kernel(u):
    return 1.0 / (math.pi * u * (u * u + 1.0))


# the kernel k(u), u != 0, of each operator make_operator builds from a
# symbol; the identity has none
KERNELS = {"hilbert": _hilbert_kernel, "smoothed_hilbert": _smoothed_kernel}


def wavelet_nodes(grid, system, cube: Cube,
                  q_loc: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Midpoint nodes over supp psi_I at spacing len(I) 2^-q_loc, with the
    wavelet values there.  Returns (x, values, node spacing)."""
    k = cube.k
    t, vals, h = system.scaled_nodes(q_loc, k)
    offset = cube.l[0] + grid.shift_units(k)[0] / grid.window.len_units(k)
    return (t + offset) * 2.0 ** (-k), vals, h


def _oracle_nodes(op, grid, system, fine: Cube, coarse: Cube, q_loc: int):
    """(kernel, nodes of fine, nodes of coarse) for the kernel-space
    oracles, each node set as wavelet_nodes gives it; raises ValueError
    for an operator without a kernel and for a singular operator on
    supports whose nodes do not separate."""
    xi, vi, hi = wavelet_nodes(grid, system, fine, q_loc)
    xj, vj, hj = wavelet_nodes(grid, system, coarse, q_loc)
    kernel = KERNELS.get(op.name)
    if kernel is None:
        raise ValueError(f"operator {op.name!r} has no kernel for quadrature")
    gap = max(xi[0] - xj[-1], xj[0] - xi[-1])
    if op.singular and gap <= 0.0:
        raise ValueError("double quadrature needs separated supports")
    return kernel, (xi, vi, hi), (xj, vj, hj)


def disjoint_pairs(grid, system) -> CubePairs:
    """Every pair (I, J) of window cubes whose supports are disjoint, the
    pairs the oracles accept, I-major: one support_intervals call and a
    broadcast mask."""
    w = grid.window
    k, l = cube_arrays([c for gen in range(w.k_min, w.k_max + 1)
                        for c in cubes_at_scale(grid, gen)])
    lo, hi = support_intervals(grid, system, k, l)
    a, b = np.nonzero(np.maximum(lo[:, None] - hi[None, :],
                                 lo[None, :] - hi[:, None]) > 0.0)
    return CubePairs(k[a], l[a], k[b], l[b])


def pair_quadrature(op, grid, system, fine: Cube, coarse: Cube,
                    q_loc: int) -> float:
    """Double-quadrature route for <psi_J, T psi_I> = Int psi_J(x) k(x-y)
    psi_I(y).  Requires separated supports (fine=I, coarse=J in either order
    of generations; arguments are positional: value integrates T psi(fine)
    against psi(coarse))."""
    kernel, (xi, vi, hi), (xj, vj, hj) = _oracle_nodes(
        op, grid, system, fine, coarse, q_loc)
    # row-chunked so the kernel matrix never exceeds ~32 MB
    chunk = max(1, (1 << 22) // max(xi.size, 1))
    acc = 0.0
    for a in range(0, xj.size, chunk):
        K = kernel(xj[a:a + chunk, None] - xi[None, :])
        acc += float(vj[a:a + chunk] @ K @ vi)
    return acc * hi * hj


def pair_correlation(op, grid, system, fine: Cube, coarse: Cube,
                     q_loc: int) -> float:
    """pair_quadrature's double sum as one lattice correlation, with its
    arguments and refusals.

    Both node sets are midpoint lattices whose steps are powers of two
    apart, so every difference x_J[a] - x_I[b] lies on D + n h, with
    h = min(h_I, h_J) and D = x_J[0] - x_I[-1].  The sum is then
    sum_n k(D + n h) C[n] h_I h_J, where C is the cross-correlation of the
    two value arrays, each zero-upsampled to step h; one real FFT at a
    power-of-two length computes C.  Each pair is evaluated on its own,
    with no use of translation invariance.
    """
    kernel, (xi, vi, hi), (xj, vj, hj) = _oracle_nodes(
        op, grid, system, fine, coarse, q_loc)
    h = min(hi, hj)
    ri, rj = round(hi / h), round(hj / h)
    span_i, span_j = (xi.size - 1) * ri + 1, (xj.size - 1) * rj + 1
    n = span_i + span_j - 1
    size = 1 << (n - 1).bit_length()
    uj = np.zeros(size)
    uj[:span_j:rj] = vj
    ui = np.zeros(size)
    ui[:span_i:ri] = vi[::-1]  # index (n_I - 1 - b) r_I holds v_I[b]
    corr = np.fft.irfft(np.fft.rfft(uj) * np.fft.rfft(ui), n=size)[:n]
    d = xj[0] - xi[-1] + np.arange(n) * h
    return float(np.sum(kernel(d) * corr)) * hi * hj


def _haar_box_pair(a, b, c, d):
    """Exact int_{[c,d]} int_{[a,b]} 1/(pi(x-y)) dy dx."""
    def L(u):
        return 0.0 if u == 0.0 else u * math.log(abs(u))
    return (L(d - a) - L(c - a) - L(d - b) + L(c - b)) / math.pi


def haar_pair_exact(I_lo, I_len, J_lo, J_len):
    """<psi_J, H psi_I> for unit-normalized Haar wavelets, closed form."""
    si, sj = 1.0 / math.sqrt(I_len), 1.0 / math.sqrt(J_len)
    tot = 0.0
    for a, b, wi in ((I_lo, I_lo + I_len / 2, si),
                     (I_lo + I_len / 2, I_lo + I_len, -si)):
        for c, d, wj in ((J_lo, J_lo + J_len / 2, sj),
                         (J_lo + J_len / 2, J_lo + J_len, -sj)):
            tot += wi * wj * _haar_box_pair(a, b, c, d)
    return tot


# ---------------------------------------------------------------------------
# one cube at a time


def cube_box(grid, cube: Cube) -> tuple[np.ndarray, np.ndarray]:
    """The shifted cube as (lo, hi) integer-unit corners, length-1 int64
    arrays."""
    side = grid.window.len_units(cube.k)
    lo = np.asarray(cube.l, dtype=np.int64) * side + grid.shift_units(cube.k)
    return lo, lo + side


def dilate_box(grid, cube: Cube, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The concentric m-fold dilate of the cube in integer units (m odd)."""
    lo, hi = cube_box(grid, cube)
    half_growth = (m - 1) * (hi[0] - lo[0]) // 2
    return lo - half_growth, hi + half_growth


def in_window(grid, cube: Cube) -> bool:
    lo, hi = cube_box(grid, cube)
    return bool(lo[0] >= 0 and hi[0] <= grid.window.extent_units)


def sample_wavelet(grid, system, cube: Cube, x: np.ndarray) -> np.ndarray:
    """psi_I at absolute points x (sample_wavelets of one cube)."""
    return sample_wavelets(grid, system, cube.k, np.array(cube.l),
                           np.asarray(x)[None, :])[0]


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


# ---------------------------------------------------------------------------
# classification, one pair at a time


def _box_dist(lo_a, hi_a, lo_b, hi_b) -> int:
    """Distance between two closed intervals, in integer units."""
    return int(max(lo_b[0] - hi_a[0], lo_a[0] - hi_b[0], 0))


def _ancestor(grid, cube, k):
    """Generation-k cube of the grid containing the given cube."""
    lo, _ = cube_box(grid, cube)
    side = grid.window.len_units(k)
    return Cube(k, (int(lo[0] - grid.shift_units(k)[0]) // side,))


def scalar_ancestor_join(grid, fine, coarse, m):
    """The join loop over per-cube geometry, the reference for the
    containing cube of classify_batch: (K, i, j), or
    WindowTruncationError.  Its candidate is the fine cube's ancestor;
    classify_batch takes the ancestor of the hull's left end, the same
    cube wherever it holds the hull."""
    if fine.k < coarse.k:
        raise ValueError("first cube must be the finer one")
    w = grid.window
    lo_a, hi_a = dilate_box(grid, fine, m)
    lo_b, hi_b = dilate_box(grid, coarse, m)
    lo = np.minimum(lo_a, lo_b)
    hi = np.maximum(hi_a, hi_b)
    start = coarse.k if m == 1 else coarse.k - 1
    for k in range(min(start, fine.k), w.k_min - 1, -1):
        cand = _ancestor(grid, fine, k)
        c_lo, c_hi = cube_box(grid, cand)
        if (c_lo <= lo).all() and (hi <= c_hi).all():
            if not in_window(grid, cand):
                raise WindowTruncationError(
                    f"containing cube for the pair leaves the window at "
                    f"generation {k}"
                )
            return cand, fine.k - k, coarse.k - k
    raise WindowTruncationError(
        "no generation in the window contains both dilates"
    )


def theta_threshold(gap: int, side_j: int, theta: float) -> float:
    """The float len(J) (len(I)/len(J))^theta for a cube I gap generations
    below a cube J of side side_j units, as the scalar predicates compare
    integer distances with it."""
    return (2.0 ** -gap) ** theta * side_j


def scalar_classify_kind(grid, I, J, theta, m):
    """The per-pair class predicates, the reference for the batched
    classifier."""
    if I.k < J.k:
        raise ValueError("classification expects len(I) <= len(J)")
    w = grid.window
    if I == J:
        return "equal"
    lo_i, hi_i = cube_box(grid, I)
    lo_j, hi_j = cube_box(grid, J)
    if (lo_j <= lo_i).all() and (hi_i <= hi_j).all():
        return "contained"
    dist = _box_dist(lo_i, hi_i, lo_j, hi_j)
    side_j = w.len_units(J.k)
    if dist <= theta_threshold(I.k - J.k, side_j, theta):
        return "near"
    dlo_i, dhi_i = dilate_box(grid, I, m)
    dlo_j, dhi_j = dilate_box(grid, J, m)
    dil_dist = _box_dist(dlo_i, dhi_i, dlo_j, dhi_j)
    side_i = w.len_units(I.k)
    long_dist = side_i + dist + side_j  # D(I,J) in units
    return "far" if 2 * dil_dist > long_dist else "between"


def scalar_classify_pair(grid, I, J, theta, m):
    """(kind, K, i, j) of one pair, len(I) <= len(J): the reference for
    classify_batch.  An equal pair joins with its right neighbour when that
    lies in the window and with its left one otherwise; raises
    WindowTruncationError where no window cube contains the join."""
    kind = scalar_classify_kind(grid, I, J, theta, m)
    if kind == "equal":
        right = Cube(J.k, (J.l[0] + 1,))
        adj = right if in_window(grid, right) else Cube(J.k, (J.l[0] - 1,))
        K, i, j = scalar_ancestor_join(grid, I, adj, m)
    else:
        K, i, j = scalar_ancestor_join(grid, I, J, m)
    return kind, K, i, j


# ---------------------------------------------------------------------------
# shifts as dicts of Cube entries: {K: [(I, J, a), ...]}


def blocks_of(S) -> dict:
    """A ShiftOperator's entries as {K: [(I, J, a), ...]}, in entry
    order."""
    blocks: dict = {}
    for kk, kl, il, jl, a in zip(S.K_k.tolist(), S.K_l.tolist(),
                                 S.I_l.tolist(), S.J_l.tolist(),
                                 S.a.tolist()):
        blocks.setdefault(Cube(kk, (kl,)), []).append(
            (Cube(kk + S.i, (il,)), Cube(kk + S.j, (jl,)), a))
    return blocks


def descendants_loop(grid, K: Cube, depth: int) -> list:
    """In-window cubes `depth` generations below K and contained in it,
    from the cubes touching K's box."""
    k_lo, k_hi = cube_box(grid, K)
    out = []
    for c in cubes_touching(grid, K.k + depth, int(k_lo[0]), int(k_hi[0])):
        lo, hi = cube_box(grid, c)
        if (k_lo <= lo).all() and (hi <= k_hi).all():
            out.append(c)
    return out


def calibration_blocks(grid, i: int, j: int, Ks, pattern: str = "full"):
    """calibration_shift's blocks, one K at a time."""
    cap = coefficient_scale(i, j)
    blocks = {}
    for K in Ks:
        eye = descendants_loop(grid, K, i)
        jay = eye if i == j else descendants_loop(grid, K, j)
        if pattern == "diagonal":
            blocks[K] = [(I, I, cap) for I in eye]
        else:
            blocks[K] = [(I, J, cap) for I in eye for J in jay]
    return blocks


def classified_pairs(pairs, classes) -> list:
    """(I, J, (kind index, K, i, j)) of the pairs classify_batch did not
    truncate, in input order."""
    kind, K_k, K_l, i, j, truncated = classes
    return [(I, J, (int(kind[n]), Cube(int(K_k[n]), (int(K_l[n]),)),
                    int(i[n]), int(j[n])))
            for n, (I, J) in enumerate(pairs) if not truncated[n]]


def calibrate_loop(classified, pairings, s, eps, bound_const) -> float:
    """calibrate_c_emp, one pair at a time."""
    worst = 0.0
    for (_, _, (_, _, i, j)), v in zip(classified, pairings):
        decay = 2.0 ** (-max(i, j) * (s - 2.0 * eps))
        cap = coefficient_scale(i, j)
        worst = max(worst, abs(float(v)) / (bound_const * decay * cap))
    return max(1.0, worst)


def assemble_loop(grid, system, i, j, classified, pairings, s, eps,
                  bound_const, c_emp, class_codes, good_mask=None):
    """assemble_shift, one pair at a time: (blocks, good,
    excluded_badness).  classified and pairings hold the untruncated
    pairs only, and good_mask, when given, one flag per pair of them."""
    blocks: dict = {}
    excluded = 0
    decay = 2.0 ** (-max(i, j) * (s - 2.0 * eps))
    for idx, (I, J, (kind, K, ii, jj)) in enumerate(classified):
        if kind not in class_codes or (ii, jj) != (i, j):
            continue
        if good_mask is not None and not good_mask[idx]:
            excluded += 1
            continue
        a = float(pairings[idx] / (c_emp * bound_const * decay))
        blocks.setdefault(K, []).append((I, J, a))
    good = True
    for K, entries in blocks.items():
        k_lo, k_hi = cube_box(grid, K)
        for I, J, a in entries:
            if a == 0.0:
                continue
            for c in (I, J):
                d_lo, d_hi = dilate_box(grid, c, system.m)
                if not ((k_lo <= d_lo).all() and (d_hi <= k_hi).all()):
                    good = False
    return blocks, good, excluded


def apply_averaging(grid, system, entries, f, mesh) -> np.ndarray:
    """A_K f = sum a <f, psi_I> psi_J on the mesh, entry by entry."""
    x = mesh.centers
    out = np.zeros_like(f, dtype=float)
    for I, J, a in entries:
        if a == 0.0:
            continue
        ci = float(np.sum(sample_wavelet(grid, system, I, x) * f) * mesh.h)
        out += a * ci * sample_wavelet(grid, system, J, x)
    return out


def shift_norm_loop(grid, system, blocks, mesh, tol: float = 1e-4,
                    max_iter: int = 500, seed: int = 0) -> float:
    """A shift's L2 norm on the mesh, by power iteration over entry rows."""
    entries = [e for K in sorted(blocks, key=lambda c: (c.k, c.l))
               for e in blocks[K]]
    if not entries:
        return 0.0
    x = mesh.centers
    U = np.stack([sample_wavelet(grid, system, I, x) for I, _, _ in entries])
    V = np.stack([sample_wavelet(grid, system, J, x) for _, J, _ in entries])
    a = np.array([e[2] for e in entries])

    def apply(fv):
        return V.T @ (a * (U @ fv * mesh.h))

    def apply_t(fv):
        return U.T @ (a * (V @ fv * mesh.h))

    rng = np.random.default_rng(seed)
    fv = rng.standard_normal(mesh.n_pts)
    fv /= np.linalg.norm(fv)
    prev = 0.0
    for _ in range(max_iter):
        gv = apply_t(apply(fv))
        nrm = float(np.linalg.norm(gv))
        if nrm == 0.0:
            return 0.0
        est = math.sqrt(nrm)
        fv = gv / nrm
        if prev > 0.0 and abs(est - prev) <= tol * prev:
            return est
        prev = est
    raise RuntimeError("power iteration did not converge")


# ---------------------------------------------------------------------------
# cube lists and the decay audit over them


def localized_cube_list(grid, system, span) -> list:
    """Window cubes whose m-dilate overlaps the span, all generations, as
    a Cube list (what localized_cubes returns as arrays)."""
    w = grid.window
    unit = 2.0 ** w.unit_exp
    lo_u = math.floor(span[0] * unit)
    hi_u = math.ceil(span[1] * unit)
    half = (system.m - 1) // 2
    out = []
    for k in range(w.k_min, w.k_max + 1):
        grow = half * w.len_units(k)
        out.extend(cubes_touching(grid, k, lo_u - grow, hi_u + grow))
    return out


def decay_audit_loop(op, system, grid, s, eps, theta, i_max, j_max,
                     q_loc=10, r=None, span=None):
    """decay_audit over a Cube list, with a list of selected Cube pairs
    and a dict of cells, without the AUDIT_MAX_PAIRS check."""
    w = grid.window
    if span is None:
        cubes = [c for k in range(w.k_min, w.k_max + 1)
                 for c in cubes_at_scale(grid, k)]
    else:
        cubes = localized_cube_list(grid, system, span)
    czs = op.czs_seminorm(s)
    op_norm = 1.0
    info = {"window_truncated": 0, "badness_excluded": 0, "pairs_seen": 0}
    cube_k, cube_l = cube_arrays(cubes)
    selected = []   # ((I, J), (kind, i, j))
    for k in np.unique(cube_k):
        fine = np.flatnonzero(cube_k == k)
        coarse = np.flatnonzero(cube_k <= k)
        I = np.repeat(fine, coarse.size)
        J = np.tile(coarse, fine.size)
        kind, _, _, i, j, truncated = classify_batch(
            grid, cube_k[I], cube_l[I], cube_k[J], cube_l[J], theta, system.m)
        info["pairs_seen"] += I.size
        info["window_truncated"] += int(truncated.sum())
        keep = ~truncated & (i <= i_max) & (j <= j_max)
        if r is not None:
            good = np.repeat(~is_bad_batch(grid, cube_k[fine], cube_l[fine],
                                           r, theta), coarse.size)
            info["badness_excluded"] += int((keep & ~good).sum())
            keep &= good
        for a, b, c, ii, jj in zip(*(x[keep].tolist()
                                     for x in (I, J, kind, i, j))):
            selected.append(((cubes[a], cubes[b]), (CLASSES[c], ii, jj)))
    pairs = [pair for pair, _ in selected]
    values = lone_pairings(op, grid, system, pairs, q_loc)
    info["pairings"] = pairing_counts(op, cube_pair_keys(grid, pairs))
    cells: dict = {}
    for (_, key), v in zip(selected, values):
        cur = cells.setdefault(key, [0, 0.0])
        cur[0] += 1
        cur[1] = max(cur[1], abs(float(v)))
    rows = []
    for (kind, i, j), (count, mx) in sorted(cells.items()):
        bound = class_bound(kind, i, j, s, eps, theta, czs, op_norm)
        psi = {}
        if kind in ("between", "contained") and i > j:
            t = 2.0 ** (-(i - j))
            pb = (czs + op_norm) * 2.0 ** (-(i - j) / 2.0) \
                * psi_refinement(t, s)
            psi = {"psi_bound": pb, "psi_ratio": mx / pb}
        rows.append(DecayAuditRow(kind=kind, i=i, j=j, pair_count=count,
                                  max_pairing=mx, bound=bound,
                                  ratio=mx / bound, **psi))
    return rows, info


# ---------------------------------------------------------------------------
# per-report CSV writers


def goodness_csv(report, samples: int, r: int, theta: float) -> str:
    """grid-stats' goodness.csv of a GoodnessReport: one header line and
    one row; the d column is the dimension, 1."""
    buf = io.StringIO()
    buf.write("samples,pi_bad_hat,stderr,bound,r,theta,d\n")
    buf.write(f"{samples},{report.pi_bad_hat:.10g},{report.stderr:.10g},"
              f"{report.bound:.10g},{r},{theta:.10g},1\n")
    return buf.getvalue()


def audit_rows_csv(rows) -> str:
    """decay-audit's audit.csv of DecayAuditRows."""
    lines = ["class,i,j,pair_count,max_pairing,bound,ratio,psi_bound,psi_ratio"]
    for r in rows:
        pb = "" if r.psi_bound is None else f"{r.psi_bound:.10g}"
        pr = "" if r.psi_ratio is None else f"{r.psi_ratio:.10g}"
        lines.append(f"{r.kind},{r.i},{r.j},{r.pair_count},"
                     f"{r.max_pairing:.10g},{r.bound:.10g},{r.ratio:.10g},"
                     f"{pb},{pr}")
    return "\n".join(lines) + "\n"


def curve_csv(curve) -> str:
    """convergence's curve.csv of a ConvergenceCurve."""
    lines = ["N,e_N,stderr"]
    for N, e, se in curve.points:
        lines.append(f"{N},{e:.10g},{se:.10g}")
    return "\n".join(lines) + "\n"
