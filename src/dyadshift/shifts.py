"""Five-way classification of cube pairs, normalized shift coefficients,
and assembled wavelet shifts S^{ij} with their averaging blocks A_K.

Classification predicates are evaluated in exact integer-unit arithmetic so
class membership never depends on floating-point rounding (the only float is
the threshold len(J) * (len(I)/len(J))^theta, which is exactly representable
whenever theta = 1).  Cubes are int64 arrays of generations and indices
throughout: classify_batch classifies arrays of pairs, assemble_shift takes
them with classify_batch's output, a ShiftOperator holds its entries as
arrays, and apply_shift and shift_norm_estimate sample each distinct cube
of a shift once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dyadic import DyadicGrid, ancestor_join_batch
from .operators import sample_wavelets

CLASSES = ("far", "between", "contained", "equal", "near")
FAR, BETWEEN, CONTAINED, EQUAL, NEAR = range(len(CLASSES))


def _audit_cells(kind: np.ndarray, i: np.ndarray, j: np.ndarray,
                 values: np.ndarray) -> list[tuple]:
    """(class name, i, j, pair count, max |pairing|) of each distinct
    (kind, i, j) of the pairs, sorted by (class name, i, j).  A max is
    exact in any order, so the pairs' order does not matter."""
    name_rank = np.array([sorted(CLASSES).index(c) for c in CLASSES])
    order = np.lexsort((j, i, name_rank[kind]))
    cells = np.stack([kind, i, j])[:, order]
    # a cell starts where (kind, i, j) changes; codes and levels are >= 0
    starts = np.flatnonzero(np.diff(cells, axis=1, prepend=-1).any(axis=0))
    counts = np.diff(starts, append=kind.size)
    maxima = np.maximum.reduceat(np.abs(values[order]), starts)
    return [(CLASSES[c], ii, jj, n, mx) for (c, ii, jj), n, mx in zip(
        cells[:, starts].T.tolist(), counts.tolist(), maxima.tolist())]


class NormalizationFinding(RuntimeError):
    """A normalized coefficient exceeded the admissible-shift bound."""


def _kind_codes(grid: DyadicGrid, fine_k, fine_l, coarse_k, coarse_l,
                theta: float, m: int) -> np.ndarray:
    """Class codes (indices into CLASSES) of the pairs (I, J) = (fine,
    coarse), len(I) <= len(J), of cubes given as int64 arrays:

    far:       dist(I,J) > len(J) (len(I)/len(J))^theta and dist(mI,mJ) > D/2
    between:   first condition holds, second fails
    contained: I strictly inside J
    equal:     I = J
    near:      disjoint but within the theta-threshold
    """
    fine_k = np.asarray(fine_k, dtype=np.int64)
    coarse_k = np.asarray(coarse_k, dtype=np.int64)
    lo_i, hi_i = grid.boxes(fine_k, fine_l)
    lo_j, hi_j = grid.boxes(coarse_k, coarse_l)
    side_i = hi_i - lo_i
    side_j = hi_j - lo_j
    dist = np.maximum(np.maximum(lo_j - hi_i, lo_i - hi_j), 0)
    # threshold len(J) (len(I)/len(J))^theta, with the factor computed in
    # Python floats per generation gap; an integer distance is at most a
    # float exactly when it is at most the float's floor
    gap_factor = np.array([(2.0 ** -n) ** theta
                           for n in range(grid.window.n_shift_bits + 1)])
    thresh = gap_factor[fine_k - coarse_k] * side_j
    near = dist <= np.floor(thresh).astype(np.int64)
    grow_i = (m - 1) * side_i // 2
    grow_j = (m - 1) * side_j // 2
    dil_dist = np.maximum(np.maximum((lo_j - grow_j) - (hi_i + grow_i),
                                     (lo_i - grow_i) - (hi_j + grow_j)), 0)
    # far: the dilates are more than half of D(I,J) = len I + dist + len J
    # apart
    far = 2 * dil_dist > side_i + dist + side_j
    equal = (fine_k == coarse_k) & (np.asarray(fine_l) == np.asarray(coarse_l))
    contained = (lo_j <= lo_i) & (hi_i <= hi_j)
    return np.select([equal, contained, near, far],
                     [EQUAL, CONTAINED, NEAR, FAR], BETWEEN)


def classify_batch(grid: DyadicGrid, fine_k, fine_l, coarse_k, coarse_l,
                   theta: float, m: int) -> tuple[np.ndarray, ...]:
    """Class and containing cube of the pairs (I, J) = (fine, coarse) of
    cubes given as int64 arrays, vectorized over the pairs.

    Returns (kind, K_k, K_l, i, j, truncated): kind indexes CLASSES (see
    _kind_codes) and the rest is ancestor_join_batch's output.  An equal
    pair joins with its right neighbour when that lies in the window and
    with its left neighbour otherwise.  ancestor_join_batch raises
    ValueError when some fine cube is the coarser of its pair.
    """
    kind = _kind_codes(grid, fine_k, fine_l, coarse_k, coarse_l, theta, m)
    coarse_l = np.asarray(coarse_l, dtype=np.int64)
    # the right neighbour spans [hi, hi + side]; its far corner is not
    # formed, since it can pass 2^63 units when the window reaches 2^62
    lo, hi = grid.boxes(coarse_k, coarse_l)
    right_in = (hi >= 0) & (hi <= grid.window.extent_units - (hi - lo))
    partner_l = np.where(kind == EQUAL, np.where(right_in, coarse_l + 1,
                                                 coarse_l - 1), coarse_l)
    return (kind,) + ancestor_join_batch(grid, fine_k, fine_l, coarse_k,
                                         partner_l, m)


def coefficient_scale(i: int, j: int) -> float:
    """sqrt(|I||J|)/|K| for the (i,j) block geometry."""
    return 2.0 ** (-(i + j) / 2.0)


def shift_coefficient(pairing, i: int, j: int, s: int, eps: float,
                      bound_const: float, c_emp: float, names=None):
    """a_IJK = pairing / (c_emp (|K|_CZs + |T|) 2^{-max(i,j)(s - 2 eps)}),
    elementwise over a pairing value or an array of them.

    Raises NormalizationFinding at the first entry whose |a| exceeds the
    admissible-shift bound sqrt(|I||J|)/|K|, named in the message by
    names(n) for entry n when names is given; that is a reportable
    finding, not a value to clip.
    """
    decay = 2.0 ** (-max(i, j) * (s - 2.0 * eps))
    a = np.asarray(pairing, dtype=float) / (c_emp * bound_const * decay)
    cap = coefficient_scale(i, j)
    over = np.flatnonzero(np.abs(a) > cap * (1.0 + 1e-12))
    if over.size:
        n = int(over[0])
        raise NormalizationFinding(
            f"normalization violated: |a|={abs(a.flat[n]):.6g} > {cap:.6g} "
            f"at (i,j)=({i},{j})" + (f" {names(n)}" if names else ""))
    return a


def _no_entries() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class ShiftOperator:
    """S^{ij} f = sum_K A_K f with A_K f = sum a_IJK <f, psi_I> psi_J.

    Entry n pairs I = (K_k[n] + i, I_l[n]) with J = (K_k[n] + j, J_l[n])
    in the block K = (K_k[n], K_l[n]), with coefficient a[n]: the
    generations and indices are int64 arrays and a a float array, one item
    per entry.  ShiftOperator(i, j) is the zero shift.
    """

    i: int
    j: int
    K_k: np.ndarray = field(default_factory=_no_entries)
    K_l: np.ndarray = field(default_factory=_no_entries)
    I_l: np.ndarray = field(default_factory=_no_entries)
    J_l: np.ndarray = field(default_factory=_no_entries)
    a: np.ndarray = field(default_factory=lambda: np.empty(0))
    good: bool = True
    class_filter: tuple = CLASSES
    excluded_badness: int = 0
    excluded_window: int = 0
    c_emp: float = 1.0

    @property
    def coefficient_count(self) -> int:
        return self.a.size

    def max_normalized_coefficient(self) -> float:
        return (float(np.max(np.abs(self.a), initial=0.0))
                / coefficient_scale(self.i, self.j))

    def transpose(self) -> "ShiftOperator":
        """The dual shift: type (j,i) with every block transposed."""
        return replace(self, i=self.j, j=self.i, I_l=self.J_l, J_l=self.I_l)

    def manifest(self, seed=None) -> dict:
        return {
            "seed": seed,
            "i": self.i,
            "j": self.j,
            "class_filter": list(self.class_filter),
            "coefficient_count": self.coefficient_count,
            "good": self.good,
            "max_normalized_coefficient": self.max_normalized_coefficient(),
            "c_emp": self.c_emp,
            "excluded_badness": self.excluded_badness,
            "excluded_window": self.excluded_window,
        }


def assemble_shift(grid: DyadicGrid, system, i: int, j: int, pairs, classes,
                   pairings, s: int, eps: float, bound_const: float,
                   c_emp: float, class_filter=CLASSES,
                   good_mask=None) -> ShiftOperator:
    """Build S^{ij} from the pairs (I, J), len(I) <= len(J), given as the
    int64 arrays (I_k, I_l, J_k, J_l), with their classify_batch output
    and their pairings <psi_J, T psi_I>.

    The pairs the window truncates are dropped and counted in
    excluded_window; pairs of type (i, j) in class_filter whose good_mask
    entry is False are dropped and counted in excluded_badness.  Raises
    NormalizationFinding (see shift_coefficient) naming the first pair,
    in input order, whose coefficient exceeds the cap.  The shift is good
    when the block of every nonzero entry contains the m-dilates of its I
    and J.
    """
    I_k, I_l, J_k, J_l = pairs
    kind, K_k, K_l, ii, jj, truncated = classes
    codes = [n for n, name in enumerate(CLASSES) if name in class_filter]
    pick = ~truncated & (ii == i) & (jj == j) & np.isin(kind, codes)
    excluded_badness = 0
    if good_mask is not None:
        good_mask = np.asarray(good_mask, dtype=bool)
        excluded_badness = int(np.count_nonzero(pick & ~good_mask))
        pick &= good_mask
    sel = np.flatnonzero(pick)
    a = shift_coefficient(
        np.asarray(pairings)[sel], i, j, s, eps, bound_const, c_emp,
        names=lambda n: (f"I=(k={I_k[sel[n]]}, l={I_l[sel[n]]}) "
                         f"J=(k={J_k[sel[n]]}, l={J_l[sel[n]]})"))
    k_lo, k_hi = grid.boxes(K_k[sel], K_l[sel])
    inside = np.ones(sel.size, dtype=bool)
    for k, l in ((I_k[sel], I_l[sel]), (J_k[sel], J_l[sel])):
        lo, hi = grid.boxes(k, l)
        grow = (system.m - 1) * (hi - lo) // 2
        inside &= (k_lo <= lo - grow) & (hi + grow <= k_hi)
    return ShiftOperator(
        i, j, K_k[sel], K_l[sel], I_l[sel], J_l[sel], a,
        good=bool(np.all(inside | (a == 0.0))),
        class_filter=tuple(class_filter),
        excluded_badness=excluded_badness,
        excluded_window=int(np.count_nonzero(truncated)), c_emp=c_emp)


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, p) over consecutive runs of counts[n] items: the run of each
    item and its position in the run."""
    n = np.repeat(np.arange(counts.size), counts)
    return n, np.arange(n.size) - (np.cumsum(counts) - counts)[n]


def descendants(grid: DyadicGrid, K_k, K_l, depth: int,
                ) -> tuple[np.ndarray, np.ndarray]:
    """In-window cubes `depth` generations below the cubes K, given as
    int64 arrays, and contained in them: (n, l) int64 arrays, where n
    indexes the containing K, in order of n and then of l.

    The grid is nested, so they are the 2^depth children of K from its
    corner on, clipped to the window.
    """
    K_k = np.asarray(K_k, dtype=np.int64)
    lo, _ = grid.boxes(K_k, K_l)
    # the corner and side of the cube of index 0 of each child generation
    shift, side = grid.boxes(K_k + depth, np.zeros_like(K_k))
    side -= shift
    first = (lo - shift) // side
    last = np.minimum(first + (1 << depth) - 1,
                      (grid.window.extent_units - shift - side) // side)
    first = np.maximum(first, -(shift // side))
    n, p = _ragged(np.maximum(last - first + 1, 0))
    return n, first[n] + p


def calibrate_c_emp(classes, pairings, s: int, eps: float,
                    bound_const: float) -> float:
    """Smallest normalization constant >= 1 for which every normalized
    coefficient of the pairs with classify_batch output classes and the
    given pairings obeys the admissible-shift cap; truncated pairs are
    left out.

    Frozen into the run manifest so downstream assemblies with the same
    (operator, system, s, eps) never raise a normalization finding on the
    calibration data.
    """
    kind, _, _, i, j, truncated = classes
    kept = ~truncated
    worst = 1.0
    # the largest |pairing| of each cell; its cap and decay are the Python
    # floats shift_coefficient divides by
    for _, ti, tj, _, top in _audit_cells(
            kind[kept], i[kept], j[kept],
            np.asarray(pairings, dtype=float)[kept]):
        decay = 2.0 ** (-max(ti, tj) * (s - 2.0 * eps))
        cap = coefficient_scale(ti, tj)
        worst = max(worst, top / (bound_const * decay * cap))
    return worst


def calibration_shift(grid: DyadicGrid, i: int, j: int, K_k, K_l,
                      pattern: str = "full") -> ShiftOperator:
    """A synthetic shift with every coefficient at the admissible cap, on
    the blocks K given as int64 arrays.

    pattern "full" pairs every depth-i cube with every depth-j cube inside
    each block; "diagonal" (requires i == j) keeps only I = J, the identity
    calibration pattern whose norm a dense decomposition can check.
    """
    if pattern == "diagonal" and i != j:
        raise ValueError("diagonal pattern needs i == j")
    K_k = np.asarray(K_k, dtype=np.int64)
    K_l = np.asarray(K_l, dtype=np.int64)
    n_i, I_l = descendants(grid, K_k, K_l, i)
    if pattern == "diagonal":
        n, J_l = n_i, I_l
    else:
        # each I once per J of its block, alongside the block's run of J
        n_j, J_l = descendants(grid, K_k, K_l, j)
        per_block = np.bincount(n_j, minlength=K_k.size)
        rows, p = _ragged(per_block[n_i])
        n = n_i[rows]
        I_l = I_l[rows]
        J_l = J_l[(np.cumsum(per_block) - per_block)[n] + p]
    a = np.full(n.size, coefficient_scale(i, j))
    return ShiftOperator(i, j, K_k[n], K_l[n], I_l, J_l, a,
                         class_filter=("calibration",))


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


def _shift_samples(grid: DyadicGrid, system, S: ShiftOperator,
                   x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(U, A, V) with S f = V^T A U f h for samples f at the points x, h
    apart: the rows of U and V are the wavelets of the distinct I and the
    distinct J cubes of S at x, each sampled once through one
    sample_wavelets call per generation, and A (distinct J by distinct I)
    holds the coefficients, summed over the blocks an (I, J) recurs in."""
    sides = []
    for k, l in ((S.K_k + S.i, S.I_l), (S.K_k + S.j, S.J_l)):
        cubes, inverse = np.unique(np.stack([k, l], axis=1), axis=0,
                                   return_inverse=True)
        rows = np.empty((len(cubes), x.size))
        for gen in np.unique(cubes[:, 0]).tolist():
            sel = cubes[:, 0] == gen
            rows[sel] = sample_wavelets(grid, system, gen, cubes[sel, 1],
                                        x[None, :])
        sides.append((rows, inverse.reshape(-1)))
    (U, to_i), (V, to_j) = sides
    A = np.zeros((len(V), len(U)))
    np.add.at(A, (to_j, to_i), S.a)
    return U, A, V


def apply_shift(grid: DyadicGrid, system, S: ShiftOperator, f: np.ndarray,
                mesh: Mesh1D) -> np.ndarray:
    """S f on the mesh, for samples f at its centers; on a shift of one
    block this is the averaging operator A_K."""
    U, A, V = _shift_samples(grid, system, S, mesh.centers)
    return V.T @ (A @ (U @ f * mesh.h))


class PowerIterationError(RuntimeError):
    pass


def shift_norm_estimate(grid: DyadicGrid, system, S: ShiftOperator,
                        mesh: Mesh1D, tol: float = 1e-4, max_iter: int = 500,
                        seed: int = 0) -> float:
    """L2 operator norm of S on the mesh by power iteration on S^t S.

    The wavelet samples are taken once (see _shift_samples), so each
    iteration is a few small matrix-vector products.
    """
    if not S.a.size:
        return 0.0
    U, A, V = _shift_samples(grid, system, S, mesh.centers)

    def apply(fv):
        return V.T @ (A @ (U @ fv * mesh.h))

    def apply_t(fv):
        return U.T @ (A.T @ (V @ fv * mesh.h))

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
    raise PowerIterationError("power iteration did not converge")
