"""Five-way classification of cube pairs, normalized shift coefficients,
and assembled wavelet shifts S^{ij} with their averaging blocks A_K.

Classification predicates are evaluated in exact integer-unit arithmetic so
class membership never depends on floating-point rounding (the only float is
the factor (len(I)/len(J))^theta, which dyadic.theta_reach floors into an
integer reach).  Cubes are int64 arrays of generations and indices
throughout: classify_batch classifies arrays of pairs, assemble_shift takes
them with classify_batch's output, a ShiftOperator holds its entries as
arrays, and shift_norm reads a shift's norm from its coefficients alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dyadic import DyadicGrid, dilate, ragged, theta_reach

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


def _join(grid: DyadicGrid, lo: np.ndarray, hi: np.ndarray,
          start: np.ndarray) -> tuple[np.ndarray, ...]:
    """(K_k, K_l, truncated): the smallest grid cubes K, of generation at
    most start, holding the integer-unit intervals [lo, hi], and where no
    window generation holds one (K_k = k_min - 1) or K is no window cube
    (K_k its generation; its index is not in 0 <= l < count).  Each
    generation tests whether one cube holds both lo and hi - 1, with one
    DyadicGrid.locate call for both."""
    w = grid.window
    K_k = np.full(lo.size, w.k_min - 1, dtype=np.int64)
    K_l = np.zeros(lo.size, dtype=np.int64)
    outside = np.zeros(lo.size, dtype=bool)
    open_ = np.ones(lo.size, dtype=bool)
    top = int(start.max()) if lo.size else w.k_min - 1
    counts = grid.cube_counts(np.arange(w.k_min, top + 1)).tolist()
    ends = np.stack([lo, hi - 1])
    for k in range(top, w.k_min - 1, -1):
        cand, last = grid.locate(k, ends)
        hit = open_ & (start >= k) & (last == cand)
        K_k[hit] = k
        K_l[hit] = c = cand[hit]
        outside[hit] = (c < 0) | (c >= counts[k - w.k_min])
        open_ &= ~hit
        if not open_.any():
            break
    return K_k, K_l, open_ | outside


def classify_batch(grid: DyadicGrid, fine_k, fine_l, coarse_k, coarse_l,
                   theta: float, m: int) -> tuple[np.ndarray, ...]:
    """(kind, K_k, K_l, i, j, truncated) of the pairs (I, J) = (fine,
    coarse), len(I) <= len(J), of cubes given as int64 arrays, from one
    grid.boxes call per side.  kind indexes CLASSES:

    far:       dist(I,J) > len(J) (len(I)/len(J))^theta and dist(mI,mJ) > D/2
    between:   first condition holds, second fails
    contained: I strictly inside J
    equal:     I = J
    near:      disjoint, dist(I,J) <= theta_reach

    K is the smallest grid cube containing both concentric m-dilates, i =
    fine_k - K_k and j = coarse_k - K_k; an equal pair joins with its right
    neighbour when that lies in the window (index below
    DyadicGrid.cube_counts), else with its left one.  K_l, i and j carry
    no meaning where truncated (see _join).  Raises
    ValueError when some fine cube is the coarser of its pair.
    """
    fine_k = np.asarray(fine_k, dtype=np.int64)
    coarse_k = np.asarray(coarse_k, dtype=np.int64)
    if np.any(fine_k < coarse_k):
        raise ValueError("first cube must be the finer one")
    lo_i, hi_i = grid.boxes(fine_k, fine_l)
    lo_j, hi_j = grid.boxes(coarse_k, coarse_l)
    side_i, side_j = hi_i - lo_i, hi_j - lo_j
    dist = np.maximum(np.maximum(lo_j - hi_i, lo_i - hi_j), 0)
    near = dist <= theta_reach(fine_k - coarse_k, side_j, theta)
    dlo_i, dhi_i = dilate(lo_i, hi_i, m)
    dlo_j, dhi_j = dilate(lo_j, hi_j, m)
    dil_dist = np.maximum(np.maximum(dlo_j - dhi_i, dlo_i - dhi_j), 0)
    # far: the dilates are more than half of D(I,J) = len I + dist + len J
    # apart
    far = 2 * dil_dist > side_i + dist + side_j
    equal = (fine_k == coarse_k) & (np.asarray(fine_l) == np.asarray(coarse_l))
    contained = (lo_j <= lo_i) & (hi_i <= hi_j)
    kind = np.select([equal, contained, near, far],
                     [EQUAL, CONTAINED, NEAR, FAR], BETWEEN)
    # an equal pair's partner is J moved one side, right where the right
    # neighbour, index coarse_l + 1, lies in the window
    right = np.asarray(coarse_l) + 1
    right_in = (0 <= right) & (right < grid.cube_counts(coarse_k))
    move = np.where(equal, np.where(right_in, side_j, -side_j), 0)
    # the first candidate generation: the coarse cube's own for m = 1, its
    # parent's otherwise (an m-dilate never fits in the cube itself)
    K_k, K_l, truncated = _join(
        grid, np.minimum(dlo_i, dlo_j + move), np.maximum(dhi_i, dhi_j + move),
        coarse_k - (1 if m > 1 else 0))
    return kind, K_k, K_l, fine_k - K_k, coarse_k - K_k, truncated


def coefficient_scale(i: int, j: int) -> float:
    """sqrt(|I||J|)/|K| for the (i,j) block geometry."""
    return 2.0 ** (-(i + j) / 2.0)


def _decay(i: int, j: int, s: int, eps: float) -> float:
    """2^{-max(i,j)(s - 2 eps)}, the decay a type-(i, j) pairing is
    normalized by."""
    return 2.0 ** (-max(i, j) * (s - 2.0 * eps))


def shift_coefficient(pairing, i: int, j: int, s: int, eps: float,
                      bound_const: float, c_emp: float, names=None):
    """a_IJK = pairing / (c_emp (|K|_CZs + |T|) 2^{-max(i,j)(s - 2 eps)}),
    elementwise over a pairing value or an array of them.

    Raises NormalizationFinding at the first entry whose |a| exceeds the
    admissible-shift bound sqrt(|I||J|)/|K|, named in the message by
    names(n) for entry n when names is given; that is a reportable
    finding, not a value to clip.
    """
    decay = _decay(i, j, s, eps)
    a = np.asarray(pairing, dtype=float) / (c_emp * bound_const * decay)
    cap = coefficient_scale(i, j)
    over = np.flatnonzero(np.abs(a) > cap * (1.0 + 1e-12))
    if over.size:
        n = int(over[0])
        raise NormalizationFinding(
            f"normalization violated: |a|={abs(a.flat[n]):.6g} > {cap:.6g} "
            f"at (i,j)=({i},{j})" + (f" {names(n)}" if names else ""))
    return a


# the entries of a zero shift, shared by every ShiftOperator built without
# entries, so read-only
_NO_ENTRIES = np.empty(0, dtype=np.int64)
_NO_ENTRIES.setflags(write=False)
_NO_COEFFICIENTS = np.empty(0)
_NO_COEFFICIENTS.setflags(write=False)


class ShiftOperator(NamedTuple):
    """S^{ij} f = sum_K A_K f with A_K f = sum a_IJK <f, psi_I> psi_J.

    Entry n pairs I = (K_k[n] + i, I_l[n]) with J = (K_k[n] + j, J_l[n])
    in the block K = (K_k[n], K_l[n]), with coefficient a[n]: the
    generations and indices are int64 arrays and a a float array, one item
    per entry.  ShiftOperator(i, j) is the zero shift, whose empty arrays
    are read-only.
    """

    i: int
    j: int
    K_k: np.ndarray = _NO_ENTRIES
    K_l: np.ndarray = _NO_ENTRIES
    I_l: np.ndarray = _NO_ENTRIES
    J_l: np.ndarray = _NO_ENTRIES
    a: np.ndarray = _NO_COEFFICIENTS
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
        return self._replace(i=self.j, j=self.i, I_l=self.J_l, J_l=self.I_l)

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
        lo, hi = dilate(*grid.boxes(k, l), system.m)
        inside &= (k_lo <= lo) & (hi <= k_hi)
    return ShiftOperator(
        i, j, K_k[sel], K_l[sel], I_l[sel], J_l[sel], a,
        good=bool(np.all(inside | (a == 0.0))),
        class_filter=tuple(class_filter),
        excluded_badness=excluded_badness,
        excluded_window=int(np.count_nonzero(truncated)), c_emp=c_emp)


def descendants(grid: DyadicGrid, K_k, K_l, depth: int,
                ) -> tuple[np.ndarray, np.ndarray]:
    """In-window cubes `depth` generations below the cubes K, given as
    int64 arrays, and contained in them: (n, l) int64 arrays, where n
    indexes the containing K, in order of n and then of l.

    The grid is nested, so they are the window cubes of that generation
    that overlap K: DyadicGrid.touching of K's box, enumerated by ragged.
    """
    K_k = np.asarray(K_k, dtype=np.int64)
    return ragged(*grid.touching(K_k + depth, *grid.boxes(K_k, K_l)))


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
        decay = _decay(ti, tj, s, eps)
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
        rows, at = ragged((np.cumsum(per_block) - per_block)[n_i],
                          per_block[n_i])
        n = n_i[rows]
        I_l = I_l[rows]
        J_l = J_l[at]
    a = np.full(n.size, coefficient_scale(i, j))
    return ShiftOperator(i, j, K_k[n], K_l[n], I_l, J_l, a,
                         class_filter=("calibration",))


def shift_norm(S: ShiftOperator) -> float:
    """||S||, the largest 2-norm of the blocks A_K of S.

    The psi_I are orthonormal, each I lies in one block, its i-th
    ancestor, and each J in its j-th, so S is the direct sum of its blocks
    in wavelet coordinates.  A block's I (and its J) are one run of
    indices, so an entry sits in its block's dense matrix at its indices
    less the block's smallest; an (I, J) that recurs in a block sums.
    """
    if not S.a.size:
        return 0.0
    _, block = np.unique(np.stack([S.K_k, S.K_l], axis=1), axis=0,
                         return_inverse=True)
    block = block.reshape(-1)
    n = int(block.max()) + 1
    at = []
    for l in (S.J_l, S.I_l):
        first = np.full(n, np.iinfo(np.int64).max)
        np.minimum.at(first, block, l)
        at.append(l - first[block])
    A = np.zeros((n, *(int(p.max()) + 1 for p in at)))
    np.add.at(A, (block, *at), S.a)
    return float(np.linalg.norm(A, ord=2, axis=(1, 2)).max())
