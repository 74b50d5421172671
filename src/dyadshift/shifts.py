"""Five-way classification of cube pairs, normalized shift coefficients,
block averaging operators A_K, and assembled wavelet shifts S^{ij}.

Classification predicates are evaluated in exact integer-unit arithmetic so
class membership never depends on floating-point rounding (the only float is
the threshold len(J) * (len(I)/len(J))^theta, which is exactly representable
whenever theta = 1).  classify_batch evaluates them for whole arrays of
pairs; classify_pair is its one-pair form and gives the PairClass entries
that assemble_shift takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (Cube, DyadicGrid, _join_truncation, ancestor_join_batch,
                     cube_arrays)
from .operators import sample_wavelet

CLASSES = ("far", "between", "contained", "equal", "near")
FAR, BETWEEN, CONTAINED, EQUAL, NEAR = range(len(CLASSES))


class NormalizationFinding(RuntimeError):
    """A normalized coefficient exceeded the admissible-shift bound."""


@dataclass(frozen=True)
class PairClass:
    kind: str
    K: Cube
    i: int
    j: int


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
    if np.any(fine_k < coarse_k):
        raise ValueError("classification expects len(I) <= len(J)")
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
    with its left neighbour otherwise.
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


def classify_pair(grid: DyadicGrid, I: Cube, J: Cube, theta: float, m: int,
                  ) -> PairClass:
    """classify_batch of one ordered pair with len(I) <= len(J): its class
    and containing ancestor (equal pairs borrow a deterministic adjacent
    cube).  Raises WindowTruncationError where the batch truncates."""
    kind, K_k, K_l, i, j, truncated = classify_batch(
        grid, *cube_arrays([I]), *cube_arrays([J]), theta, m)
    if truncated[0]:
        raise _join_truncation(grid.window, int(K_k[0]))
    return PairClass(CLASSES[kind[0]], Cube(int(K_k[0]), (int(K_l[0]),)),
                     int(i[0]), int(j[0]))


def coefficient_scale(i: int, j: int, d: int) -> float:
    """sqrt(|I||J|)/|K| for the (i,j) block geometry."""
    return 2.0 ** (-(i + j) * d / 2.0)


def shift_coefficient(pairing_value: float, i: int, j: int, d: int, s: int,
                      eps: float, bound_const: float, c_emp: float,
                      context: str = "") -> float:
    """a_IJK = pairing / (c_emp (|K|_CZs + |T|) 2^{-max(i,j)(s - 2 eps)}).

    Raises NormalizationFinding when the admissible-shift bound
    |a| <= sqrt(|I||J|)/|K| fails; that is a reportable finding, not a value
    to clip.
    """
    decay = 2.0 ** (-max(i, j) * (s - 2.0 * eps))
    a = pairing_value / (c_emp * bound_const * decay)
    cap = coefficient_scale(i, j, d)
    if abs(a) > cap * (1.0 + 1e-12):
        raise NormalizationFinding(
            f"normalization violated: |a|={abs(a):.6g} > {cap:.6g} "
            f"at (i,j)=({i},{j}) {context}"
        )
    return a


@dataclass
class ShiftOperator:
    i: int
    j: int
    blocks: dict = field(default_factory=dict)  # K -> list[(I, J, a)]
    good: bool = True
    class_filter: tuple = CLASSES
    excluded_badness: int = 0
    excluded_window: int = 0
    c_emp: float = 1.0

    @property
    def coefficient_count(self) -> int:
        return sum(len(v) for v in self.blocks.values())

    def max_normalized_coefficient(self) -> float:
        cap = coefficient_scale(self.i, self.j, 1)
        worst = 0.0
        for entries in self.blocks.values():
            for _, _, a in entries:
                worst = max(worst, abs(a) / cap)
        return worst

    def transpose(self) -> "ShiftOperator":
        """The dual shift: type (j,i) with every block transposed."""
        out = ShiftOperator(i=self.j, j=self.i, good=self.good,
                            class_filter=self.class_filter, c_emp=self.c_emp)
        for K, entries in self.blocks.items():
            out.blocks[K] = [(J, I, a) for (I, J, a) in entries]
        return out

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


def assemble_shift(grid: DyadicGrid, system, i: int, j: int,
                   classified, pairings, s: int, eps: float,
                   bound_const: float, c_emp: float,
                   class_filter=CLASSES, good_mask=None,
                   excluded_window: int = 0) -> ShiftOperator:
    """Build S^{ij} from classified pairs and their pairing values.

    classified: list of (I, J, PairClass) with len(I) <= len(J); pairings:
    matching list of <psi_J, T psi_I> values; good_mask: optional badness
    filter per pair (False entries are dropped and counted).
    """
    S = ShiftOperator(i=i, j=j, class_filter=tuple(class_filter),
                      excluded_window=excluded_window, c_emp=c_emp)
    m = system.m
    w = grid.window
    d = w.d
    for idx, (I, J, pc) in enumerate(classified):
        if pc.kind not in class_filter or pc.i != i or pc.j != j:
            continue
        if good_mask is not None and not good_mask[idx]:
            S.excluded_badness += 1
            continue
        a = shift_coefficient(pairings[idx], i, j, d, s, eps, bound_const,
                              c_emp, context=f"I={I} J={J}")
        S.blocks.setdefault(pc.K, []).append((I, J, a))
    good = True
    for K, entries in S.blocks.items():
        k_lo, k_hi = grid.cube_box(K)
        for I, J, a in entries:
            if a == 0.0:
                continue
            for c in (I, J):
                d_lo, d_hi = grid.dilate_box(c, m)
                if not ((k_lo <= d_lo).all() and (d_hi <= k_hi).all()):
                    good = False
    S.good = good
    return S


def descendants(grid: DyadicGrid, K: Cube, depth: int) -> list[Cube]:
    """In-window cubes `depth` generations below K and contained in it."""
    k_lo, k_hi = grid.cube_box(K)
    out = []
    for c in grid.cubes_touching(K.k + depth, k_lo, k_hi):
        lo, hi = grid.cube_box(c)
        if (k_lo <= lo).all() and (hi <= k_hi).all():
            out.append(c)
    return out


def calibrate_c_emp(classified, pairings, s: int, eps: float,
                    bound_const: float, d: int) -> float:
    """Smallest normalization constant >= 1 for which every normalized
    coefficient from the sweep obeys the admissible-shift cap.

    Frozen into the run manifest so downstream assemblies with the same
    (operator, system, s, eps) never raise a normalization finding on the
    calibration data.
    """
    worst = 0.0
    for (I, J, pc), v in zip(classified, pairings):
        decay = 2.0 ** (-max(pc.i, pc.j) * (s - 2.0 * eps))
        cap = coefficient_scale(pc.i, pc.j, d)
        worst = max(worst, abs(float(v)) / (bound_const * decay * cap))
    return max(1.0, worst)


def calibration_shift(grid: DyadicGrid, i: int, j: int, Ks,
                      pattern: str = "full") -> ShiftOperator:
    """A synthetic shift with every coefficient at the admissible cap.

    pattern "full" pairs every depth-i cube with every depth-j cube inside
    each block; "diagonal" (requires i == j) keeps only I = J, the identity
    calibration pattern whose norm a dense decomposition can check.
    """
    if pattern == "diagonal" and i != j:
        raise ValueError("diagonal pattern needs i == j")
    S = ShiftOperator(i=i, j=j, class_filter=("calibration",))
    d = grid.window.d
    cap = coefficient_scale(i, j, d)
    for K in Ks:
        eye = descendants(grid, K, i)
        jay = eye if i == j else descendants(grid, K, j)
        if pattern == "diagonal":
            entries = [(I, I, cap) for I in eye]
        else:
            entries = [(I, J, cap) for I in eye for J in jay]
        S.blocks[K] = entries
    return S


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


def apply_averaging(grid: DyadicGrid, system, entries, f: np.ndarray,
                    mesh: Mesh1D) -> np.ndarray:
    """A_K f = sum a <f, psi_I> psi_J on the mesh."""
    x = mesh.centers
    out = np.zeros_like(f, dtype=float)
    for I, J, a in entries:
        if a == 0.0:
            continue
        ci = float(np.sum(sample_wavelet(grid, system, I, x) * f) * mesh.h)
        out += a * ci * sample_wavelet(grid, system, J, x)
    return out


def apply_shift(grid: DyadicGrid, system, S: ShiftOperator, f: np.ndarray,
                mesh: Mesh1D) -> np.ndarray:
    out = np.zeros_like(f, dtype=float)
    for K in sorted(S.blocks, key=lambda c: (c.k, c.l)):
        out += apply_averaging(grid, system, S.blocks[K], f, mesh)
    return out


class PowerIterationError(RuntimeError):
    pass


def shift_norm_estimate(grid: DyadicGrid, system, S: ShiftOperator,
                        mesh: Mesh1D, tol: float = 1e-4, max_iter: int = 500,
                        seed: int = 0) -> float:
    """L2 operator norm of S on the mesh by power iteration on S^t S.

    The analysis/synthesis sample matrices are precomputed once, so each
    iteration is two small matrix-vector products.
    """
    entries = [e for K in sorted(S.blocks, key=lambda c: (c.k, c.l))
               for e in S.blocks[K]]
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
    raise PowerIterationError("power iteration did not converge")
