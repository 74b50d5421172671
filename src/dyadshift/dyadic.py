"""Randomly shifted dyadic grids, good/bad cubes, and cube geometry.

All geometry is exact: positions are integers in units of 2^-(k_max+1), so a
cube of generation k has sidelength 2^(k_max+1-k) units (always even, which
keeps the corners of odd concentric dilates on the integer lattice).

The geometry is one-dimensional: windows, cubes and shifts live on the
line, and batched functions take int64 arrays of generations and indices.

The grid model truncates the random shift to the window's scale range: a
translation parameter omega assigns one bit per generation j in
(k_min, k_max], and a cube of generation k is translated by
sum_{j>k} 2^-j omega_j.  Badness of a cube is measured against the full grid
skeleton of every admissible coarser generation >= k_min; the spatial window
only bounds which cubes are enumerated.  This keeps the badness frequency
identical for every cube of a given generation and makes position and badness
exactly independent (they are driven by disjoint bits of omega).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np


class ScaleRangeError(ValueError):
    """An operation needed generations outside the window's scale range."""


@dataclass(frozen=True)
class Cube:
    """Dyadic cube of generation k with integer index l = (l_0,).

    The unshifted cube is [l_0 2^-k, (l_0+1) 2^-k).  l stays a 1-tuple, as
    shift_units stays a length-1 array: bench/tracer.py reads them from
    outside the library.  The library never builds a Cube: it holds cubes
    and pairs as int64 arrays of generations and indices (see
    DyadicGrid.touching_range and CubePairs).  Cubes are for whoever
    iterates a CubePairs."""

    k: int
    l: tuple


@dataclass(frozen=True)
class Window:
    """Spatial interval [0, 2^L) with generations k_min..k_max."""

    L: int
    k_min: int
    k_max: int

    def __post_init__(self):
        if self.k_max < self.k_min:
            raise ScaleRangeError("k_min must be <= k_max")
        if -self.k_min > self.L:
            raise ScaleRangeError("need L >= -k_min so the coarsest cubes "
                                  "fit in the window")

    @property
    def unit_exp(self) -> int:
        # exponent of the integer unit: lengths are multiples of 2^-(k_max+1)
        return self.k_max + 1

    def len_units(self, k: int) -> int:
        if not (self.k_min <= k <= self.k_max):
            raise ScaleRangeError(f"generation {k} outside [{self.k_min}, {self.k_max}]")
        return 1 << (self.unit_exp - k)

    @property
    def extent_units(self) -> int:
        return 1 << (self.unit_exp + self.L)

    @property
    def n_shift_bits(self) -> int:
        return self.k_max - self.k_min


class DyadicGrid:
    """A dyadic grid determined by a window and a translation parameter.

    omega is a 0/1 vector of length k_max - k_min; entry jr is the bit of
    generation j = k_min + 1 + jr.
    """

    def __init__(self, window: Window, omega: np.ndarray | None = None):
        self.window = window
        n = window.n_shift_bits
        if omega is None:
            omega = np.zeros(n, dtype=np.int64)
        omega = np.asarray(omega, dtype=np.int64)
        if omega.shape != (n,) or not np.isin(omega, (0, 1)).all():
            raise ValueError(f"omega must be a 0/1 vector of length {n}")
        self.omega = omega
        # weight of bit jr (generation j = k_min+1+jr) in integer units
        j = window.k_min + 1 + np.arange(n)
        weighted = (1 << (window.unit_exp - j)).astype(np.int64) * omega
        # shift of generation k in entry k - k_min: the sum of the weighted
        # bits of every finer generation, zero for k_max
        shifts = np.zeros(n + 1, dtype=np.int64)
        shifts[:n] = np.cumsum(weighted[::-1])[::-1]
        shifts.setflags(write=False)
        self._shifts = shifts

    @classmethod
    def random(cls, window: Window, seed) -> "DyadicGrid":
        rng = np.random.default_rng(seed)
        omega = rng.integers(0, 2, size=window.n_shift_bits)
        return cls(window, omega)

    def shift_units(self, k: int) -> np.ndarray:
        """Translation applied to generation-k cubes, in integer units (a
        length-1 int64 array)."""
        w = self.window
        if not (w.k_min <= k <= w.k_max):
            raise ScaleRangeError(f"generation {k} outside window scale range")
        row = k - w.k_min
        return self._shifts[row:row + 1]

    def boxes(self, k: np.ndarray, l: np.ndarray,
              ) -> tuple[np.ndarray, np.ndarray]:
        """Shifted cubes as (lo, hi) integer-unit corners: int64 arrays
        for generations k and indices l (int64 arrays)."""
        w = self.window
        k = np.asarray(k, dtype=np.int64)
        if k.size and (k.min() < w.k_min or k.max() > w.k_max):
            raise ScaleRangeError(
                f"generations outside [{w.k_min}, {w.k_max}]")
        side = np.left_shift(np.int64(1), w.unit_exp - k)
        lo = (np.asarray(l, dtype=np.int64) * side
              + self._shifts[k - w.k_min])
        return lo, lo + side

    def touching_range(self, k: int, lo_units: int,
                       hi_units: int) -> tuple[int, int]:
        """(start, stop): the indices l, start <= l < stop, of the
        generation-k cubes of the grid whose closed shifted interval meets
        [lo_units, hi_units] (integer units), clipped to the window; stop
        may lie below start when none does."""
        w = self.window
        side = w.len_units(k)
        shift = int(self.shift_units(k)[0])
        # overlap: l*side + shift + side > lo  and  l*side + shift < hi
        l_lo = (lo_units - shift - side) // side + 1
        l_hi = -((shift - hi_units) // side) - 1  # inclusive
        # window: corner >= 0 and far corner <= extent
        l_lo = max(l_lo, -(shift // side))
        l_hi = min(l_hi, (w.extent_units - shift - side) // side)
        return l_lo, l_hi + 1


def _skeleton_gap(t: np.ndarray, side: int, side_c: int) -> np.ndarray:
    """Distance from cubes of sidelength `side` with corners t to the
    lattice of multiples of side_c, per cube."""
    off = t % side_c
    return np.minimum(off, side_c - off - side)


@dataclass(frozen=True, eq=False)
class CubePairs:
    """Cube pairs (I, J) held as four int64 arrays: the generations and
    indices of the I cubes and of the J cubes, one item per pair.

    The library reads the arrays.  Iterating yields (Cube, Cube) tuples,
    built on demand, as bench/tracer.py reads the pairs."""

    I_k: np.ndarray
    I_l: np.ndarray
    J_k: np.ndarray
    J_l: np.ndarray

    def __len__(self) -> int:
        return self.I_k.size

    def __iter__(self):
        for ik, il, jk, jl in zip(self.I_k.tolist(), self.I_l.tolist(),
                                  self.J_k.tolist(), self.J_l.tolist()):
            yield Cube(ik, (il,)), Cube(jk, (jl,))


def ancestor_join_batch(grid: DyadicGrid, fine_k, fine_l, coarse_k, coarse_l,
                        m: int) -> tuple[np.ndarray, ...]:
    """Smallest grid cube K containing both concentric m-dilates of each
    pair (fine, coarse), with len(fine) <= len(coarse), of cubes given as
    int64 arrays, vectorized over the pairs.

    Returns int64 arrays (K_k, K_l, i, j), with i = fine_k - K_k and
    j = coarse_k - K_k, and the boolean mask truncated,
    set where no window generation contains both dilates (K_k = k_min - 1)
    or the containing cube leaves the window (K_k its generation).  K_l, i
    and j carry no meaning on truncated pairs.
    """
    fine_k = np.asarray(fine_k, dtype=np.int64)
    coarse_k = np.asarray(coarse_k, dtype=np.int64)
    if np.any(fine_k < coarse_k):
        raise ValueError("first cube must be the finer one")
    w = grid.window
    lo_f, hi_f = grid.boxes(fine_k, fine_l)
    lo_c, hi_c = grid.boxes(coarse_k, coarse_l)
    grow_f = (m - 1) * (hi_f - lo_f) // 2
    grow_c = (m - 1) * (hi_c - lo_c) // 2
    lo = np.minimum(lo_f - grow_f, lo_c - grow_c)
    hi = np.maximum(hi_f + grow_f, hi_c + grow_c)
    # the first candidate generation: the coarse cube's own for m = 1, its
    # parent's otherwise (an m-dilate never fits in the cube itself)
    start = coarse_k - (1 if m > 1 else 0)
    n = fine_k.size
    K_k = np.full(n, w.k_min - 1, dtype=np.int64)
    K_l = np.zeros(n, dtype=np.int64)
    outside = np.zeros(n, dtype=bool)
    open_ = np.ones(n, dtype=bool)
    top = int(start.max()) if n else w.k_min - 1
    for k in range(top, w.k_min - 1, -1):
        side = w.len_units(k)
        shift = int(grid.shift_units(k)[0])
        cand = (lo_f - shift) // side  # the generation-k ancestor's index
        c_lo = cand * side + shift
        hit = open_ & (start >= k) & (c_lo <= lo) & (hi <= c_lo + side)
        K_k[hit] = k
        K_l[hit] = cand[hit]
        outside[hit] = ((c_lo < 0) | (c_lo + side > w.extent_units))[hit]
        open_ &= ~hit
        if not open_.any():
            break
    return K_k, K_l, fine_k - K_k, coarse_k - K_k, open_ | outside


def _bad_offsets(window: Window, k: int, r: int, theta: float,
                t: np.ndarray) -> np.ndarray:
    """Badness of generation-k cubes whose corners sit t integer units
    (an int64 array) from the generation-k_min skeleton.

    A cube is bad when some coarser generation k_c >= k_min, at least r
    steps up, brings its skeleton within theta-relative reach of the cube.
    Every translation bit of a generation <= k_c is a multiple of that
    generation's sidelength, so one offset serves every k_c.
    """
    side = window.len_units(k)
    bad = np.zeros(t.size, dtype=bool)
    for k_c in range(window.k_min, k - r + 1):
        side_c = window.len_units(k_c)
        thresh = (2.0 ** (k_c - k)) ** theta * side_c
        bad |= _skeleton_gap(t, side, side_c) <= thresh
    return bad


def is_bad_batch(grid: DyadicGrid, k: np.ndarray, l: np.ndarray, r: int,
                 theta: float) -> np.ndarray:
    """Badness of many cubes of the grid (see _bad_offsets), given as int64
    arrays of generations and indices, with one _bad_offsets call per
    generation.

    Cubes with k - r < k_min come out not bad: they have no admissible
    coarser generation.
    """
    w = grid.window
    k = np.asarray(k, dtype=np.int64)
    lo, _ = grid.boxes(k, l)
    t = lo - grid.shift_units(w.k_min)[0]
    bad = np.zeros(k.size, dtype=bool)
    for gen in np.unique(k[k - r >= w.k_min]).tolist():
        sel = k == gen
        bad[sel] = _bad_offsets(w, gen, r, theta, t[sel])
    return bad


def union_bound(r: int, theta: float) -> float:
    """Union-bound estimate for the bad-cube frequency."""
    return (8.0 / theta) * 2.0 ** (-r * theta)


@dataclass
class GoodnessReport:
    samples: int
    pi_bad_hat: float
    stderr: float
    bound: float
    r: int
    theta: float

    def to_csv(self) -> str:
        """One header line and one row; the d column is the dimension, 1."""
        buf = io.StringIO()
        buf.write("samples,pi_bad_hat,stderr,bound,r,theta,d\n")
        buf.write(f"{self.samples},{self.pi_bad_hat:.10g},{self.stderr:.10g},"
                  f"{self.bound:.10g},{self.r},{self.theta:.10g},1\n")
        return buf.getvalue()


def _badness_batch(window: Window, k_ref: int, r: int, theta: float,
                   bits: np.ndarray, l_ref: int) -> np.ndarray:
    """Vectorized badness of the generation-k_ref cube with index l_ref for
    many omega draws.

    bits: (n_samples, n_bits) int64, column jr the bit of generation
    k_min+1+jr.  Only columns with j <= k_ref feed the offsets;
    coarser-generation offsets are nested truncations of one integer, so a
    single weighted sum suffices.
    """
    n_rows = k_ref - window.k_min  # columns with k_min < j <= k_ref
    j = window.k_min + 1 + np.arange(n_rows)
    weights = (1 << (window.unit_exp - j)).astype(np.int64)
    t = bits[:, :n_rows] @ weights + l_ref * window.len_units(k_ref)
    return _bad_offsets(window, k_ref, r, theta, t)


# most translation bits (samples x n_shift_bits) one Monte Carlo badness
# call draws.  A call peaks at 8 bytes per bit plus 33 per sample (the
# int64 bit array, the offsets and the badness temporaries, measured with
# tracemalloc), so at most 42 bytes per bit, on a one-bit window: the bound
# allows about 1.05 GB.  The largest draw of the tests, demos and README
# configs is 1.2 M bits; the bench badness config draws 24 M.
MC_MAX_BITS = 25_000_000


def _sample_badness(window: Window, r: int, theta: float, samples: int, seed,
                    k_ref: int | None) -> tuple[int, np.ndarray, np.ndarray]:
    """(k_ref, bits, badness) of the centred reference cube over random
    translation bits; k_ref defaults to mid-window, at least r generations
    below k_min.  More than MC_MAX_BITS bits raise ScaleRangeError before
    any is drawn."""
    w = window
    if k_ref is None:
        k_ref = max((w.k_min + w.k_max) // 2, w.k_min + r)
    if k_ref - r < w.k_min:
        raise ScaleRangeError("window has no generation r steps above k_ref")
    if k_ref > w.k_max:
        raise ScaleRangeError(
            f"reference generation {k_ref} lies beyond k_max={w.k_max}; "
            f"badness with r={r} needs k_max - k_min >= r")
    if samples * w.n_shift_bits > MC_MAX_BITS:
        raise ScaleRangeError(
            f"{samples} Monte Carlo samples of {w.n_shift_bits} translation "
            f"bits would draw {samples * w.n_shift_bits} bits, more than "
            f"MC_MAX_BITS = {MC_MAX_BITS}; lower mc_samples")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(samples, w.n_shift_bits), dtype=np.int64)
    center = (1 << (w.L + k_ref)) // 2 if w.L + k_ref >= 1 else 0
    return k_ref, bits, _badness_batch(w, k_ref, r, theta, bits, center)


def pi_bad_estimate(window: Window, r: int, theta: float, samples: int,
                    seed, k_ref: int | None = None) -> GoodnessReport:
    """Monte Carlo badness frequency for a generation-k_ref reference cube."""
    _, _, bad = _sample_badness(window, r, theta, samples, seed, k_ref)
    p = int(bad.sum()) / samples
    se = float(np.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples))
    return GoodnessReport(samples=samples, pi_bad_hat=p, stderr=se,
                          bound=union_bound(r, theta), r=r, theta=theta)


def pi_bad_exact(window: Window, k_ref: int, r: int, theta: float) -> float:
    """Exact badness probability by enumerating all translation bits that can
    influence badness (generations k_min < j <= k_ref).  Cost 2^(k_ref-k_min).
    """
    w = window
    if k_ref - r < w.k_min:
        raise ScaleRangeError("window has no generation r steps above k_ref")
    n_rows = k_ref - w.k_min
    if n_rows > 24:
        raise ScaleRangeError("exact enumeration too large for this window")
    # offsets T mod side_c run over all multiples of the cube's side;
    # enumerate T directly
    t = np.arange(1 << n_rows, dtype=np.int64) * w.len_units(k_ref)
    return float(_bad_offsets(w, k_ref, r, theta, t).mean())


def independence_table(window: Window, r: int, theta: float, samples: int,
                       seed, k_ref: int | None = None,
                       position_bins: int = 4) -> np.ndarray:
    """2 x bins contingency table of (badness, binned fine position).

    The position feature is the translation applied to the reference cube
    (bits of generation > k_ref); badness reads only bits <= k_ref.
    """
    w = window
    k_ref, bits, bad = _sample_badness(w, r, theta, samples, seed, k_ref)
    if w.k_max - k_ref < int(np.log2(position_bins)):
        raise ScaleRangeError("not enough fine generations for the position bins")
    j = k_ref + 1 + np.arange(w.k_max - k_ref)
    weights = (1 << (w.unit_exp - j)).astype(np.int64)
    pos = bits[:, k_ref - w.k_min:] @ weights
    bins = (pos * position_bins) // w.len_units(k_ref)
    table = np.zeros((2, position_bins), dtype=np.int64)
    for b in range(position_bins):
        sel = bins == b
        table[0, b] = int((bad & sel).sum())
        table[1, b] = int(((~bad) & sel).sum())
    return table
