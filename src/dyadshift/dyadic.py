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

from dataclasses import dataclass

import numpy as np
# numpy imports numpy.random on np.random's first access; importing it with
# the package keeps that cost out of the first DyadicGrid.random draw of a
# command's experiment.  numpy.ma is never loaded (see distinct)
import numpy.random  # noqa: F401


class ScaleRangeError(ValueError):
    """An operation needed generations outside the window's scale range."""


@dataclass(frozen=True)
class Cube:
    """Dyadic cube of generation k with integer index l = (l_0,).

    The unshifted cube is [l_0 2^-k, (l_0+1) 2^-k).  l stays a 1-tuple, as
    shift_units stays a length-1 array: bench/tracer.py reads them from
    outside the library.  The library never builds a Cube: it holds cubes
    and pairs as int64 arrays of generations and indices (see
    DyadicGrid.touching, ragged and CubePairs).  Cubes are for whoever
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

    def sides(self, k: np.ndarray) -> np.ndarray:
        """The int64 sidelengths, in integer units, of the generations k
        (an int64 array): len_units of each."""
        k = np.asarray(k, dtype=np.int64)
        if k.size and (k.min() < self.k_min or k.max() > self.k_max):
            raise ScaleRangeError(
                f"generations outside [{self.k_min}, {self.k_max}]")
        return np.left_shift(np.int64(1), self.unit_exp - k)

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
        weighted = window.sides(window.k_min + 1 + np.arange(n)) * omega
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
        k = np.asarray(k, dtype=np.int64)
        side = self.window.sides(k)
        lo = (np.asarray(l, dtype=np.int64) * side
              + self._shifts[k - self.window.k_min])
        return lo, lo + side

    def locate(self, k, x) -> np.ndarray:
        """The index of the generation-k cube of the grid holding the
        integer-unit point x, for int64 arrays (or ints) k and x."""
        k = np.asarray(k, dtype=np.int64)
        return ((x - self._shifts[k - self.window.k_min])
                // self.window.sides(k))

    def cube_counts(self, k) -> np.ndarray:
        """How many cubes of each generation k the window holds: the
        indices 0 <= l < count (a shift is below its side)."""
        return self.locate(k, self.window.extent_units)

    def touching(self, k, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """(start, count): the indices l, start <= l < start + count, of
        the window cubes of generation k whose shifted interval overlaps
        [lo, hi], for int64 arrays of generations and integer-unit bounds;
        count is 0 where none does."""
        start = np.maximum(self.locate(k, lo), 0)
        stop = np.minimum(self.locate(k, hi - 1) + 1, self.cube_counts(k))
        return start, np.maximum(stop - start, 0)


def ragged(start, counts) -> tuple[np.ndarray, np.ndarray]:
    """(n, l) over consecutive runs of counts[n] items, run n counting up
    from start[n]: the run of each item and its value.  The one
    enumerator of index ranges, such as those of DyadicGrid.touching."""
    n = np.repeat(np.arange(counts.size), counts)
    return n, start[n] + np.arange(n.size) - (np.cumsum(counts) - counts)[n]


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


def distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array, as np.unique(a) gives
    them: a sorted copy, keeping each value that differs from the one
    before it.  np.unique asked for no index or count calls
    np.ma.is_masked, which imports numpy.ma."""
    s = np.sort(a)
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def dilate(lo, hi, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the concentric m-dilates (m odd) of the cubes with
    integer-unit corners lo and hi (int64 arrays)."""
    grow = (m - 1) * (hi - lo) // 2
    return lo - grow, hi + grow


def theta_reach(gap, side_c, theta: float) -> np.ndarray:
    """floor(side_c (2^-gap)^theta), int64: the reach len(I)^theta
    len(J)^(1-theta) of a cube I gap generations below a cube J of side
    side_c units.  The factor is taken in Python floats."""
    gap = np.asarray(gap, dtype=np.int64)
    factor = np.array([(2.0 ** -n) ** theta
                       for n in range(int(gap.max(initial=0)) + 1)])
    return np.floor(factor[gap] * side_c).astype(np.int64)


def _bad_offsets(window: Window, k: int, r: int, theta: float,
                t: np.ndarray) -> np.ndarray:
    """Badness of generation-k cubes whose corners sit t integer units
    (an int64 array) from the generation-k_min skeleton.

    A cube is bad when some coarser generation k_c >= k_min, at least r
    steps up, brings its skeleton within theta_reach of the cube.
    Every translation bit of a generation <= k_c is a multiple of that
    generation's sidelength, so one offset serves every k_c.  When
    k - r < k_min no k_c is admissible and every cube comes out good.
    """
    side = window.len_units(k)
    bad = np.zeros(t.size, dtype=bool)
    gap = np.arange(k - window.k_min, r - 1, -1)  # k_c = k - gap
    sides_c = side << gap
    for side_c, reach in zip(sides_c.tolist(),
                             theta_reach(gap, sides_c, theta).tolist()):
        bad |= _skeleton_gap(t, side, side_c) <= reach
    return bad


def is_bad_batch(grid: DyadicGrid, k: np.ndarray, l: np.ndarray, r: int,
                 theta: float) -> np.ndarray:
    """Badness of many cubes of the grid (see _bad_offsets), given as int64
    arrays of generations and indices, with one _bad_offsets call per
    generation (which finds no generation with k - r < k_min bad).
    """
    w = grid.window
    k = np.asarray(k, dtype=np.int64)
    lo, _ = grid.boxes(k, l)
    t = lo - grid.shift_units(w.k_min)[0]
    bad = np.zeros(k.size, dtype=bool)
    for gen in distinct(k).tolist():
        sel = k == gen
        bad[sel] = _bad_offsets(w, gen, r, theta, t[sel])
    return bad


def union_bound(r: int, theta: float) -> float:
    """Union-bound estimate for the bad-cube frequency."""
    return (8.0 / theta) * 2.0 ** (-r * theta)


@dataclass
class GoodnessReport:
    pi_bad_hat: float
    stderr: float
    bound: float


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
    weights = window.sides(window.k_min + 1 + np.arange(n_rows))
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
    below k_min.  A k_ref outside the window, and more than MC_MAX_BITS
    bits, raise ScaleRangeError before any bit is drawn."""
    w = window
    if k_ref is None:
        k_ref = max((w.k_min + w.k_max) // 2, w.k_min + r)
    if k_ref > w.k_max:
        raise ScaleRangeError(
            f"reference generation {k_ref} lies beyond k_max={w.k_max}; "
            f"badness with r={r} needs k_max - k_min >= r")
    w.len_units(k_ref)  # refuses a k_ref below k_min
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
    return GoodnessReport(pi_bad_hat=p, stderr=se, bound=union_bound(r, theta))


def pi_bad_exact(window: Window, k_ref: int, r: int, theta: float) -> float:
    """Exact badness probability by enumerating all translation bits that can
    influence badness (generations k_min < j <= k_ref).  Cost 2^(k_ref-k_min).
    0.0, however deep the window, for a k_ref with no admissible ancestor;
    a k_ref outside the window, or over 24 bits, raises ScaleRangeError.
    """
    w = window
    w.len_units(k_ref)  # refuses a k_ref outside the window
    if k_ref - r < w.k_min:
        return 0.0  # _bad_offsets finds no k_c
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
    weights = w.sides(k_ref + 1 + np.arange(w.k_max - k_ref))
    pos = bits[:, k_ref - w.k_min:] @ weights
    bins = (pos * position_bins) // w.len_units(k_ref)
    table = np.zeros((2, position_bins), dtype=np.int64)
    for b in range(position_bins):
        sel = bins == b
        table[0, b] = int((bad & sel).sum())
        table[1, b] = int(((~bad) & sel).sum())
    return table
