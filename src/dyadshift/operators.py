"""Convolution-type singular integral operators on the line and the pairing
engine that evaluates wavelet-pair matrix entries <psi_J, T psi_I>.

Every operator is evaluated through its symbol: an FFT multiplier on a
zero-padded mesh, with analytic periodization corrections for kernels with
a 1/u tail; the identity calibration samples the coarser wavelet directly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len

from .dyadic import CubePairs, DyadicGrid, ScaleRangeError
from .wavelets import WaveletSystem


@dataclass
class KernelOp:
    """Convolution operator Tf(x) = pv Int k(x-y) f(y) dy on the line.

    multiplier: symbol m(xi) so that (Tf)^(xi) = m(xi) f^(xi), radian
    frequency; the transpose T^t has symbol m(-xi).  czs_seminorm: the
    Calderon-Zygmund constant of order s.  tail_order: exponent c such that
    the kernel k(u) ~ a / u^c for large u; a field of a tail_order == 1
    kernel gets the moment-based periodization correction of
    _periodic_apply, and no other field does.  An
    operator is singular when it has a seminorm; the identity has none.
    """

    name: str
    multiplier: callable
    czs_seminorm: callable = None
    tail_order: int = 0

    @property
    def singular(self) -> bool:
        return self.czs_seminorm is not None


def _hilbert_multiplier(xi):
    return -1j * np.sign(xi)


def _hilbert_czs(s: int) -> float:
    # |d^a_y K| |x-y|^{1+a} = a!/pi, increasing in a
    return math.factorial(s) / math.pi


def _smoothed_multiplier(xi):
    return -1j * np.sign(xi) * (1.0 - np.exp(-np.abs(xi)))


def _smoothed_czs(s: int) -> float:
    # sup_u |k^(a)(u)| |u|^(1+a) over a <= s, by dense log-grid search on
    # the partial fractions pi k(u) = 1/u - (1/2)/(u-i) - (1/2)/(u+i)
    best = 0.0
    u = np.geomspace(1e-6, 1e6, 400_001)
    for a in range(s + 1):
        c = math.factorial(a) / math.pi
        vals = np.abs(u ** (-(a + 1))
                      - 0.5 * ((u - 1j) ** (-(a + 1)) + (u + 1j) ** (-(a + 1))))
        best = max(best, float(np.max(c * vals * u ** (1 + a))))
    return best


def make_operator(name: str) -> KernelOp:
    if name == "hilbert":
        return KernelOp(name="hilbert", multiplier=_hilbert_multiplier,
                        czs_seminorm=_hilbert_czs, tail_order=1)
    if name == "smoothed_hilbert":
        return KernelOp(name="smoothed_hilbert", multiplier=_smoothed_multiplier,
                        czs_seminorm=_smoothed_czs, tail_order=3)
    if name == "identity":
        return KernelOp(name="identity",
                        multiplier=lambda xi: np.ones_like(xi))
    raise ValueError(f"unknown operator {name!r}")


@dataclass(frozen=True)
class TestFunction:
    """Compactly supported bump t^tilt (1 - t^2)^4 on |t| < 1,
    t = (x-c)/w.

    The power 4 makes it C^3, which keeps fine-generation wavelet
    coefficients decaying fast.  An odd tilt makes the function mean zero,
    which suppresses the coarse-generation wavelet coefficients that a
    finite window cannot classify.
    """

    __test__ = False  # keep test collectors away despite the name

    center: float = 0.0
    halfwidth: float = 1.0
    tilt: int = 0

    def __call__(self, x):
        t = (np.asarray(x, dtype=float) - self.center) / self.halfwidth
        inside = np.abs(t) < 1.0
        out = np.zeros_like(t)
        out[inside] = t[inside] ** self.tilt * (1.0 - t[inside] ** 2) ** 4
        return out

    @property
    def support(self) -> tuple[float, float]:
        return self.center - self.halfwidth, self.center + self.halfwidth


def _moments(samples: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """First four moments Int x^a f of midpoint samples f at nodes x."""
    return np.array([np.sum(samples * x ** a) * h for a in range(4)])


def _periodic_apply(op: KernelOp, buf: np.ndarray, h: float, x0: float,
                    mu: np.ndarray | None, transpose: bool, stop: int,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(mesh, values) of T (or T^t) applied to the zero-padded buffer on the
    periodic mesh x0 + (n+1/2)h, for the first `stop` mesh points: the
    interior a caller reads, not the padding.

    The contract is a real kernel: its symbol is Hermitian,
    m(-xi) = conj(m(xi)), so T maps the real buffer to a real signal and a
    real FFT carries the whole product (irfft keeps the real part of the
    zero-frequency and Nyquist bins).

    Given mu, the first four moments of the signal, the difference between
    the 1/(pi u) line kernel and the period-P conjugate kernel,
        1/(pi u) - cot(pi u / P)/P = pi u/(3 P^2) + pi^3 u^3/(45 P^4) + ...,
    is added back: the correction of a tail_order == 1 kernel, whose
    callers alone pass mu.  mu=None leaves the periodic result uncorrected.
    """
    N = buf.size
    # in place where the order of operations allows, and each temporary
    # dropped as soon as it is spent: two fields may be built at once
    X = np.fft.rfft(buf)
    xi = np.fft.rfftfreq(N, d=h)
    xi *= 2.0 * math.pi
    if transpose:
        np.negative(xi, out=xi)
    X *= op.multiplier(xi)
    del xi
    out = np.fft.irfft(X, n=N)
    del X
    # a copy, not a view: the padding is freed while the field is read
    out = out[:stop].copy()
    mesh_x = np.arange(out.size, dtype=float)
    mesh_x += 0.5
    mesh_x *= h
    mesh_x += x0
    if mu is not None:
        P = N * h
        c1 = math.pi / (3.0 * P * P)
        c3 = math.pi ** 3 / (45.0 * P ** 4)
        # out += sgn * (c1 * (mu[0] * z - mu[1])
        #               + c3 * (((mu[0] * z - 3 * mu[1]) * z + 3 * mu[2]) * z
        #                       - mu[3]))
        # with sgn = -1 for T^t, step by step in place: the cubic in Horner
        # form, since z ** 3 would cost a pow() per point
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


def apply_multiplier(op: KernelOp, samples: np.ndarray, h: float,
                     x0: float) -> np.ndarray:
    """Apply the operator to midpoint samples on the mesh x0 + (n+1/2)h,
    zero-padded to 8 times their length, as a field (see _field_values)."""
    n = samples.size
    mesh = _FieldMesh(False, x0 + (np.arange(n) + 0.5) * h, samples, h,
                      next_fast_len(8 * n), 0, x0, n)
    return _field_values(op, mesh)[1]


# ---------------------------------------------------------------------------
# pairing engine


def sample_wavelets(grid: DyadicGrid, system: WaveletSystem, k: int,
                    l: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The wavelets of the generation-k cubes with int64 indices l, each at
    its row of the absolute points x: 2^(k/2) psi(2^k x - l - shift/len)."""
    offset = l + grid.shift_units(k)[0] / grid.window.len_units(k)
    t = x * 2.0 ** k - offset[:, None]
    return 2.0 ** (k / 2.0) * system.mother(t, "psi")


def support_intervals(grid: DyadicGrid, system: WaveletSystem,
                      k: np.ndarray, l: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the m-dilates of many one-dimensional cubes, given as
    int64 arrays of generations and indices, in absolute coordinates."""
    lo, hi = grid.boxes(k, l)
    grow = (system.m - 1) * (hi - lo) // 2
    unit = 2.0 ** (-grid.window.unit_exp)
    return (lo - grow).astype(float) * unit, (hi + grow).astype(float) * unit


# the field mesh is 2^2 times finer than the quadrature nodes, which keeps
# the interpolation error a couple of orders below the quadrature error
FIELD_OVERSAMPLE_EXP = 2
# most mesh points of one field.  A field of N points holds about 40 N
# bytes at its peak (the padded buffer, its spectrum, the multiplier, the
# periodic result, the mesh and the tail correction), so the bound allows
# about 2.5 GiB per field and 5 GiB with two fields in flight.  That is
# about 47 times the largest field of the tests and README configs (1.4 M
# points, at q_loc = 12); a hull on a deep window can ask for more than
# 2^63 points, which no FFT length holds.
FIELD_MAX_POINTS = 1 << 26
# most nodes one block of rows evaluates at once, a lookup block handed to
# np.interp or a block of harness.localized_coefficients; larger blocks go
# in row chunks (_row_chunks), which bounds the temporaries at a few times
# 8 MB per field worker
PAIRING_MAX_NODES = 1 << 20
# threads that build the fields of one table.  Each holds one field with
# its FFT temporaries and interpolation blocks, so the cap is set by peak
# memory, not by speed; the first worker builds the largest fields and the
# others the smallest, so the peak is the largest field beside a small one.
# It is not configurable and never reaches a manifest
FIELD_WORKERS = min(2, len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)


def _runs(ids: np.ndarray):
    """(start, end) of each run of equal values in the sorted 1-D array."""
    if not len(ids):
        return zip((), ())
    change = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    bounds = [0] + change.tolist() + [len(ids)]
    return zip(bounds[:-1], bounds[1:])


def _row_chunks(start: int, stop: int, n_nodes: int):
    """Slices covering rows start..stop-1, each of at most
    PAIRING_MAX_NODES // n_nodes rows (at least one)."""
    step = max(1, PAIRING_MAX_NODES // n_nodes)
    return (slice(a, min(a + step, stop)) for a in range(start, stop, step))


def pairing_keys(grid: DyadicGrid, pairs: CubePairs) -> np.ndarray:
    """Rows (coarse k, transpose, fine k, delta) of the pairs (I, J).

    The finer cube is I on ties; transpose is 1 when it is, since T^t then
    acts on the coarser psi_J.  delta is the lattice offset of the fine
    cube's corner from the coarse one's, in integer units.  Convolution
    kernels make <psi_J, T psi_I> a function of the row alone, whatever
    the grid.
    """
    k_i, k_j = pairs.I_k, pairs.J_k
    lo_i, _ = grid.boxes(k_i, pairs.I_l)
    lo_j, _ = grid.boxes(k_j, pairs.J_l)
    i_fine = k_i >= k_j
    return np.stack([np.where(i_fine, k_j, k_i), i_fine,
                     np.where(i_fine, k_i, k_j),
                     np.where(i_fine, lo_i - lo_j, lo_j - lo_i)], axis=1)


@dataclass(frozen=True)
class _KeyPacking:
    """One int64 per key row (see pairing_keys), ordered as the rows are
    by np.unique(axis=0): block * R + rank.

    block = ((coarse k - k0) * 2 + transpose) * nk + (fine k - k0) numbers
    the (coarse k, transpose, fine k) of a row, where k0 is the least
    generation of the packed rows and nk the number of generations from k0
    to the greatest; rank is the position of the row's offset among the R
    distinct offsets of the rows.  The packed values stay below
    2 nk^2 R however far the offsets spread: bit fields on the offsets
    would need more than 64 bits on the deepest windows a config accepts.
    """

    k0: int
    nk: int
    offsets: np.ndarray  # the distinct offsets, sorted

    @classmethod
    def of(cls, keys: np.ndarray) -> "_KeyPacking":
        if not len(keys):
            return cls(0, 1, np.empty(0, dtype=np.int64))
        gens = keys[:, [0, 2]]
        k0 = int(gens.min())
        return cls(k0, int(gens.max()) - k0 + 1, np.unique(keys[:, 3]))

    def pack(self, keys: np.ndarray) -> np.ndarray:
        """The packed rows; a row whose offset or generations lie outside
        the packing's may collide with another row."""
        blocks = (((keys[:, 0] - self.k0) * 2 + keys[:, 1]) * self.nk
                  + (keys[:, 2] - self.k0))
        return (blocks * self.offsets.size
                + np.searchsorted(self.offsets, keys[:, 3]))


def distinct_keys(keys: np.ndarray) -> np.ndarray:
    """The distinct rows of a key array, in np.unique(axis=0) order."""
    _, first = np.unique(_KeyPacking.of(keys).pack(keys), return_index=True)
    return keys[first]


@dataclass(frozen=True)
class _FieldMesh:
    """Where a field is built: the periodized mesh x0 + (n+1/2) h, n < size,
    with the samples vw at the nodes xw (a wavelet's relative to its cube's
    left endpoint) from mesh point n_left on, and the first stop points as
    the interior that is read."""

    transpose: bool
    xw: np.ndarray
    vw: np.ndarray
    h: float
    size: int
    n_left: int
    x0: float
    stop: int


def _field_mesh(system: WaveletSystem, q_loc: int, pad_factor: int, k: int,
                hull: tuple[float, float], transpose: bool) -> _FieldMesh:
    """The mesh of the scale-k field whose interior covers both the
    wavelet's support and the hull; raises ScaleRangeError, before
    sizing it, for a mesh of more than FIELD_MAX_POINTS points."""
    t, vw, h = system.scaled_nodes(q_loc + FIELD_OVERSAMPLE_EXP, k)
    xw = t * 2.0 ** (-k)
    supp_len = xw[-1] - xw[0] + h
    core_lo = min(hull[0], xw[0]) - supp_len
    core_hi = max(hull[1], xw[-1]) + supp_len
    P_target = (core_hi - core_lo) + pad_factor * supp_len
    points = P_target / h
    if not points <= FIELD_MAX_POINTS:
        raise ScaleRangeError(
            f"pairing field of generation {k} needs {points:.3g} mesh "
            f"points, more than FIELD_MAX_POINTS = {FIELD_MAX_POINTS}")
    N = next_fast_len(int(math.ceil(points)))
    # keep the wavelet samples on-mesh: buffer start a whole number of
    # steps left of the first sample, at or left of core_lo
    n_left = int(math.ceil((xw[0] - core_lo) / h))
    x0 = xw[0] - (n_left + 0.5) * h
    stop = min(N, int(math.ceil((core_hi - x0) / h)) + 1)
    return _FieldMesh(transpose, xw, vw, h, N, n_left, x0, stop)


def _field_values(op: KernelOp, mesh: _FieldMesh):
    """(u, values) of T (or T^t) of the mesh's samples over its interior.
    Calls only numpy and private helpers, so field workers may run it."""
    buf = np.zeros(mesh.size)
    buf[mesh.n_left:mesh.n_left + mesh.vw.size] = mesh.vw
    mu = _moments(mesh.vw, mesh.xw, mesh.h) if op.tail_order == 1 else None
    return _periodic_apply(op, buf, mesh.h, mesh.x0, mu, mesh.transpose,
                           mesh.stop)


def _fill_rows(values: np.ndarray, du: np.ndarray, row_blocks, image):
    """Write into values the pairing of each block of rows, given with
    the fine nodes (relative nodes, wavelet values, spacing) it reads;
    image(u) is T psi (or the coarser psi itself) at the offset nodes u."""
    for rows, (uf, vf, hf) in row_blocks:
        u = uf[None, :] + du[rows, None]
        vals = image(u)
        del u  # at most two node blocks alive at a time
        vals *= vf
        values[rows] = np.sum(vals, axis=1) * hf


def _field_task(op: KernelOp, mesh: _FieldMesh, row_blocks,
                values: np.ndarray, du: np.ndarray) -> None:
    """Build one field and fill its rows; the field dies with the task."""
    mesh_u, fld = _field_values(op, mesh)
    _fill_rows(values, du, row_blocks, lambda u: np.interp(u, mesh_u, fld))


@dataclass(eq=False)
class PairingTable:
    """Pairings of every distinct row of a key array (see pairing_keys);
    PairingTable.build evaluates them.

    For each row the quadrature runs over the finer wavelet's midpoint
    nodes, in coordinates relative to the coarser cube.  A singular
    operator (or its transpose) is applied to the coarser wavelet on a
    local oversampled mesh at that wavelet's scale, and the field is
    linearly interpolated there; for the identity the coarser wavelet is
    sampled itself.  One field serves each (coarse k, transpose), over the
    hull of the fine supports of all its rows, and one interpolation each
    block of rows that share a field and a fine generation.  A field's
    values depend on its hull through the periodization residual, so the
    table's values depend on its set of rows: each experiment builds one
    table from the keys of all its pairs, over all its grids.

    Rows are sorted, deduplicated and looked up as one int64 each (see
    _KeyPacking), packed once per table.

    build does everything that reads the wavelet system on the calling
    thread, refusing a mesh over FIELD_MAX_POINTS before any is allocated.
    Up to FIELD_WORKERS threads then build the fields from the two ends of
    one list sorted by mesh size, the first worker taking the largest mesh
    left and any other the smallest, each task filling its field's rows of
    values; workers call only numpy and private helpers of this module, so
    a tracer that wraps the public functions sees one thread.  Every row is
    computed by the same operations whichever thread runs it, so the
    values are those of a serial build, bit for bit.
    """

    keys: np.ndarray    # the distinct rows, in np.unique(axis=0) order
    values: np.ndarray  # the pairing of each row
    counts: dict        # distinct keys evaluated and fields built
    _packing: _KeyPacking = field(repr=False)
    _packed: np.ndarray = field(repr=False)  # the packed keys, sorted

    @classmethod
    def build(cls, op: KernelOp, system: WaveletSystem, window,
              keys: np.ndarray, q_loc: int = 10,
              pad_factor: int = 8) -> "PairingTable":
        """The table of the distinct rows of keys for op, on the system's
        wavelets; the window sets the integer unit of the offsets."""
        # the distinct rows pack as all rows do: same generations, same
        # offsets
        packing = _KeyPacking.of(keys)
        packed, first = np.unique(packing.pack(keys), return_index=True)
        keys = keys[first]
        blocks = packed // packing.offsets.size
        values = np.empty(len(keys))
        unit = 2.0 ** (-window.unit_exp)
        half = (system.m + 1) / 2.0
        fine_k, du = keys[:, 2], keys[:, 3] * unit
        side_f = np.ldexp(1.0, -fine_k)
        nodes: dict = {}  # fine generation -> (nodes, values, spacing)
        tasks = []  # (field mesh, row blocks) of each singular field
        # runs of (coarse k, transpose), then of fine k within each
        for a, b in _runs(blocks // packing.nk):
            kc = int(keys[a, 0])
            row_blocks = []
            for c, d in _runs(blocks[a:b]):
                k = int(fine_k[a + c])
                if k not in nodes:
                    t, vf, hf = system.scaled_nodes(q_loc, k)
                    nodes[k] = (t * 2.0 ** (-k), vf, hf)
                row_blocks += [(rows, nodes[k]) for rows in
                               _row_chunks(a + c, a + d, nodes[k][0].size)]
            if op.singular:
                hull = (float(np.min(du[a:b] - (half - 1.0) * side_f[a:b])),
                        float(np.max(du[a:b] + half * side_f[a:b])))
                tasks.append((_field_mesh(system, q_loc, pad_factor, kc, hull,
                                          bool(keys[a, 1])), row_blocks))
            else:
                _fill_rows(values, du, row_blocks,
                           lambda u: 2.0 ** (kc / 2.0)
                           * system.mother(u * 2.0 ** kc))
        if tasks:
            # the workers drain one size-sorted deque from opposite ends:
            # the first takes the largest field left, any other the
            # smallest, so the pool's peak is the largest field beside a
            # small one, not the two largest; its pop, popleft and clear
            # are thread-safe.  A failing task empties the deque, so no
            # worker starts another field; its error leaves the with block
            # once the running fields have ended
            tasks.sort(key=lambda task: -task[0].size)
            # imported here: importing the package should not load the pool
            from collections import deque
            from concurrent.futures import ThreadPoolExecutor
            queue = deque(tasks)

            def drain(take):
                while True:
                    try:
                        mesh, row_blocks = take()
                    except IndexError:
                        return
                    try:
                        _field_task(op, mesh, row_blocks, values, du)
                    except BaseException:
                        queue.clear()
                        raise

            workers = min(FIELD_WORKERS, len(tasks))
            with ThreadPoolExecutor(workers) as pool:
                list(pool.map(drain,
                              [queue.popleft] + [queue.pop] * (workers - 1)))
        return cls(keys, values, {"keys": len(keys), "fields": len(tasks)},
                   packing, packed)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Values of the rows of keys; every row must be in the table.

        The query rows are packed and searched as the table's rows are, and
        each hit is compared with the table's row: a row whose offset is
        not among the table's, or whose packed value is not in the table,
        raises KeyError."""
        if not len(keys):
            return self.values[:0]
        pos = np.searchsorted(self._packed, self._packing.pack(keys))
        pos = np.minimum(pos, len(self.keys) - 1)
        if not len(self.keys) or not np.array_equal(self.keys[pos], keys):
            raise KeyError("pairing keys missing from the table")
        return self.values[pos]


class PairingEngine:
    """Pairings <psi_J, T psi_I> of cube pairs of one grid, read from a
    table that holds the keys of the pairs (see pairing_keys).

    The lookup stays behind a class because bench/tracer.py wraps
    pairings(pairs), reads the engine's grid and iterates the pairs."""

    def __init__(self, grid: DyadicGrid, table: PairingTable):
        self.grid = grid
        self.table = table

    def pairings(self, pairs: CubePairs) -> np.ndarray:
        """<psi_J, T psi_I> of the pairs; a pair whose key the table lacks
        raises KeyError."""
        return self.table.lookup(pairing_keys(self.grid, pairs))
