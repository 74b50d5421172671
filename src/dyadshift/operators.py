"""Convolution-type singular integral operators on the line and the pairing
engine that evaluates wavelet-pair matrix entries <psi_J, T psi_I>.

Every singular operator is evaluated through its symbol: an FFT multiplier
on a zero-padded mesh, with analytic periodization corrections for kernels
with a 1/u tail.  The identity's pairings are exact: the wavelets of every
grid are orthonormal, so its table is the Kronecker delta.
A singular kernel is real and odd, so its symbol is odd and imaginary,
-i sgn(xi) r(|xi|) with a real radial factor r: a field scales the
spectrum by r, multiplies it in place by -i and zeroes its zero-frequency
bin, with no frequency array unless r is not 1.
"""

from __future__ import annotations

import math
from collections import deque
from threading import Thread
from typing import NamedTuple

import numpy as np
from numpy.fft import irfft, rfft, rfftfreq

from .dyadic import (CubePairs, DyadicGrid, ScaleRangeError, dilate,
                     distinct)
from .wavelets import WaveletSystem


class KernelOp(NamedTuple):
    """Convolution operator Tf(x) = pv Int k(x-y) f(y) dy on the line.

    A singular operator has a real odd kernel, and its symbol, in radian
    frequency, is stored in one form: m(xi) = -i sgn(xi) r(|xi|), with
    radial the real factor r (None for r = 1, the Hilbert transform, whose
    kernel 1/(pi u) is the one with a 1/u tail); the transpose T^t has
    symbol m(-xi) = -m(xi), so T^t = -T; (Tf)^(xi) = m(xi) f^(xi).  The
    identity's symbol is 1.  czs_seminorm: the Calderon-Zygmund constant
    of order s.
    An operator is singular when it has a seminorm; the identity has none.
    """

    name: str
    radial: callable = None
    czs_seminorm: callable = None

    @property
    def singular(self) -> bool:
        return self.czs_seminorm is not None


def _hilbert_czs(s: int) -> float:
    # |d^a_y K| |x-y|^{1+a} = a!/pi, increasing in a
    return math.factorial(s) / math.pi


def _smoothed_radial(a):
    return 1.0 - np.exp(-a)


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
        return KernelOp(name="hilbert", czs_seminorm=_hilbert_czs)
    if name == "smoothed_hilbert":
        return KernelOp(name="smoothed_hilbert", radial=_smoothed_radial,
                        czs_seminorm=_smoothed_czs)
    if name == "identity":
        return KernelOp(name="identity")
    raise ValueError(f"unknown operator {name!r}")


class TestFunction(NamedTuple):
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


def _next_fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c 7^d 11^e >= n (1 for n <= 1).  pocketfft, in
    numpy as in scipy, has a fast pass for each of these radices, and these
    are the sizes scipy.fft.next_fast_len gives for complex transforms.
    For each odd 11-smooth part below the best size so far, the least power
    of two that lifts it to n completes a candidate."""
    best = 1 << max(n - 1, 0).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    best = min(best, p3 << (-(-n // p3) - 1).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def _periodic_apply(op: KernelOp, mesh: _FieldMesh,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(u, values) of T applied to the mesh's samples, zero-padded to
    mesh.size points on the periodic mesh x0 + (n+1/2)h, over the first
    mesh.stop points: the interior a caller reads, not the padding (the
    pairing table negates it for T^t = -T).  Calls only numpy, so the field
    helper may run it.  Only ground_truth builds an identity field: the
    pairing table reads the identity's pairings exactly.

    The contract is a real kernel: its symbol is Hermitian,
    m(-xi) = conj(m(xi)), so T maps the real samples to a real signal and a
    real FFT carries the whole product (irfft keeps the real part of the
    zero-frequency and Nyquist bins).  A singular kernel is also odd, its
    symbol -i sgn(xi) r(|xi|) (see KernelOp): the spectrum, at the
    nonnegative frequencies only, is scaled by r when the kernel has a
    radial factor, turned by -i and its zero-frequency bin zeroed, all in
    place; the identity's spectrum is left as it is.  rfft zero-pads the
    samples to N points itself.

    For the Hilbert symbol (singular, no radial factor), whose kernel
    1/(pi u) is the only one with a 1/u tail, the difference between the
    line kernel and the period-P conjugate kernel,
        1/(pi u) - cot(pi u / P)/P = pi u/(3 P^2) + pi^3 u^3/(45 P^4) + ...,
    is added back from mu, the first four moments Int x^a f of the
    samples; no other field takes moments.
    """
    N, h = mesh.size, mesh.h
    # in place where the order of operations allows, and each temporary
    # dropped as soon as it is spent: two fields may be built at once
    buf = np.zeros(mesh.n_left + mesh.vw.size)
    buf[mesh.n_left:] = mesh.vw
    X = rfft(buf, n=N)
    del buf
    if op.singular:
        if op.radial is not None:
            xi = rfftfreq(N, d=h)
            xi *= 2.0 * math.pi
            X *= op.radial(xi)
            del xi
        X *= -1j
        X[0] = 0.0  # sgn(0) = 0
    out = irfft(X, n=N)
    del X
    # a copy, not a view: the padding is freed while the field is read
    out = out[:mesh.stop].copy()
    mesh_x = np.arange(out.size, dtype=float)
    tail = op.singular and op.radial is None
    if tail:
        mu = [np.sum(mesh.vw * mesh.xw ** a) * h for a in range(4)]
        P = N * h
        c1 = math.pi / (3.0 * P * P)
        c3 = math.pi ** 3 / (45.0 * P ** 4)
    # the mesh and the tail correction in place, block by block: each
    # block's temporaries stay in cache, and the field and its mesh are
    # the only arrays of the interior's size
    block = 1 << 13
    for a in range(0, out.size, block):
        z = mesh_x[a:a + block]
        z += 0.5
        z *= h
        z += mesh.x0
        if tail:
            # out += c1 * (mu[0] * z - mu[1])
            #        + c3 * (((mu[0] * z - 3 * mu[1]) * z + 3 * mu[2]) * z
            #                - mu[3])
            # step by step in place: the cubic in Horner form, since
            # z ** 3 would cost a pow() per point
            lin = mu[0] * z
            cub = lin - 3 * mu[1]
            lin -= mu[1]
            lin *= c1
            cub *= z
            cub += 3 * mu[2]
            cub *= z
            cub -= mu[3]
            cub *= c3
            lin += cub
            out[a:a + block] += lin
    return mesh_x, out


# ---------------------------------------------------------------------------
# pairing engine


def sample_wavelets(grid: DyadicGrid, system: WaveletSystem, k: int,
                    l: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The wavelets of the generation-k cubes with int64 indices l, each at
    its row of the absolute points x: 2^(k/2) psi(2^k x - l - shift/len)."""
    offset = grid.boxes(k, l)[0] * 2.0 ** (k - grid.window.unit_exp)
    t = x * 2.0 ** k - offset[:, None]
    return 2.0 ** (k / 2.0) * system.mother(t, "psi")


def support_intervals(grid: DyadicGrid, system: WaveletSystem,
                      k: np.ndarray, l: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the m-dilates of many one-dimensional cubes, given as
    int64 arrays of generations and indices, in absolute coordinates."""
    lo, hi = dilate(*grid.boxes(k, l), system.m)
    unit = 2.0 ** (-grid.window.unit_exp)
    return lo.astype(float) * unit, hi.astype(float) * unit


# the field mesh is 2^2 times finer than the quadrature nodes, which keeps
# the interpolation error a couple of orders below the quadrature error
FIELD_OVERSAMPLE_EXP = 2
# most mesh points of one field.  A field of N points peaks at 16.0 N
# traced bytes for hilbert and 20.0 N for smoothed_hilbert, whatever its
# hull, measured with tracemalloc: the spectrum beside the inverse's
# output, or beside the frequencies and the radial factor's temporaries.
# The interior copy (at most 8 N bytes) and then its mesh stay within
# that, since the tail correction works in blocks.  pocketfft's own
# scratch is not traced: each transform holds about 16 N more (even
# rfft(b, out=X) raises ru_maxrss by 2 x 8 N bytes), so a field peaks at
# about 32 N resident bytes, and the bound allows about 2 GiB per field
# and 4 GiB with two fields in flight.  That is about 47 times the largest
# field of the tests and README configs (1.4 M points, at q_loc = 12); a
# hull on a deep window can ask for more than 2^63 points, which no FFT
# length holds.
FIELD_MAX_POINTS = 1 << 26
# most nodes one block of rows evaluates at once, a lookup block handed to
# np.interp or a block of harness.localized_coefficients; larger blocks go
# in row chunks (_row_chunks), which bounds the temporaries at a few times
# 8 MB per field thread
PAIRING_MAX_NODES = 1 << 20


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


class _KeyPacking(NamedTuple):
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
        return cls(k0, int(gens.max()) - k0 + 1, distinct(keys[:, 3]))

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


class _FieldMesh(NamedTuple):
    """Where a field is built: the periodized mesh x0 + (n+1/2) h, n < size,
    with the samples vw at the nodes xw (a wavelet's relative to its cube's
    corner, the truth's to its mesh's left end) from mesh point n_left on,
    and the first stop points as the interior read; a field is T's."""

    xw: np.ndarray
    vw: np.ndarray
    h: float
    size: int
    n_left: int
    x0: float
    stop: int


def _field_mesh(system: WaveletSystem, q_loc: int, pad_factor: int, k: int,
                hull: tuple[float, float]) -> _FieldMesh:
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
    N = _next_fast_len(int(math.ceil(points)))
    # keep the wavelet samples on-mesh: buffer start a whole number of
    # steps left of the first sample, at or left of core_lo
    n_left = int(math.ceil((xw[0] - core_lo) / h))
    x0 = xw[0] - (n_left + 0.5) * h
    stop = min(N, int(math.ceil((core_hi - x0) / h)) + 1)
    return _FieldMesh(xw, vw, h, N, n_left, x0, stop)


def _field_task(op: KernelOp, mesh: _FieldMesh, row_blocks,
                values: np.ndarray, du: np.ndarray) -> None:
    """Build one field and write into values the pairing of each block of
    rows, given with the fine nodes (relative nodes, wavelet values,
    spacing) it reads at the offsets du; the field dies with the task."""
    mesh_u, fld = _periodic_apply(op, mesh)
    for rows, (uf, vf, hf) in row_blocks:
        u = uf[None, :] + du[rows, None]
        vals = np.interp(u, mesh_u, fld)
        del u  # at most two node blocks alive at a time
        vals *= vf
        values[rows] = np.sum(vals, axis=1) * hf


class PairingTable:
    """Pairings of every distinct row of a key array (see pairing_keys);
    PairingTable.build evaluates them.

    The identity's table is exact: the wavelets are orthonormal, and each
    generation's shift differs from the next finer one's by a whole finer
    side, so the shifted spaces stay nested and <psi_J, psi_I> is 1 for
    I = J (coarse k = fine k, delta 0) and 0 for every other row.

    For a singular operator each row's quadrature runs over the finer
    wavelet's midpoint nodes, in coordinates relative to the coarser cube.
    The operator is applied to the coarser wavelet on a local oversampled
    mesh at that wavelet's scale, and the field is linearly interpolated
    there.  One field serves each (coarse k, transpose), over the hull of
    the fine supports of all its rows, and one interpolation each block of
    rows that share a field and a fine generation.  Every field is T's:
    the kernel is odd, T^t = -T, so once the fields are built the rows
    with transpose 1 are negated.  Negation passes exactly through the
    FFTs, the interpolation and the quadrature sum, so these are the bits
    a T^t field on the same mesh gives, but for the sign of an exact zero
    (a sum that cancels is +0.0 in either orientation).  A field's values depend on its hull
    through the periodization residual, so the table's values depend on
    its set of rows: each experiment builds one table from the keys of all
    its pairs, over all its grids.

    Rows are sorted, deduplicated and looked up as one int64 each (see
    _KeyPacking), packed once per table.

    build does everything that reads the wavelet system on the calling
    thread, refusing a mesh over FIELD_MAX_POINTS before any is allocated.
    A table with a field then starts one helper thread, which builds
    fields from one list sorted by mesh size, taking the largest mesh
    left.  The calling thread meanwhile does its caller's independent work
    (the meanwhile callable: a run's coefficients and ground truth), then
    builds fields from the small end of the list, then joins the helper.
    Each thread holds one field with its temporaries, so the peak is the
    largest field beside a small one, or beside the caller's work.  Each
    field task fills its field's rows of values.  The helper calls only
    numpy and private helpers of this module, so a tracer that wraps the
    public functions sees one thread.  Every row is computed by the same
    operations whichever thread runs it, so the values are those of a
    serial build, bit for bit.
    """

    __slots__ = ("keys", "values", "counts", "_packing", "_packed")

    def __init__(self, keys: np.ndarray, values: np.ndarray, counts: dict,
                 packing: _KeyPacking, packed: np.ndarray):
        self.keys = keys        # the distinct rows, in np.unique(axis=0) order
        self.values = values    # the pairing of each row
        self.counts = counts    # distinct keys evaluated and fields built
        self._packing = packing
        self._packed = packed   # the packed keys, sorted

    @classmethod
    def build(cls, op: KernelOp, system: WaveletSystem, window,
              keys: np.ndarray, q_loc: int, pad_factor: int = 8,
              meanwhile=None) -> "PairingTable":
        """The table of the distinct rows of keys for op, on the system's
        wavelets; the window sets the integer unit of the offsets.  The
        calling thread runs meanwhile(), if given, exactly once while the
        helper builds fields."""
        # the distinct rows pack as all rows do: same generations, same
        # offsets
        packing = _KeyPacking.of(keys)
        packed, first = np.unique(packing.pack(keys), return_index=True)
        keys = keys[first]
        if not op.singular:  # the identity: orthonormal wavelets
            if meanwhile is not None:
                meanwhile()
            values = ((keys[:, 0] == keys[:, 2])
                      & (keys[:, 3] == 0)).astype(float)
            return cls(keys, values, {"keys": len(keys), "fields": 0},
                       packing, packed)
        blocks = packed // packing.offsets.size
        values = np.empty(len(keys))
        unit = 2.0 ** (-window.unit_exp)
        fine_k, du = keys[:, 2], keys[:, 3] * unit
        nodes: dict = {}  # fine generation -> (nodes, values, spacing)
        tasks = []  # (field mesh, row blocks) of each field
        # runs of (coarse k, transpose), then of fine k within each; each
        # run's hull sets its field's mesh, and its field is T's
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
            # the hull of the rows' fine m-dilates, in integer units from
            # the coarse cube's corner
            delta = keys[a:b, 3]
            lo, hi = dilate(delta, delta + window.sides(fine_k[a:b]),
                            system.m)
            hull = (float(lo.min()) * unit, float(hi.max()) * unit)
            tasks.append((_field_mesh(system, q_loc, pad_factor, kc, hull),
                          row_blocks))
        # the threads drain one size-sorted deque from opposite ends: the
        # helper takes the largest field left and the calling thread, once
        # meanwhile has returned, the smallest, so the peak is the largest
        # field beside a small one, not the two largest; pop, popleft and
        # clear are thread-safe.  A failing field or meanwhile empties the
        # deque, so no thread starts another field; the error is raised
        # once the running fields have ended
        tasks.sort(key=lambda task: -task[0].size)
        queue = deque(tasks)
        failed = []  # the error of a failing helper

        def drain(take):
            while True:
                try:
                    mesh, row_blocks = take()
                except IndexError:
                    return
                _field_task(op, mesh, row_blocks, values, du)

        def helper():
            try:
                drain(queue.popleft)
            except BaseException as exc:
                queue.clear()
                failed.append(exc)

        thread = None  # the one helper, once a field needs it
        if tasks:
            thread = Thread(target=helper)
            thread.start()
        try:
            if meanwhile is not None:
                meanwhile()
            drain(queue.pop)
        except BaseException:
            queue.clear()
            raise
        finally:
            if thread is not None:
                thread.join()
        if failed:
            raise failed[0]
        np.negative(values, out=values, where=keys[:, 1] == 1)  # T^t = -T
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
