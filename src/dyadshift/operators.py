"""Convolution-type singular integral operators on the line and the pairing
engine that evaluates wavelet-pair matrix entries <psi_J, T psi_I>.

Primary route: FFT multiplier on a zero-padded mesh, with analytic
periodization corrections for kernels with a 1/u tail.  Secondary route (for
cross-validation on pairs with separated supports): direct double quadrature
of the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from .dyadic import Cube, DyadicGrid, cube_arrays
from .wavelets import WaveletSystem


class CrossValidationError(RuntimeError):
    """The two independent pairing routes disagree beyond tolerance."""


@dataclass
class KernelOp:
    """d=1 convolution operator Tf(x) = pv Int k(x-y) f(y) dy.

    multiplier: symbol m(xi) so that (Tf)^(xi) = m(xi) f^(xi), radian
    frequency.  kernel_fn: k(u) away from 0.  kernel_deriv: closed-form
    d^(p+q)/dx^p dy^q of K(x, y) = k(x-y).  tail_order: exponent c such that
    k(u) ~ a / u^c for large u; tail_order == 1 activates the moment-based
    periodization corrections in apply_multiplier.
    """

    name: str
    multiplier: callable
    l2_norm: float
    kernel_fn: callable = None
    kernel_deriv: callable = None
    czs_seminorm: callable = None
    tail_order: int = 0
    singular: bool = True

    def transpose_multiplier(self, xi):
        return self.multiplier(-xi)


def _hilbert_multiplier(xi):
    return -1j * np.sign(xi)


def _hilbert_kernel(u):
    return 1.0 / (math.pi * u)


def _hilbert_deriv(x, y, p: int, q: int):
    n = p + q
    return (-1.0) ** p * math.factorial(n) / (math.pi * (x - y) ** (n + 1))


def _hilbert_czs(s: int) -> float:
    # |d^a_y K| |x-y|^{1+a} = a!/pi, increasing in a
    return math.factorial(s) / math.pi


def _smoothed_multiplier(xi):
    return -1j * np.sign(xi) * (1.0 - np.exp(-np.abs(xi)))


def _smoothed_kernel(u):
    return 1.0 / (math.pi * u * (u * u + 1.0))


def _smoothed_deriv(x, y, p: int, q: int):
    # partial fractions: pi k(u) = 1/u - (1/2)/(u-i) - (1/2)/(u+i)
    u = x - y
    n = p + q
    c = (-1.0) ** p * math.factorial(n) / math.pi
    val = u ** (-(n + 1)) - 0.5 * ((u - 1j) ** (-(n + 1)) + (u + 1j) ** (-(n + 1)))
    return c * float(np.real(val))


def _smoothed_czs(s: int) -> float:
    # sup_u |k^(a)(u)| |u|^(1+a) over a <= s, by dense log-grid search
    best = 0.0
    u = np.concatenate([np.geomspace(1e-6, 1e6, 400_001)])
    for a in range(s + 1):
        c = math.factorial(a) / math.pi
        vals = np.abs(u ** (-(a + 1))
                      - 0.5 * ((u - 1j) ** (-(a + 1)) + (u + 1j) ** (-(a + 1))))
        best = max(best, float(np.max(c * vals * u ** (1 + a))))
    return best


def make_operator(name: str) -> KernelOp:
    if name == "hilbert":
        return KernelOp(name="hilbert", multiplier=_hilbert_multiplier,
                        l2_norm=1.0, kernel_fn=_hilbert_kernel,
                        kernel_deriv=_hilbert_deriv, czs_seminorm=_hilbert_czs,
                        tail_order=1)
    if name == "smoothed_hilbert":
        return KernelOp(name="smoothed_hilbert", multiplier=_smoothed_multiplier,
                        l2_norm=1.0, kernel_fn=_smoothed_kernel,
                        kernel_deriv=_smoothed_deriv, czs_seminorm=_smoothed_czs,
                        tail_order=3)
    if name == "identity":
        return KernelOp(name="identity", multiplier=lambda xi: np.ones_like(xi),
                        l2_norm=1.0, singular=False)
    raise ValueError(f"unknown operator {name!r}")


@dataclass(frozen=True)
class TestFunction:
    """Compactly supported bump c * t^tilt (1 - t^2)^power on |t| < 1,
    t = (x-c)/w.

    power >= 2 gives a C^1 function; the default power 4 is C^3, which keeps
    fine-generation wavelet coefficients decaying fast.  An odd tilt makes
    the function mean zero, which suppresses the coarse-generation wavelet
    coefficients that a finite window cannot classify.
    """

    __test__ = False  # keep test collectors away despite the name

    center: float = 0.0
    halfwidth: float = 1.0
    power: int = 4
    amplitude: float = 1.0
    tilt: int = 0

    def __call__(self, x):
        t = (np.asarray(x, dtype=float) - self.center) / self.halfwidth
        inside = np.abs(t) < 1.0
        out = np.zeros_like(t)
        out[inside] = (self.amplitude * t[inside] ** self.tilt
                       * (1.0 - t[inside] ** 2) ** self.power)
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

    For tail_order == 1 kernels the difference between the line kernel and
    the period-P conjugate kernel,
        1/(pi u) - cot(pi u / P)/P = pi u/(3 P^2) + pi^3 u^3/(45 P^4) + ...,
    is added back through mu, the first four moments of the signal; mu=None
    leaves the periodic result uncorrected.
    """
    N = buf.size
    xi = 2.0 * math.pi * np.fft.rfftfreq(N, d=h)
    m = op.transpose_multiplier(xi) if transpose else op.multiplier(xi)
    out = np.fft.irfft(np.fft.rfft(buf) * m, n=N)[:stop]
    mesh_x = x0 + (np.arange(out.size) + 0.5) * h
    if mu is not None and op.tail_order == 1:
        P = N * h
        sgn = -1.0 if transpose else 1.0
        z = mesh_x
        c1 = math.pi / (3.0 * P * P)
        c3 = math.pi ** 3 / (45.0 * P ** 4)
        # the cubic in Horner form: z ** 3 would cost a pow() per point
        out += sgn * (c1 * (mu[0] * z - mu[1])
                      + c3 * (((mu[0] * z - 3 * mu[1]) * z + 3 * mu[2]) * z
                              - mu[3]))
    return mesh_x, out


def apply_multiplier(op: KernelOp, samples: np.ndarray, h: float, x0: float,
                     pad_factor: int = 8, corrections: bool = True,
                     transpose: bool = False) -> np.ndarray:
    """Apply the operator to midpoint samples on the mesh x0 + (n+1/2)h.

    The signal is zero-padded to pad_factor times its length before the FFT;
    corrections adds back the periodization error of tail_order == 1
    kernels.
    """
    n = samples.size
    buf = np.zeros(next_fast_len(pad_factor * n))
    buf[:n] = samples
    mu = None
    if corrections and op.tail_order == 1:
        mu = _moments(samples, x0 + (np.arange(n) + 0.5) * h, h)
    return _periodic_apply(op, buf, h, x0, mu, transpose, n)[1]


def operator_norm_estimate(op: KernelOp, n: int = 4096, h: float = 1.0 / 256,
                           iters: int = 30, seed: int = 0) -> float:
    """Power iteration for the discrete l2 -> l2 norm on a sample mesh."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(iters):
        y = apply_multiplier(op, x, h, 0.0, pad_factor=4, corrections=False)
        y = apply_multiplier(op, y, h, 0.0, pad_factor=4, corrections=False,
                             transpose=True)
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            return 0.0
        x = y / nrm
        est = math.sqrt(nrm)
    return est


# ---------------------------------------------------------------------------
# pairing engine


def _cube_offset(grid: DyadicGrid, cube: Cube) -> float:
    """Left corner of the shifted cube in units of its own sidelength."""
    return (cube.l[0]
            + grid.shift_units(cube.k)[0] / grid.window.len_units(cube.k))


def wavelet_nodes(grid: DyadicGrid, system: WaveletSystem, cube: Cube,
                  q_loc: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Midpoint nodes over supp psi_I at spacing len(I) 2^-q_loc, with the
    wavelet values there.  Returns (x, values, node spacing)."""
    t, vals, h = system.scaled_nodes(q_loc, cube.k)
    return (t + _cube_offset(grid, cube)) * 2.0 ** (-cube.k), vals, h


def sample_wavelet(grid: DyadicGrid, system: WaveletSystem, cube: Cube,
                   x: np.ndarray) -> np.ndarray:
    """psi_I at absolute points x: 2^(k/2) psi(2^k x - l - shift/len(I))."""
    t = x * 2.0 ** cube.k - _cube_offset(grid, cube)
    return 2.0 ** (cube.k / 2.0) * system.mother(t, "psi")


def pair_quadrature(op: KernelOp, grid: DyadicGrid, system: WaveletSystem,
                    fine: Cube, coarse: Cube, q_loc: int) -> float:
    """Double-quadrature route for <psi_J, T psi_I> = Int psi_J(x) k(x-y)
    psi_I(y).  Requires separated supports (fine=I, coarse=J in either order
    of generations; arguments are positional: value integrates T psi(fine)
    against psi(coarse))."""
    xi, vi, hi = wavelet_nodes(grid, system, fine, q_loc)
    xj, vj, hj = wavelet_nodes(grid, system, coarse, q_loc)
    if op.kernel_fn is None:
        raise ValueError(f"operator {op.name!r} has no kernel for quadrature")
    gap = max(xi[0] - xj[-1], xj[0] - xi[-1])
    if op.singular and gap <= 0.0:
        raise ValueError("double quadrature needs separated supports")
    # row-chunked so the kernel matrix never exceeds ~32 MB
    chunk = max(1, (1 << 22) // max(xi.size, 1))
    acc = 0.0
    for a in range(0, xj.size, chunk):
        K = op.kernel_fn(xj[a:a + chunk, None] - xi[None, :])
        acc += float(vj[a:a + chunk] @ K @ vi)
    return acc * hi * hj


def support_intervals(grid: DyadicGrid, system: WaveletSystem,
                      k: np.ndarray, l: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the m-dilates of many one-dimensional cubes, given as
    int64 arrays of generations and indices, in absolute coordinates."""
    lo, hi = grid.boxes(k, l)
    grow = (system.m - 1) * (hi - lo) // 2
    unit = 2.0 ** (-grid.window.unit_exp)
    return (lo - grow).astype(float) * unit, (hi + grow).astype(float) * unit


def support_interval(grid: DyadicGrid, system: WaveletSystem, cube: Cube,
                     ) -> tuple[float, float]:
    lo, hi = support_intervals(grid, system, *cube_arrays([cube]))
    return float(lo[0]), float(hi[0])


# the field mesh is 2^2 times finer than the quadrature nodes, which keeps
# the interpolation error a couple of orders below the quadrature error
FIELD_OVERSAMPLE_EXP = 2
# most nodes one lookup block hands to np.interp; larger blocks go in row
# chunks, which bounds the temporaries at a few times 8 MB
PAIRING_MAX_NODES = 1 << 20


def _runs(keys: np.ndarray):
    """(start, end) of each run of equal rows in the sorted 2-D array."""
    if not len(keys):
        return zip((), ())
    change = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
    bounds = [0] + change.tolist() + [len(keys)]
    return zip(bounds[:-1], bounds[1:])


def _row_chunks(start: int, stop: int, n_nodes: int):
    """Slices covering rows start..stop-1, each of at most
    PAIRING_MAX_NODES // n_nodes rows (at least one)."""
    step = max(1, PAIRING_MAX_NODES // n_nodes)
    return (slice(a, min(a + step, stop)) for a in range(start, stop, step))


def pairing_keys(grid: DyadicGrid, k_i: np.ndarray, l_i: np.ndarray,
                 k_j: np.ndarray, l_j: np.ndarray) -> np.ndarray:
    """Rows (coarse k, transpose, fine k, delta) of the pairs (I, J) given
    as int64 arrays of generations and indices.

    The finer cube is I on ties; transpose is 1 when it is, since T^t then
    acts on the coarser psi_J.  delta is the lattice offset of the fine
    cube's corner from the coarse one's, in integer units.  Convolution
    kernels make <psi_J, T psi_I> a function of the row alone, whatever
    the grid.
    """
    lo_i, _ = grid.boxes(k_i, l_i)
    lo_j, _ = grid.boxes(k_j, l_j)
    i_fine = k_i >= k_j
    return np.stack([np.where(i_fine, k_j, k_i), i_fine,
                     np.where(i_fine, k_i, k_j),
                     np.where(i_fine, lo_i - lo_j, lo_j - lo_i)], axis=1)


def _records(keys: np.ndarray) -> np.ndarray:
    """The rows of an int64 key array as one structured scalar each, which
    compare in the row order of np.unique(axis=0)."""
    dtype = np.dtype([(f"f{c}", np.int64) for c in range(keys.shape[1])])
    return np.ascontiguousarray(keys, dtype=np.int64).view(dtype).ravel()


def _field(op: KernelOp, system: WaveletSystem, q_loc: int, pad_factor: int,
           k: int, hull: tuple[float, float], transpose: bool):
    """(u, values) of T psi (or T^t psi) for the scale-k wavelet, in
    coordinates relative to its cube's left endpoint, on a periodized mesh
    whose interior covers both the support and the hull; only the interior
    is returned.  The operators are convolutions, so one field serves every
    scale-k cube."""
    t, vw, h = system.scaled_nodes(q_loc + FIELD_OVERSAMPLE_EXP, k)
    xw = t * 2.0 ** (-k)
    supp_len = xw[-1] - xw[0] + h
    core_lo = min(hull[0], xw[0]) - supp_len
    core_hi = max(hull[1], xw[-1]) + supp_len
    P_target = (core_hi - core_lo) + pad_factor * supp_len
    N = next_fast_len(int(math.ceil(P_target / h)))
    # keep the wavelet samples on-mesh: buffer start a whole number of
    # steps left of the first sample, at or left of core_lo
    n_left = int(math.ceil((xw[0] - core_lo) / h))
    x0 = xw[0] - (n_left + 0.5) * h  # mesh is x0 + (n+1/2) h
    buf = np.zeros(N)
    buf[n_left:n_left + vw.size] = vw
    stop = min(N, int(math.ceil((core_hi - x0) / h)) + 1)
    return _periodic_apply(op, buf, h, x0, _moments(vw, xw, h), transpose,
                           stop)


@dataclass(eq=False)
class PairingTable:
    """Multiplier-route pairings of every distinct row of a key array
    (see pairing_keys); PairingTable.build evaluates them.

    For each row the operator (or its transpose) is applied to the coarser
    wavelet on a local oversampled mesh at that wavelet's scale, and the
    quadrature runs over the finer wavelet's midpoint nodes with the field
    linearly interpolated.  One field serves each (coarse k, transpose),
    over the hull of the fine supports of all its rows, and one
    interpolation each block of rows that share a field and a fine
    generation.  A field's values depend on its hull through the
    periodization residual, so the table's values depend on its set of
    rows: a run over many grids builds one table from the keys of all of
    them, and a lone PairingEngine one per pairings call.
    """

    keys: np.ndarray    # the distinct rows, in np.unique(axis=0) order
    values: np.ndarray  # the pairing of each row
    counts: dict        # distinct keys evaluated and fields built

    @classmethod
    def build(cls, op: KernelOp, system: WaveletSystem, window,
              keys: np.ndarray, q_loc: int = 10,
              pad_factor: int = 8) -> "PairingTable":
        """The table of the distinct rows of keys for op, on the system's
        wavelets; the window sets the integer unit of the offsets."""
        if not op.singular:
            raise ValueError("pairing tables serve singular operators only")
        keys = np.unique(keys, axis=0)
        values = np.empty(len(keys))
        fields = 0
        unit = 2.0 ** (-window.unit_exp)
        half = (system.m + 1) / 2.0
        fine_k, du = keys[:, 2], keys[:, 3] * unit
        side_f = np.ldexp(1.0, -fine_k)
        nodes: dict = {}  # fine generation -> (nodes, values, spacing)
        for a, b in _runs(keys[:, :2]):
            hull = (float(np.min(du[a:b] - (half - 1.0) * side_f[a:b])),
                    float(np.max(du[a:b] + half * side_f[a:b])))
            mesh_u, fld = _field(op, system, q_loc, pad_factor,
                                 int(keys[a, 0]), hull, bool(keys[a, 1]))
            fields += 1
            for c, d in _runs(keys[a:b, 2:3]):
                k = int(fine_k[a + c])
                if k not in nodes:
                    t, vf, hf = system.scaled_nodes(q_loc, k)
                    nodes[k] = (t * 2.0 ** (-k), vf, hf)
                uf, vf, hf = nodes[k]
                for rows in _row_chunks(a + c, a + d, uf.size):
                    vals = np.interp(uf[None, :] + du[rows, None], mesh_u, fld)
                    values[rows] = np.sum(vf * vals, axis=1) * hf
        return cls(keys, values, {"keys": len(keys), "fields": fields})

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Values of the rows of keys; every row must be in the table."""
        table = _records(self.keys)
        query = _records(keys)
        pos = np.minimum(np.searchsorted(table, query), len(table) - 1)
        if query.size and (table.size == 0
                           or np.any(table[pos] != query)):
            raise KeyError("pairing keys missing from the table")
        return self.values[pos]


class PairingEngine:
    """Pairings <psi_J, T psi_I> of cube pairs of one grid.

    The pairs are handled as int64 arrays of generations and lattice
    offsets.  For singular operators the values come from a PairingTable:
    the run's shared table when one is given, otherwise one built from the
    keys of each pairings call.  The identity calibration samples both
    wavelets at absolute points, one distinct key at a time.

    counts accumulates over calls: the pairs given, and the distinct keys
    evaluated and fields built by the engine's own tables (none when it
    reads a shared one).
    """

    def __init__(self, op: KernelOp, grid: DyadicGrid, system: WaveletSystem,
                 q_loc: int = 10, pad_factor: int = 8,
                 table: PairingTable | None = None):
        self.op = op
        self.grid = grid
        self.system = system
        self.q_loc = q_loc
        self.pad_factor = pad_factor
        self.table = table
        self.counts = {"pairs": 0, "keys": 0, "fields": 0}

    def pairings(self, pairs) -> np.ndarray:
        """pairs: sequence of (I, J) cubes; returns <psi_J, T psi_I>.

        Convolution kernels make pairings invariant under joint translation,
        so values are computed once per distinct (coarse scale, transpose,
        fine scale, offset of the fine cube from the coarse one in lattice
        units) and the multiplier field once per (coarse scale, transpose),
        in cube-relative coordinates.
        """
        n = len(pairs)
        self.counts["pairs"] += n
        if n == 0:
            return np.empty(0)
        keys = pairing_keys(self.grid, *cube_arrays([I for I, _ in pairs]),
                            *cube_arrays([J for _, J in pairs]))
        if self.op.singular:
            table = self.table
            if table is None:
                table = PairingTable.build(self.op, self.system,
                                           self.grid.window, keys, self.q_loc,
                                           self.pad_factor)
                self.counts["keys"] += table.counts["keys"]
                self.counts["fields"] += table.counts["fields"]
            return table.lookup(keys)
        # the identity route samples both wavelets at absolute points, so
        # each distinct (fine k, coarse k, delta) takes the cubes of its
        # first pair
        distinct, first, inverse = np.unique(
            keys[:, [2, 0, 3]], axis=0, return_index=True,
            return_inverse=True)
        values = np.empty(len(distinct))
        for row, idx in enumerate(first.tolist()):
            I, J = pairs[idx]
            values[row] = (self._plain_inner(I, J) if keys[idx, 1]
                           else self._plain_inner(J, I))
        self.counts["keys"] += len(distinct)
        return values[inverse]

    def _plain_inner(self, fine: Cube, coarse: Cube) -> float:
        """<psi_J, psi_I> on the finer cube's nodes (identity calibration)."""
        x, vf, h = wavelet_nodes(self.grid, self.system, fine, self.q_loc)
        vc = sample_wavelet(self.grid, self.system, coarse, x)
        return float(np.sum(vf * vc) * h)

    def pairing(self, I: Cube, J: Cube) -> float:
        return float(self.pairings([(I, J)])[0])
