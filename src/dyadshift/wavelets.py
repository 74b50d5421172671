"""Compactly supported wavelet systems built from the two-scale relation.

A system is characterized by the triple (m, u, v): support radius parameter m
(the mother wavelet for the unit cube is supported in the m-fold concentric
dilate), empirically probed differentiability order u, and the number of
vanishing moments v (all moments up to order v vanish).

Mother functions are tabulated on a dyadic mesh of spacing 2^-(q+1); the
two-scale relation closes on that mesh, and the scaling table is its fixed
point up to rounding (Daubechies and Lagarias): the values at the integers
are an eigenvector of the two-scale matrix, and each halving of the spacing
is one two-scale pass.  Midpoint quadrature nodes at spacing 2^-q land
exactly on mesh points.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .filters import QMF_TOL, get_filter, highpass_from_lowpass

# largest scaling-function mesh, in points: each float64 table of a
# two-scale pass then takes at most 256 MiB
CASCADE_MAX_POINTS = 1 << 25
MOMENT_TOL = 1e-10
FD_STABLE_RATIO = 1.2


class CascadeError(RuntimeError):
    pass


def _two_scale(taps: np.ndarray, v: np.ndarray, step: int) -> np.ndarray:
    """sqrt(2) sum_n taps_n v(2x - n) on the mesh of v, spacing 1/step,
    with v taken as 0 off the mesh."""
    n_pts = v.size
    out = np.zeros(n_pts)
    root2 = math.sqrt(2.0)
    for n in range(taps.size):
        # the points i whose source 2i - n step lies on the mesh
        lo, hi = -(-n * step // 2), min(n_pts, (n_pts - 1 + n * step) // 2 + 1)
        if lo < hi:
            out[lo:hi] += root2 * taps[n] * v[2 * lo - n * step::2][:hi - lo]
    return out


def scaling_table(h: np.ndarray, q: int) -> tuple[np.ndarray, float]:
    """The scaling function phi on the mesh n 2^-q, n = 0..(L-1) 2^q, and its
    sup-norm two-scale residual; L = len(h).  phi(0..L-2) is the eigenvector
    for eigenvalue 1 of sqrt(2) h_{2i-j}, i, j < L-1, summing to 1, and
    phi(L-1) = 0 (the L x L matrix only adds the eigenvalue sqrt(2) h_{L-1},
    a second 1 for the right-continuous Haar).  One two-scale pass per
    halving of the spacing reads the coarser values at the even points."""
    L = h.size
    # a q past the budget's bit length is refused before (L - 1) << q is
    # formed: for a huge q that integer alone exhausts memory
    if (q >= CASCADE_MAX_POINTS.bit_length()
            or ((L - 1) << q) + 1 > CASCADE_MAX_POINTS):
        raise CascadeError(
            f"cascade mesh of {L - 1} * 2^{q} + 1 points (filter length "
            f"{L}) exceeds the budget of {CASCADE_MAX_POINTS}; lower q")
    n = 2 * np.arange(L - 1)[:, None] - np.arange(L - 1)
    matrix = np.where((n >= 0) & (n < L), math.sqrt(2.0) * h[n % L], 0.0)
    lam, vec = np.linalg.eig(matrix)
    # a filter QMF_TOL from a double eigenvalue 1 splits it by ~sqrt(QMF_TOL)
    ones = np.flatnonzero(np.abs(lam - 1.0) <= math.sqrt(QMF_TOL))
    if ones.size != 1:
        raise CascadeError(
            f"the filter's two-scale matrix has eigenvalue 1 {ones.size} "
            f"times, not once, so it defines no unique scaling function")
    v = np.append(vec[:, ones[0]].real, 0.0)
    v /= v.sum()
    for j in range(1, q + 1):
        fine = np.zeros(2 * v.size - 1)
        fine[::2] = v
        v = _two_scale(h, fine, 1 << j)
    return v, float(np.max(np.abs(_two_scale(h, v, 1 << q) - v)))


class WaveletSystem(NamedTuple):
    """Mother scaling function and wavelet on a fixed fine mesh.

    Samples live on the mesh lo + n*2^-(q+1) where lo = (1-m)/2, so that the
    wavelet attached to a cube I is supported in the concentric dilate mI.
    """

    h: np.ndarray
    q: int
    m: int
    u: int
    v: int
    lo: float
    phi: np.ndarray
    psi: np.ndarray
    cascade_residual: float
    fd_ratios: dict

    @property
    def mesh_step(self) -> float:
        return 0.5 ** (self.q + 1)

    @property
    def is_haar(self) -> bool:
        return self.h.size == 2

    def mother(self, t: np.ndarray, kind: str = "psi") -> np.ndarray:
        """Evaluate by table lookup with linear interpolation between mesh
        points (lookups aligned with the mesh are exact).  Haar is evaluated
        in closed form so its jumps are placed exactly."""
        t = np.asarray(t, dtype=float)
        if self.is_haar:
            if kind == "psi":
                return np.where(
                    (t >= 0.0) & (t < 0.5), 1.0,
                    np.where((t >= 0.5) & (t < 1.0), -1.0, 0.0),
                )
            return np.where((t >= 0.0) & (t < 1.0), 1.0, 0.0)
        table = self.psi if kind == "psi" else self.phi
        x = np.linspace(self.lo, self.lo + (table.size - 1) * self.mesh_step,
                        table.size)
        return np.interp(t, x, table, left=0.0, right=0.0)

    def quad_nodes(self, res: int | None = None) -> tuple[np.ndarray, float]:
        """Midpoint nodes at spacing 2^-res (default 2^-q) over the mother
        support."""
        res = self.q if res is None else res
        hq = 0.5 ** res
        t = self.lo + (np.arange(self.m << res) + 0.5) * hq
        return t, hq

    def scaled_nodes(self, res: int, k: int,
                     ) -> tuple[np.ndarray, np.ndarray, float]:
        """The generation-k wavelet on the mother nodes at spacing 2^-res.

        Returns (t, 2^(k/2) psi(t), 2^-(res+k)): mother coordinates, the
        wavelet values, and the spacing of the scaled nodes t 2^-k.
        """
        t, hq = self.quad_nodes(res)
        return t, 2.0 ** (k / 2.0) * self.mother(t, "psi"), hq * 2.0 ** (-k)

    def moment(self, alpha: int) -> float:
        """Midpoint quadrature of the alpha-th moment of the mother
        wavelet, whose nodes are the odd points of the table mesh."""
        t, hq = self.quad_nodes()
        return float(np.sum(t ** alpha * self.psi[1::2]) * hq)


def _fd_ratio(table: np.ndarray, step: float, order: int) -> float:
    """Growth of max|finite difference|/h^order when h halves.

    Ratios near 1 mean the divided difference is resolving an actual
    derivative; ratios near 2^order mean it diverges like h^-order.
    """
    def maxdiff(stride):
        h = step * stride
        cur = table[::stride]
        for _ in range(order):
            cur = np.diff(cur)
        return float(np.max(np.abs(cur))) / h ** order

    coarse = maxdiff(2)
    fine = maxdiff(1)
    if coarse == 0.0:
        return 1.0
    return fine / coarse


def probe_differentiability(table: np.ndarray, step: float, max_order: int,
                            ) -> tuple[int, dict]:
    """Largest order (<= max_order) whose divided differences stay bounded
    under mesh refinement.  Returns (order, {order: ratio})."""
    ratios = {}
    u = 0
    for order in range(1, max_order + 1):
        r = _fd_ratio(table, step, order)
        ratios[order] = r
        if r <= FD_STABLE_RATIO:
            u = order
        else:
            break
    return u, ratios


def count_vanishing_moments(system: WaveletSystem, cap: int) -> int:
    v = -1
    for a in range(cap + 1):
        if abs(system.moment(a)) < MOMENT_TOL:
            v = a
        else:
            break
    return v


def build_system(filter_spec, q: int, s_target: int = 1) -> WaveletSystem:
    """Construct a wavelet system from a filter name or file path.

    u and v are probed against s_target and reported; a filter short of
    s_target is built all the same.
    """
    h = get_filter(filter_spec)
    m = h.size - 1  # support diameter of the mother functions
    # Tabulate at spacing 2^-(q+1) so that midpoint nodes of the 2^-q
    # quadrature are themselves mesh points.
    phi, res = scaling_table(h, q + 1)
    psi = _two_scale(highpass_from_lowpass(h), phi, 1 << (q + 1))
    lo = (1 - m) / 2.0  # natural support [0, m] recentered into the m-dilate
    # the probes read the tables, not u or v
    sys = WaveletSystem(h=h, q=q, m=m, u=0, v=0, lo=lo, phi=phi, psi=psi,
                        cascade_residual=res, fd_ratios={})
    u, fd_ratios = probe_differentiability(psi, sys.mesh_step,
                                           max(s_target, 1))
    return sys._replace(u=u, fd_ratios=fd_ratios, v=count_vanishing_moments(
        sys, cap=max(2 * s_target, s_target + 2, 8)))


def gram_defect(system: WaveletSystem, entries, res: int,
                span: tuple[float, float]) -> float:
    """Largest entry of |G - I|, G the midpoint-quadrature Gram matrix of
    the listed wavelets.

    entries: list of (k, l, kind) with kind 'psi' or 'phi'; functions are
    2^{k/2} mother(2^k x - l).  res: mesh exponent of the common quadrature
    grid over span.
    """
    lo, hi = span
    h = 0.5 ** res
    n = int(round((hi - lo) / h))
    x = lo + (np.arange(n) + 0.5) * h
    rows = np.empty((len(entries), n))
    for i, (k, l, kind) in enumerate(entries):
        rows[i] = 2.0 ** (k / 2.0) * system.mother(2.0 ** k * x - l, kind)
    G = rows @ rows.T * h
    return float(np.max(np.abs(G - np.eye(len(entries)))))
