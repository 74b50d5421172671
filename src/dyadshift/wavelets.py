"""Compactly supported wavelet systems built by the cascade algorithm.

A system is characterized by the triple (m, u, v): support radius parameter m
(the mother wavelet for the unit cube is supported in the m-fold concentric
dilate), empirically probed differentiability order u, and the number of
vanishing moments v (all moments up to order v vanish).

Mother functions are tabulated on a dyadic mesh of spacing 2^-(q+1); the
two-scale relation closes on that mesh, so the tabulated values are fixed
points of the cascade iteration rather than generic approximations.  Midpoint
quadrature nodes at spacing 2^-q land exactly on mesh points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .filters import get_filter, highpass_from_lowpass, validate_filter

CASCADE_TOL = 1e-10
# largest cascade mesh, in points: each of the cascade's float64 and int64
# tables then takes at most 256 MiB
CASCADE_MAX_POINTS = 1 << 25
CASCADE_MAX_ITER = 80
MOMENT_TOL = 1e-10
FD_STABLE_RATIO = 1.2


class CascadeError(RuntimeError):
    pass


class SmoothnessError(ValueError):
    """Requested differentiability exceeds what the filter delivers."""


class MomentError(ValueError):
    """Requested vanishing moments exceed what the filter delivers."""


def cascade(h: np.ndarray, q: int) -> tuple[np.ndarray, int, float]:
    """Iterate the two-scale map on the mesh x_n = n 2^-q, n = 0..(L-1) 2^q.

    Returns (samples of the scaling function on [0, L-1], iterations, final
    sup-norm residual).  L = len(h).
    """
    h = np.asarray(h, dtype=float)
    L = h.size
    step = 1 << q
    n_pts = (L - 1) * step + 1
    if n_pts > CASCADE_MAX_POINTS:
        raise CascadeError(
            f"cascade mesh of {n_pts} points (filter length {L}, spacing "
            f"2^-{q}) exceeds the budget of {CASCADE_MAX_POINTS}; lower q")
    v = np.zeros(n_pts)
    v[: step] = 1.0  # box function on [0, 1)
    root2 = math.sqrt(2.0)
    idx = 2 * np.arange(n_pts)
    res = math.inf
    for it in range(1, CASCADE_MAX_ITER + 1):
        new = np.zeros(n_pts)
        for k in range(L):
            src = idx - k * step
            ok = (src >= 0) & (src < n_pts)
            new[ok] += root2 * h[k] * v[src[ok]]
        res = float(np.max(np.abs(new - v)))
        v = new
        if res < CASCADE_TOL:
            return v, it, res
    raise CascadeError(
        f"cascade failed to reach sup residual {CASCADE_TOL:g} in "
        f"{CASCADE_MAX_ITER} iterations (residual {res:.3g})"
    )


def _wavelet_from_scaling(phi: np.ndarray, g: np.ndarray, q: int) -> np.ndarray:
    """psi(x) = sqrt(2) sum_n g_n phi(2x - n) on the same mesh."""
    L = g.size
    step = 1 << q
    n_pts = phi.size
    psi = np.zeros(n_pts)
    idx = 2 * np.arange(n_pts)
    root2 = math.sqrt(2.0)
    for n in range(L):
        src = idx - n * step
        ok = (src >= 0) & (src < n_pts)
        psi[ok] += root2 * g[n] * phi[src[ok]]
    return psi


@dataclass
class WaveletSystem:
    """Mother scaling function and wavelet on a fixed fine mesh.

    Samples live on the mesh lo + n*2^-(q+1) where lo = (1-m)/2, so that the
    wavelet attached to a cube I is supported in the concentric dilate mI.
    """

    name: str
    h: np.ndarray
    g: np.ndarray
    q: int
    m: int
    u: int
    v: int
    s_target: int
    lo: float
    phi: np.ndarray
    psi: np.ndarray
    cascade_iterations: int
    cascade_residual: float
    fd_ratios: dict = field(default_factory=dict)

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

    def moment(self, alpha: int, kind: str = "psi") -> float:
        """Midpoint quadrature of the alpha-th mother moment."""
        t, hq = self.quad_nodes()
        return float(np.sum(t ** alpha * self.mother(t, kind)) * hq)


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


def build_system(filter_spec, q: int, s_target: int = 1,
                 strict: bool = True, name: str | None = None) -> WaveletSystem:
    """Construct a wavelet system from a filter name, array, or file path.

    With strict=True the build fails when the probed differentiability u falls
    below s_target or the vanishing moments v fall below s_target - 1.
    """
    if isinstance(filter_spec, str):
        h = get_filter(filter_spec)
        name = name or filter_spec
    else:
        h = np.asarray(filter_spec, dtype=float)
        validate_filter(h)
        name = name or f"custom{h.size}"
    g = highpass_from_lowpass(h)
    m = h.size - 1  # support diameter of the mother functions
    # Tabulate at spacing 2^-(q+1) so that midpoint nodes of the 2^-q
    # quadrature are themselves mesh points.
    phi, iters, res = cascade(h, q + 1)
    psi = _wavelet_from_scaling(phi, g, q + 1)
    lo = (1 - m) / 2.0  # natural support [0, m] recentered into the m-dilate
    sys = WaveletSystem(
        name=name, h=h, g=g, q=q, m=m, u=0, v=0, s_target=s_target, lo=lo,
        phi=phi, psi=psi, cascade_iterations=iters, cascade_residual=res,
    )
    step = sys.mesh_step
    u, ratios = probe_differentiability(psi, step, max(s_target, 1))
    sys.u = u
    sys.fd_ratios = ratios
    sys.v = count_vanishing_moments(sys, cap=max(2 * s_target, s_target + 2, 8))
    if strict and sys.u < s_target:
        raise SmoothnessError(
            f"filter {name!r} gives u={sys.u} < s_target={s_target} "
            f"(finite-difference ratios {ratios})"
        )
    if strict and sys.v < s_target - 1:
        raise MomentError(
            f"filter {name!r} gives v={sys.v} < s_target-1={s_target - 1}"
        )
    return sys


def gram_matrix(system: WaveletSystem, entries, res: int,
                span: tuple[float, float]) -> np.ndarray:
    """Midpoint-quadrature Gram matrix of the listed wavelets.

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
    return rows @ rows.T * h


def gram_defect(system: WaveletSystem, entries, res: int,
                span: tuple[float, float]) -> float:
    G = gram_matrix(system, entries, res, span)
    return float(np.max(np.abs(G - np.eye(len(entries)))))
