"""Quadrature-mirror refinement filters for compactly supported wavelets.

Filters are treated as coefficient data: the built-in bank covers the Haar
filter and minimal-phase Daubechies-style filters dbN (N vanishing moments,
2N taps), and arbitrary filters can be loaded from plain text files with one
exact decimal coefficient per line.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

QMF_TOL = 1e-12


class FilterError(ValueError):
    """Raised when a refinement filter fails the QMF admissibility checks."""


def validate_filter(h: np.ndarray) -> None:
    """Check finite taps, Sum h = sqrt(2) and even-shift orthonormality,
    each to QMF_TOL."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or h.size < 2 or h.size % 2 != 0:
        raise FilterError("filter invalid: need an even number (>= 2) of taps")
    if not np.all(np.isfinite(h)):
        raise FilterError("filter invalid: taps must be finite numbers")
    if abs(h.sum() - math.sqrt(2.0)) > QMF_TOL:
        raise FilterError(
            f"filter invalid: sum of taps is {h.sum():.15g}, expected sqrt(2)"
        )
    n = h.size
    for k in range(1, n // 2):
        dot = float(np.dot(h[2 * k:], h[: n - 2 * k]))
        if abs(dot) > QMF_TOL:
            raise FilterError(
                f"filter invalid: even-shift orthonormality fails at shift {2 * k}"
            )
    if abs(float(np.dot(h, h)) - 1.0) > QMF_TOL:
        raise FilterError("filter invalid: taps are not l2-normalized")


def highpass_from_lowpass(h: np.ndarray) -> np.ndarray:
    """Conjugate mirror: g_n = (-1)^n h_{L-1-n}."""
    h = np.asarray(h, dtype=float)
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return g


def _daubechies(n_moments: int) -> np.ndarray:
    """Minimal-phase orthonormal filter of `n_moments` >= 2 vanishing moments.

    Spectral factorization of the halfband polynomial; the small degrees used
    here (<= 10) keep the root finding accurate to ~1e-14.
    """
    N = n_moments
    # P(y) = sum_k C(N-1+k, k) y^k, the Bezout solution of the halfband identity.
    p = [math.comb(N - 1 + k, k) for k in range(N)]
    # Roots in y, then back to z via y = (2 - z - 1/z)/4  <=>  z^2 - (2-4y) z + 1 = 0.
    y_roots = np.roots(p[::-1])
    z_roots = []
    for y in y_roots:
        b = 2.0 - 4.0 * y
        disc = np.sqrt(complex(b * b - 4.0))
        for z in ((b + disc) / 2.0, (b - disc) / 2.0):
            if abs(z) < 1.0:
                z_roots.append(z)
    # h(z) = c (1+z)^N prod (z - z_i); real coefficients up to rounding.
    poly = np.array([1.0 + 0j])
    for _ in range(N):
        poly = np.convolve(poly, [1.0, 1.0])
    for z in z_roots:
        poly = np.convolve(poly, [1.0, -z])
    h = np.real(poly)
    h *= math.sqrt(2.0) / h.sum()
    # Polish the even-shift orthonormality (root rounding leaves ~1e-13 residue).
    h /= math.sqrt(float(np.dot(h, h)))
    h *= math.sqrt(2.0) / abs(h.sum())
    return h


def _sqrt3_db2() -> np.ndarray:
    s3 = math.sqrt(3.0)
    return np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * math.sqrt(2.0))


def _closed_form_db3() -> np.ndarray:
    s10 = math.sqrt(10.0)
    b = math.sqrt(5.0 + 2.0 * s10)
    num = np.array(
        [
            1.0 + s10 + b,
            5.0 + s10 + 3.0 * b,
            10.0 - 2.0 * s10 + 2.0 * b,
            10.0 - 2.0 * s10 - 2.0 * b,
            5.0 + s10 - 3.0 * b,
            1.0 + s10 - b,
        ]
    )
    return num / (16.0 * math.sqrt(2.0))


# each built-in filter's builder; a run uses one filter, so each is built
# (db4-db8 by root finding) and validated on its first request
_BUILDERS = {
    "haar": lambda: np.array([1.0, 1.0]) / math.sqrt(2.0),
    "db2": _sqrt3_db2,
    "db3": _closed_form_db3,
    **{f"db{n}": functools.partial(_daubechies, n) for n in (4, 5, 6, 7, 8)},
}


@functools.cache
def _builtin(name: str) -> np.ndarray:
    h = _BUILDERS[name]()
    validate_filter(h)
    return h


def builtin_filter_names() -> list[str]:
    return sorted(_BUILDERS)


def get_filter(name: str) -> np.ndarray:
    """A built-in filter by name, else the filter in the file at that path."""
    if name in _BUILDERS:
        return _builtin(name).copy()
    if os.path.isfile(name):
        return load_filter_file(name)
    raise FilterError(f"unknown filter {name!r}; known: {builtin_filter_names()}")


def load_filter_file(path) -> np.ndarray:
    """One decimal coefficient per line; blank lines and # comments ignored."""
    coeffs = []
    with open(path) as fh:
        try:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    coeffs.append(float(line))
        except ValueError as exc:  # also undecodable bytes
            raise FilterError(f"filter file {path}: {exc}") from exc
    h = np.array(coeffs, dtype=float)
    validate_filter(h)
    return h

