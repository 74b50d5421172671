import json
import math
import sys
import threading
import tracemalloc
from collections import deque
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadshift import operators
from dyadshift.cli import main
from dyadshift.dyadic import (Cube, CubePairs, DyadicGrid, ScaleRangeError,
                              Window)
from dyadshift.harness import localized_coefficients
from dyadshift.operators import PairingEngine, make_operator
from dyadshift.operators import TestFunction as Bump
from dyadshift.wavelets import WaveletSystem, build_system
from conftest import InlineThread
from references import (cube_arrays, cube_box, cube_pair_keys, cube_pairs,
                        cubes_at_scale, cubes_touching, disjoint_pairs,
                        haar_pair_exact, lone_pairings, multiplier,
                        padded_periodic_apply, pair_correlation,
                        pair_quadrature, pairing_counts, sample_wavelet,
                        support_interval, wavelet_nodes, zero_grid)


def hat(x):
    return np.maximum(0.0, 1.0 - np.abs(x))


def hilbert_of_hat(x):
    """Closed form: pi H(hat)(x) = (x+1)log|x+1| + (x-1)log|x-1| - 2x log|x|."""
    def xlogx(u):
        out = np.zeros_like(u)
        nz = u != 0.0
        out[nz] = u[nz] * np.log(np.abs(u[nz]))
        return out
    return (xlogx(x + 1.0) + xlogx(x - 1.0) - 2.0 * xlogx(x)) / math.pi


def _field_of(op, samples, h, x0):
    """The field of midpoint samples on the mesh x0 + (n+1/2)h, zero-padded
    to about 8 times their length, as harness.ground_truth builds it."""
    n = samples.size
    mesh = operators._FieldMesh(x0 + (np.arange(n) + 0.5) * h, samples, h,
                                operators._next_fast_len(8 * n), 0, x0, n)
    return operators._periodic_apply(op, mesh)[1]


def test_hilbert_hat_closed_form():
    H = make_operator("hilbert")
    h = 0.5 ** 12
    x = -4.0 + (np.arange(int(8.0 / h)) + 0.5) * h
    got = _field_of(H, hat(x), h, -4.0)
    err = np.max(np.abs(got - hilbert_of_hat(x)))
    assert err < 1e-4


def test_hilbert_isometry_on_padded_domain():
    H = make_operator("hilbert")
    f = Bump(center=0.0, halfwidth=1.0)
    h = 1.0 / 512
    x = -2.0 + (np.arange(2048) + 0.5) * h
    samples = x * f(x)  # mean zero: the symbol vanishes only at xi = 0
    # evaluating over the whole padded mesh keeps the full l2 mass, of the
    # periodic transform: no tail correction
    mesh = operators._FieldMesh(x, samples, h, 8 * 2048, 0, -2.0, 8 * 2048)
    _, out = operators._periodic_apply(_uncorrected(H), mesh)
    ratio = np.sum(out ** 2) / np.sum(samples ** 2)
    assert abs(ratio - 1.0) < 1e-3


def test_hilbert_antisymmetry():
    H = make_operator("hilbert")
    f = Bump(center=0.3, halfwidth=0.9)
    h = 0.5 ** 12
    x = -2.0 + (np.arange(int(4.0 / h)) + 0.5) * h
    tf = _field_of(H, f(x), h, -2.0)
    assert abs(np.sum(f(x) * tf) * h) < 1e-8


def test_hilbert_czs_values():
    H = make_operator("hilbert")
    assert math.isclose(H.czs_seminorm(1), 1.0 / math.pi)
    assert math.isclose(H.czs_seminorm(2), 2.0 / math.pi)


def test_smoothed_hilbert_symbol_and_czs():
    S = make_operator("smoothed_hilbert")
    xi = np.array([3.0, -3.0])
    m = multiplier(S, xi)
    ref = -1j * np.sign(xi) * (1.0 - np.exp(-3.0))
    assert np.allclose(m, ref)
    # frozen numeric for s=2 (dense log-grid search, stable to 3 digits)
    assert abs(S.czs_seminorm(2) - 0.7958) < 2e-3
    # kernel is smoother than 1/u at the origin scale: czs below Hilbert's
    assert S.czs_seminorm(2) < make_operator("hilbert").czs_seminorm(2) * 1.3


def _uncorrected(op):
    """The operator without its tail correction: _periodic_apply gives the
    periodic transform of its samples.  Only the Hilbert symbol has one;
    a radial factor of 1.0 skips it and leaves the spectrum's bits as they
    are."""
    if op.radial is not None:
        return op
    return op._replace(radial=np.ones_like)


def _power_norm(op, n: int = 4096, h: float = 1.0 / 256, iters: int = 30,
                seed: int = 0) -> float:
    """Power iteration of T^t T, uncorrected on a mesh padded to 4 times the
    signal, T through _periodic_apply and T^t through the reference's own
    symbol m(-xi): the discrete l2 -> l2 norm of T on a sample mesh."""
    nodes = (np.arange(n) + 0.5) * h
    size = operators._next_fast_len(4 * n)
    op = _uncorrected(op)

    def apply(samples, transpose):
        mesh = operators._FieldMesh(nodes, samples, h, size, 0, 0.0, n)
        if transpose:
            return padded_periodic_apply(op, mesh, transpose=True)[1]
        return operators._periodic_apply(op, mesh)[1]

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(iters):
        y = apply(apply(x, False), True)
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            return 0.0
        x = y / nrm
        est = math.sqrt(nrm)
    return est


def test_operator_norms():
    assert abs(_power_norm(make_operator("hilbert")) - 1.0) < 1e-4
    assert _power_norm(make_operator("smoothed_hilbert")) < 1.0 + 1e-9


def test_test_function_support_and_smoothness():
    f = Bump(center=2.0, halfwidth=0.5)
    assert f.support == (1.5, 2.5)
    assert f(np.array([1.5, 2.5, 3.0])).tolist() == [0.0, 0.0, 0.0]
    assert f(np.array([2.0]))[0] == 1.0


class Setting(NamedTuple):
    """What a pairing table is built from, beside the keys of the pairs."""

    op: operators.KernelOp
    grid: DyadicGrid
    system: WaveletSystem
    q_loc: int
    pad_factor: int = 8

    def pairings(self, pairs) -> np.ndarray:
        """The pairs' values from a table over their own keys."""
        return lone_pairings(self.op, self.grid, self.system, pairs,
                             self.q_loc, self.pad_factor)

    def pairing(self, I: Cube, J: Cube) -> float:
        return float(self.pairings([(I, J)])[0])


@pytest.fixture(scope="module")
def haar_setup():
    w = Window(L=3, k_min=-3, k_max=6)
    grid = zero_grid(w)
    system = build_system("haar", q=12)
    return grid, system, Setting(make_operator("hilbert"), grid, system, 12)


def test_far_haar_pair_against_closed_form(haar_setup):
    grid, system, engine = haar_setup
    I, J = Cube(0, (1,)), Cube(0, (5,))
    exact = haar_pair_exact(1.0, 1.0, 5.0, 1.0)
    assert abs(engine.pairing(I, J) - exact) < 2e-5
    for oracle in (pair_quadrature, pair_correlation):
        quad = oracle(make_operator("hilbert"), grid, system, I, J, 12)
        assert abs(quad - exact) < 1e-8


def test_contained_haar_pair_against_closed_form(haar_setup):
    grid, system, engine = haar_setup
    I, J = Cube(2, (4,)), Cube(0, (1,))  # [1, 1.25) inside [1, 2)
    exact = haar_pair_exact(1.0, 0.25, 1.0, 1.0)
    assert abs(engine.pairing(I, J) - exact) < 1e-6


def test_equal_haar_pair_is_zero(haar_setup):
    grid, system, engine = haar_setup
    assert abs(engine.pairing(Cube(1, (3,)), Cube(1, (3,)))) < 1e-10


def test_pairing_translation_memo_consistency(haar_setup):
    grid, system, engine = haar_setup
    a = engine.pairing(Cube(2, (8,)), Cube(2, (13,)))
    b = engine.pairing(Cube(2, (9,)), Cube(2, (14,)))
    assert a == b  # translation invariance is exact by construction


@pytest.fixture(scope="module")
def db3_setup():
    """A db3 system on a zero grid, with three pairs of separated cubes."""
    grid = zero_grid(Window(L=3, k_min=-2, k_max=6))
    pairs = [(Cube(3, (8,)), Cube(3, (40,))),
             (Cube(3, (8,)), Cube(1, (10,))),
             (Cube(2, (4,)), Cube(2, (26,)))]
    return grid, build_system("db3", q=12), pairs


def test_multiplier_vs_double_quadrature_db3(db3_setup):
    grid, system, pairs = db3_setup
    H = make_operator("hilbert")
    engine = Setting(H, grid, system, 12)
    for I, J in pairs:
        lo_i, hi_i = support_interval(grid, system, I)
        lo_j, hi_j = support_interval(grid, system, J)
        assert max(lo_i, lo_j) >= min(hi_i, hi_j)  # separated supports
        fast = engine.pairing(I, J)
        slow = pair_correlation(H, grid, system, I, J, 12)
        assert abs(fast - slow) <= max(1e-6, 1e-4 * abs(slow))


def test_pair_quadrature_rejects_overlap(haar_setup):
    grid, system, _ = haar_setup
    for oracle in (pair_quadrature, pair_correlation):
        with pytest.raises(ValueError, match="needs separated supports"):
            oracle(make_operator("hilbert"), grid, system,
                   Cube(2, (4,)), Cube(0, (1,)), 10)
        with pytest.raises(ValueError, match="has no kernel for quadrature"):
            oracle(make_operator("identity"), grid, system,
                   Cube(0, (1,)), Cube(0, (5,)), 10)


def _per_gap_sample(pairs: CubePairs, size: int, seed: int) -> CubePairs:
    """At most size pairs of each scale gap |k_I - k_J|, drawn with the
    seed, by gap."""
    gap = np.abs(pairs.I_k - pairs.J_k)
    rng = np.random.default_rng(seed)
    pick = np.concatenate([rng.permutation(np.flatnonzero(gap == g))[:size]
                           for g in np.unique(gap).tolist()])
    return CubePairs(pairs.I_k[pick], pairs.I_l[pick], pairs.J_k[pick],
                     pairs.J_l[pick])


def test_pair_correlation_matches_dense_quadrature(db3_setup):
    # the dense sum is the reference; criterion 4's tolerance at the
    # reference value, scaled down by 1e-9
    def check(op, grid, system, pairs, q_loc):
        for I, J in pairs:
            dense = pair_quadrature(op, grid, system, I, J, q_loc)
            corr = pair_correlation(op, grid, system, I, J, q_loc)
            assert abs(corr - dense) <= 1e-9 * max(1e-6, 1e-4 * abs(dense))

    H = make_operator("hilbert")
    # criterion 4's grid, 20 pairs of each scale gap 0..4, in both orders
    grid = DyadicGrid.random(Window(L=2, k_min=0, k_max=4), 3)
    system = build_system("haar", q=12)
    sample = _per_gap_sample(disjoint_pairs(grid, system), 20, 0)
    assert len(sample) == 100
    check(H, grid, system, [p for I, J in sample for p in ((I, J), (J, I))],
          10)
    grid, system, pairs = db3_setup
    check(H, grid, system, pairs, 12)


def test_engine_beyond_criterion_4_gaps_against_closed_form():
    # criterion 4's engine settings on a window with scale gaps up to 7
    # (criterion 4's reach 4), at most 60 pairs of each gap.  The Haar
    # closed form is the reference: the q_loc = 10 oracle's own midpoint
    # error reaches 3x the tolerance at gap 7, on near-adjacent supports,
    # while it stays well within it at criterion 4's gaps
    grid = DyadicGrid.random(Window(L=2, k_min=-2, k_max=6), 3)
    system = build_system("haar", q=12)
    H = make_operator("hilbert")
    pairs = disjoint_pairs(grid, system)
    assert len(pairs) == 244_514
    sample = _per_gap_sample(pairs, 60, 0)
    engine = Setting(H, grid, system, 10, pad_factor=32)
    worst = {}
    for (I, J), fast in zip(sample, engine.pairings(sample)):
        (a_lo, a_hi), (b_lo, b_hi) = (support_interval(grid, system, I),
                                      support_interval(grid, system, J))
        exact = haar_pair_exact(a_lo, a_hi - a_lo, b_lo, b_hi - b_lo)
        tol = max(1e-6, 1e-4 * abs(exact))
        gap = abs(I.k - J.k)
        worst[gap] = max(worst.get(gap, 0.0), abs(fast - exact) / tol)
        if gap <= 4:
            oracle = pair_correlation(H, grid, system, I, J, 10)
            assert abs(oracle - exact) <= tol
    assert sorted(worst) == list(range(8))
    assert max(worst.values()) <= 1.0, worst


def test_plain_inner_orthonormality(haar_setup):
    grid, system, _ = haar_setup
    engine = Setting(make_operator("identity"), grid, system, 12)
    assert abs(engine.pairing(Cube(2, (5,)), Cube(2, (5,))) - 1.0) < 1e-12
    assert abs(engine.pairing(Cube(2, (5,)), Cube(1, (1,)))) < 1e-12


def test_wavelet_coefficient_haar_closed_form(haar_setup):
    grid, system, _ = haar_setup
    # <psi_I, x> over I=[0,2): 2^{-1/2} ( int_0^1 x - int_1^2 x ) = -2^{1/2}/2
    def line(x):
        return x
    line.support = (-1.0, 3.0)
    (val,) = localized_coefficients(grid, system,
                                    *cube_arrays([Cube(-1, (0,))]), line, 12)
    assert abs(val - (-1.0 / math.sqrt(2.0))) < 1e-9


def test_transpose_multiplier_negates_hilbert():
    # the transpose's symbol is m(-xi)
    H = make_operator("hilbert")
    xi = np.array([1.0, -2.0])
    assert np.allclose(multiplier(H, -xi), -multiplier(H, xi))


@pytest.mark.parametrize("name", ["hilbert", "smoothed_hilbert", "identity"])
def test_symbols_are_hermitian(name):
    # the real FFT in _periodic_apply is exact only for real kernels
    op = make_operator(name)
    xi = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 121)])
    for symbol in (lambda xi: multiplier(op, xi),
                   lambda xi: multiplier(op, -xi)):
        assert np.array_equal(np.asarray(symbol(-xi)),
                              np.conj(np.asarray(symbol(xi))))


def _complex_periodic_apply(op, mesh, transpose=False):
    """Reference: the complex fft/ifft body _periodic_apply had before it
    took a real FFT over the interior only, on the whole padded mesh, with
    the transpose's own symbol m(-xi) and its tail subtracted."""
    N, h = mesh.size, mesh.h
    buf = np.zeros(N)
    buf[mesh.n_left:mesh.n_left + mesh.vw.size] = mesh.vw
    xi = 2.0 * math.pi * np.fft.fftfreq(N, d=h)
    m = np.asarray(multiplier(op, -xi if transpose else xi),
                   dtype=complex)
    if N % 2 == 0:
        m[N // 2] = m[N // 2].real  # keep the Nyquist bin hermitian
    out = np.fft.ifft(np.fft.fft(buf) * m).real
    mesh_x = mesh.x0 + (np.arange(N) + 0.5) * h
    if op.singular and op.radial is None:
        mu = np.array([np.sum(mesh.vw * mesh.xw ** a) * h for a in range(4)])
        P = N * h
        sgn = -1.0 if transpose else 1.0
        z = mesh_x
        c1 = math.pi / (3.0 * P * P)
        c3 = math.pi ** 3 / (45.0 * P ** 4)
        out += sgn * (c1 * (mu[0] * z - mu[1])
                      + c3 * (mu[0] * z ** 3 - 3 * mu[1] * z ** 2
                              + 3 * mu[2] * z - mu[3]))
    return mesh_x, out


def _assert_close_to(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _assert_same_bits(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("name", ["hilbert", "smoothed_hilbert", "identity"])
@pytest.mark.parametrize("n", [1000, 1001])
def test_apply_multiplier_matches_complex_fft(name, n):
    # T's field, negated for the T^t of an odd kernel (the identity is its
    # own transpose), against the complex formula with the transpose's own
    # symbol m(-xi) on the whole padded mesh, and against the padded route
    # with the complex symbol bit for bit
    op = make_operator(name)
    h, x0 = 1.0 / 128, -3.0
    x = x0 + (np.arange(n) + 0.5) * h
    samples = x * Bump(center=0.6, halfwidth=2.0)(x)
    for pad_factor in (3, 8):
        mesh = operators._FieldMesh(
            x, samples, h, operators._next_fast_len(pad_factor * n), 0, x0, n)
        u, field = operators._periodic_apply(op, mesh)
        for transpose in (False, True):
            got = -field if transpose and op.singular else field
            _, ref = _complex_periodic_apply(op, mesh, transpose)
            _assert_close_to(got, ref[:n])
            for a, b in zip((u, got),
                            padded_periodic_apply(op, mesh, transpose)):
                _assert_same_bits(a, b)


@pytest.mark.parametrize("name, op", [("haar", "hilbert"),
                                      ("db3", "hilbert"),
                                      ("db2", "smoothed_hilbert")])
def test_pairing_fields_match_complex_fft(monkeypatch, name, op):
    # every field a pairings call builds, T's for both orientations of
    # the pairs, against the complex formula on the whole padded mesh: the
    # interior agrees, bit for bit on the mesh
    real_apply = operators._periodic_apply
    checked = []

    def both(op, mesh):
        stop = mesh.stop
        u, out = real_apply(op, mesh)
        ref_u, ref = _complex_periodic_apply(op, mesh)
        assert u.size == stop < mesh.size
        assert np.array_equal(u, ref_u[:stop])
        _assert_close_to(out, ref[:stop])
        checked.append(mesh)
        return u, out

    monkeypatch.setattr(operators, "_periodic_apply", both)
    w = Window(L=4, k_min=-2, k_max=5)
    grid = DyadicGrid.random(w, 5)
    system = build_system(name, q=11)
    pairs = _localized_pairs(grid, system, -1, 3, (6 * 64, 10 * 64))
    op = make_operator(op)
    Setting(op, grid, system, 8).pairings(pairs)
    keys = cube_pair_keys(grid, pairs)
    assert set(keys[:, 1].tolist()) == {0, 1}
    assert len(checked) == pairing_counts(op, keys)["fields"]


# ---------------------------------------------------------------------------
# batched pairings against the per-pair loop they replaced


def _scalar_keys(engine: Setting, pairs) -> list:
    """(coarse k, transpose, fine k, delta) of each pair, from the
    one-cube cube_box."""
    grid = engine.grid
    keys = []
    for I, J in pairs:
        fine, coarse = (I, J) if I.k >= J.k else (J, I)
        delta = int(cube_box(grid, fine)[0][0] - cube_box(grid, coarse)[0][0])
        keys.append((coarse.k, I.k >= J.k, fine.k, delta))
    return keys


def _scalar_hulls(engine: Setting, pairs) -> dict:
    """The hull of the fine supports of each (coarse k, transpose) bucket
    of the pairs, relative to the coarse cube, as the per-pair loop
    computed it."""
    unit = 2.0 ** (-engine.grid.window.unit_exp)
    half = (engine.system.m + 1) / 2.0
    hulls: dict = {}
    for kc, transpose, kf, delta in _scalar_keys(engine, pairs):
        du = delta * unit
        side_f = 2.0 ** (-kf)
        lo, hi = hulls.get((kc, transpose), (math.inf, -math.inf))
        hulls[(kc, transpose)] = (min(lo, du - (half - 1.0) * side_f),
                                  max(hi, du + half * side_f))
    return hulls


def _scalar_pairings(engine: Setting, pairs,
                     hulls: dict | None = None) -> np.ndarray:
    """Reference: the per-pair loop with dict memos that PairingEngine
    .pairings used before it worked on integer offset arrays, each field
    from the padded route, T^t's with the transpose's own symbol.  hulls
    maps (coarse k, transpose) to the hull its field covers, by default the
    hull of the given pairs (_scalar_hulls)."""
    out = np.empty(len(pairs))
    grid, system, q_loc = engine.grid, engine.system, engine.q_loc
    unit = 2.0 ** (-grid.window.unit_exp)
    if not engine.op.singular:
        memo: dict = {}
        for idx, (I, J) in enumerate(pairs):
            fine, coarse = (I, J) if I.k >= J.k else (J, I)
            delta = int(cube_box(grid, fine)[0][0]
                        - cube_box(grid, coarse)[0][0])
            key = (fine.k, coarse.k, delta)
            if key not in memo:
                x, vf, h = wavelet_nodes(grid, system, fine, q_loc)
                vc = sample_wavelet(grid, system, coarse, x)
                memo[key] = float(np.sum(vf * vc) * h)
            out[idx] = memo[key]
        return out
    if hulls is None:
        hulls = _scalar_hulls(engine, pairs)
    buckets: dict = {}
    for idx, (I, J) in enumerate(pairs):
        if I.k >= J.k:
            buckets.setdefault((J.k, True), []).append((idx, J, I))
        else:
            buckets.setdefault((I.k, False), []).append((idx, I, J))
    nodes: dict = {}
    for (kc, transpose), members in buckets.items():
        # the reference field of T^t has its own symbol m(-xi), which the
        # library no longer evaluates
        mesh_u, fld = padded_periodic_apply(
            engine.op, operators._field_mesh(
                system, q_loc, engine.pad_factor, kc, hulls[(kc, transpose)]),
            transpose)
        memo = {}
        for idx, coarse, fine in members:
            delta = int(cube_box(grid, fine)[0][0]
                        - cube_box(grid, coarse)[0][0])
            key = (fine.k, delta)
            if key not in memo:
                if fine.k not in nodes:
                    t, vf, hf = system.scaled_nodes(q_loc, fine.k)
                    nodes[fine.k] = (t * 2.0 ** (-fine.k), vf, hf)
                uf, vf, hf = nodes[fine.k]
                vals = np.interp(uf + delta * unit, mesh_u, fld)
                memo[key] = float(np.sum(vf * vals) * hf)
            out[idx] = memo[key]
    return out


def _assert_matches_scalar(engine, pairs):
    for batch in (pairs, [(J, I) for I, J in pairs]):
        got = engine.pairings(batch)
        assert got.shape == (len(batch),)
        assert np.array_equal(got, _scalar_pairings(engine, batch))


def _captured_pairings(monkeypatch, tmp_path, argv):
    """(engine, pairs, values, setting) of every pairings call a CLI run
    makes, where setting holds the operator, system and q_loc of the run's
    one table build and the engine's grid."""
    calls, builds = [], []
    batched, build = PairingEngine.pairings, operators.PairingTable.build

    def capture(self, pairs):
        values = batched(self, pairs)
        calls.append((self, pairs, values))
        return values

    def capture_build(op, system, window, keys, q_loc, **kwargs):
        builds.append((op, system, q_loc))
        return build(op, system, window, keys, q_loc, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(PairingEngine, "pairings", capture)
        m.setattr(operators.PairingTable, "build", capture_build)
        assert main(argv + ["--outdir", str(tmp_path)]) == 0
    (op, system, q_loc), = builds
    return [(engine, pairs, values, Setting(op, engine.grid, system, q_loc))
            for engine, pairs, values in calls]


_AUDIT = ["decay-audit", "--config",
          '{"filter": "db3", "kernel": "hilbert", "L": 4, "k_min": -4, '
          '"k_max": 2, "s": 1}', "--seed", "0"]


def test_pairings_match_scalar_on_audit_pair_set(monkeypatch, tmp_path):
    # the benchmark's audit workload: decay-audit db3, L=4, k=-4..2, seed 0,
    # whose table holds the keys of its pairs alone
    calls = _captured_pairings(monkeypatch, tmp_path, _AUDIT)
    assert len(calls) == 1
    _, pairs, values, setting = calls[0]
    assert len(pairs) > 1000
    assert np.array_equal(values, _scalar_pairings(setting, pairs))
    _assert_matches_scalar(setting, pairs)


def test_pairings_of_view_match_cube_list_on_audit_pair_set(monkeypatch,
                                                            tmp_path):
    # the benchmark's audit workload hands pairings a CubePairs; the same
    # pairs as a list of Cube tuples give the same values, bit for bit
    (_, view, values, setting), = _captured_pairings(monkeypatch, tmp_path,
                                                     _AUDIT)
    assert isinstance(view, CubePairs) and len(view) > 1000
    as_list = list(view)
    assert all(type(I) is Cube and type(J) is Cube for I, J in as_list)
    got, ref = setting.pairings(view), setting.pairings(as_list)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    assert np.array_equal(values.view(np.int64), ref.view(np.int64))


def test_pairings_match_scalar_on_represent_grids(monkeypatch, tmp_path):
    # the benchmark's represent workload: haar, L=8, k=-8..5, two grids,
    # whose engines read one table built over the keys of both
    cfg = ('{"filter": "haar", "kernel": "hilbert", "L": 8, "k_min": -8, '
           '"k_max": 5, "r": 4, "theta": 1.0, "n_omega": 2}')
    calls = _captured_pairings(
        monkeypatch, tmp_path, ["represent", "--config", cfg, "--seed", "0"])
    assert len(calls) == 2
    table = calls[0][0].table
    assert calls[1][0].table is table
    assert calls[0][0].grid is not calls[1][0].grid
    union: dict = {}
    for _, pairs, _, setting in calls:
        for key, (lo, hi) in _scalar_hulls(setting, pairs).items():
            u_lo, u_hi = union.get(key, (math.inf, -math.inf))
            union[key] = (min(u_lo, lo), max(u_hi, hi))
    for _, pairs, values, setting in calls:
        assert len(pairs) > 10000
        assert np.array_equal(values,
                              _scalar_pairings(setting, pairs, hulls=union))
        # a table over one grid's keys alone keeps that grid's hull
        _assert_matches_scalar(setting, pairs)
    keys = {key for _, pairs, _, setting in calls
            for key in _scalar_keys(setting, pairs)}
    results = json.loads((tmp_path / "manifest.json").read_text())["results"]
    assert results["pairings"] == {
        "pairs": sum(len(p) for _, p, _, _ in calls), "keys": len(keys),
        "fields": len(union)}
    assert (len(union), len(keys)) == (25, 5274)


def test_identity_pairings_match_scalar_on_represent_grids(monkeypatch,
                                                          tmp_path):
    # the identity calibration takes the same route: both grids read one
    # run table, which builds no field
    cfg = ('{"filter": "db2", "kernel": "identity", "L": 6, "k_min": -6, '
           '"k_max": 4, "r": 4, "theta": 1.0, "n_omega": 2}')
    calls = _captured_pairings(
        monkeypatch, tmp_path, ["represent", "--config", cfg, "--seed", "0"])
    assert len(calls) == 2
    assert calls[1][0].table is calls[0][0].table
    for _, pairs, values, setting in calls:
        assert len(pairs) > 1000
        assert np.array_equal(values, _scalar_pairings(setting, pairs))
    keys = {key for _, pairs, _, setting in calls
            for key in _scalar_keys(setting, pairs)}
    results = json.loads((tmp_path / "manifest.json").read_text())["results"]
    assert results["pairings"] == {
        "pairs": sum(len(p) for _, p, _, _ in calls), "keys": len(keys),
        "fields": 0}


def test_run_table_of_one_grid_matches_lone_engine(monkeypatch, tmp_path):
    # n_omega = 1: the run's table holds the keys of one grid, so its
    # values are those of a table over that grid's pairs, bit for bit
    cfg = ('{"filter": "db2", "kernel": "hilbert", "L": 5, "k_min": -5, '
           '"k_max": 3, "r": 4, "theta": 1.0, "n_omega": 1}')
    calls = _captured_pairings(
        monkeypatch, tmp_path, ["represent", "--config", cfg, "--seed", "3"])
    assert len(calls) == 1
    engine, pairs, values, setting = calls[0]
    assert len(pairs) > 1000
    assert np.array_equal(values, setting.pairings(pairs))
    results = json.loads((tmp_path / "manifest.json").read_text())["results"]
    assert results["pairings"] == pairing_counts(
        setting.op, cube_pair_keys(engine.grid, pairs))


def test_table_lookup_rejects_missing_keys():
    w = Window(L=3, k_min=-3, k_max=4)
    grid = DyadicGrid.random(w, 2)
    system = build_system("haar", q=10)
    H = make_operator("hilbert")
    I, J, K = Cube(2, (5,)), Cube(2, (9,)), Cube(0, (1,))
    keys = cube_pair_keys(grid, [(I, J), (I, K)])
    table = operators.PairingTable.build(H, system, w, keys, q_loc=8)
    engine = PairingEngine(grid, table)
    pairs = [(I, K), (I, J), (I, K)]
    assert np.array_equal(engine.pairings(cube_pairs(pairs)),
                          Setting(H, grid, system, 8).pairings(pairs))
    # (K, I) has the offset of (I, K) in another (coarse k, transpose,
    # fine k) block
    other_block = cube_pair_keys(grid, [(K, I)])
    assert other_block[0, 3] in table.keys[:, 3]
    with pytest.raises(KeyError):
        engine.pairings(cube_pairs([(K, I)]))
    # an offset no row of the table has
    L = Cube(2, (10,))
    absent = cube_pair_keys(grid, [(I, L)])
    assert absent[0, 3] not in table.keys[:, 3]
    with pytest.raises(KeyError):
        engine.pairings(cube_pairs([(I, L)]))
    with pytest.raises(KeyError):
        table.lookup(np.concatenate([keys, absent]))


@pytest.mark.parametrize("seed", [None, 0])
def test_table_keys_injective_on_deepest_window(seed):
    # the deepest window a config accepts (L + k_max + 1 = 61): offsets
    # between generation -51 cubes and generation 8 cubes near both of
    # their ends span about 2^60 fine sides, so (coarse k, transpose,
    # fine k, offset / fine side) fits no 64-bit layout of biased bit fields
    w = Window(L=52, k_min=-52, k_max=8)
    grid = zero_grid(w) if seed is None else DyadicGrid.random(w, seed)
    system = build_system("haar", q=10)
    ident = make_operator("identity")
    side = w.len_units(8)
    coarse = list(cubes_at_scale(grid, -51))
    fine = []
    for c in coarse:
        lo, hi = cube_box(grid, c)
        a, b = int(lo[0]) // side, int(hi[0]) // side
        fine += [Cube(8, (l,)) for l in (a, a + 1, b - 2, b - 1)]
    cubes = coarse + fine
    I = [a for a in cubes for _ in cubes]
    J = [b for _ in cubes for b in cubes]
    keys = cube_pair_keys(grid, list(zip(I, J)))
    n = keys[:, 3] // side
    assert n.max() - n.min() >= 2 ** 60 - 2
    table = operators.PairingTable.build(ident, system, w, keys, q_loc=6)
    assert np.array_equal(table.keys, np.unique(keys, axis=0))
    got = table.lookup(keys)
    for row, value in zip(keys, got):
        one = operators.PairingTable.build(ident, system, w, row[None, :],
                                           q_loc=6)
        assert one.values[0] == value
    assert np.count_nonzero(got) > 0


def _localized_pairs(grid, system, k_lo, k_hi, span):
    cubes = [c for k in range(k_lo, k_hi + 1)
             for c in cubes_touching(grid, k, *span)]
    return [(I, J) for I in cubes for J in cubes]


@pytest.mark.parametrize("name", ["haar", "db3"])
def test_pairings_match_scalar_identity_branch(name):
    # many pairs repeat a key at another absolute position
    w = Window(L=4, k_min=-2, k_max=5)
    grid = DyadicGrid.random(w, 7)
    system = build_system(name, q=11)
    engine = Setting(make_operator("identity"), grid, system, 9)
    pairs = _localized_pairs(grid, system, -1, 3, (6 * 64, 10 * 64))
    assert len(pairs) > 1000
    _assert_matches_scalar(engine, pairs)


def test_pairings_of_no_pairs(haar_setup):
    grid, system, _ = haar_setup
    for op in ("hilbert", "identity"):
        got = Setting(make_operator(op), grid, system, 10).pairings([])
        assert got.shape == (0,) and got.dtype == float


def test_pairing_chunks_do_not_change_values(monkeypatch):
    w = Window(L=4, k_min=-2, k_max=5)
    grid = DyadicGrid.random(w, 3)
    system = build_system("db2", q=11)
    pairs = _localized_pairs(grid, system, -1, 3, (6 * 64, 10 * 64))
    for op in ("hilbert", "identity"):
        whole = Setting(make_operator(op), grid, system, 9).pairings(pairs)
        # 5000 nodes: one to a few rows per interpolation, ragged last chunk
        monkeypatch.setattr(operators, "PAIRING_MAX_NODES", 5000)
        chunked = Setting(make_operator(op), grid, system, 9).pairings(pairs)
        monkeypatch.undo()
        assert np.array_equal(whole, chunked)


def test_pairing_counts(monkeypatch, tmp_path):
    w = Window(L=3, k_min=-3, k_max=4)
    grid = DyadicGrid.random(w, 1)
    system = build_system("haar", q=10)
    H = make_operator("hilbert")
    I, J, K = Cube(2, (5,)), Cube(2, (9,)), Cube(0, (1,))
    # (I, J) and (J, I) share the field of a generation-2 cube under T^t
    # at opposite offsets; (I, K) and (K, I) need K's field under T^t and T
    keys = cube_pair_keys(grid, [(I, J), (J, I), (I, J), (I, K), (K, I)])
    table = operators.PairingTable.build(H, system, w, keys, q_loc=8)
    assert table.counts == {"keys": 4, "fields": 3}
    assert pairing_counts(H, keys) == {"pairs": 5, "keys": 4, "fields": 3}
    # the decay-audit manifest reports the pairs its engine was given and
    # the distinct keys and fields of its one table
    (engine, pairs, _, _), = _captured_pairings(monkeypatch, tmp_path,
                                                _AUDIT)
    results = json.loads((tmp_path / "manifest.json").read_text())["results"]
    assert results["pairings"] == pairing_counts(
        H, cube_pair_keys(engine.grid, pairs))


_SYSTEMS = {}


def _system(name):
    if name not in _SYSTEMS:
        _SYSTEMS[name] = build_system(name, q=10)
    return _SYSTEMS[name]


@settings(max_examples=25, deadline=None)
@given(k_min=st.integers(-3, 0), depth=st.integers(2, 5),
       extra_L=st.integers(0, 2), name=st.sampled_from(["haar", "db2", "db3"]),
       op=st.sampled_from(["hilbert", "identity"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pairings_match_scalar_reference(k_min, depth, extra_L, name, op,
                                         seed):
    w = Window(L=-k_min + extra_L, k_min=k_min, k_max=k_min + depth)
    rng = np.random.default_rng(seed)
    grid = DyadicGrid.random(w, rng.integers(2 ** 32))
    cubes = [c for k in range(w.k_min, w.k_max + 1)
             for c in cubes_at_scale(grid, k)]
    n = int(rng.integers(1, 120))
    pairs = [(cubes[a], cubes[b])
             for a, b in rng.integers(len(cubes), size=(n, 2))]
    engine = Setting(make_operator(op), grid, _system(name), 6)
    assert np.array_equal(engine.pairings(pairs),
                          _scalar_pairings(engine, pairs))


# ---------------------------------------------------------------------------
# the field pool


def test_oversized_field_is_refused(monkeypatch):
    # two generation-8 cubes 2^51 apart on the deepest window: the field's
    # hull spans about 1.5e20 mesh points, more than any FFT length holds
    def no_sizing(n):
        raise AssertionError("an oversized mesh was sized")

    monkeypatch.setattr(operators, "_next_fast_len", no_sizing)
    grid = DyadicGrid(Window(52, -52, 8))
    engine = Setting(make_operator("hilbert"), grid,
                     build_system("haar", q=10), 6)
    with pytest.raises(ScaleRangeError, match="FIELD_MAX_POINTS") as info:
        engine.pairings([(Cube(8, (0,)), Cube(8, (2 ** 59 - 1,)))])
    assert "\n" not in str(info.value)


def _run_table_build(monkeypatch, tmp_path, cfg):
    """(arguments, table) of the PairingTable.build call of a represent
    run at cfg, seed 0."""
    calls = []
    build = operators.PairingTable.build

    def capture(*args, **kwargs):
        table = build(*args, **kwargs)
        calls.append((args, kwargs, table))
        return table

    monkeypatch.setattr(operators.PairingTable, "build", capture)
    assert main(["represent", "--config", json.dumps(cfg), "--seed", "0",
                 "--outdir", str(tmp_path)]) == 0
    monkeypatch.undo()
    assert len(calls) == 1
    return calls[0]


@pytest.mark.parametrize("name, op", [("haar", "hilbert"),
                                      ("db2", "smoothed_hilbert")])
def test_field_pool_does_not_change_values(monkeypatch, tmp_path, name, op):
    # the benchmark's represent config; its run table is built with the
    # pool, serially (the helper inline), and with the helper switching
    # threads often, where a lost row write would show
    cfg = {"filter": name, "kernel": op, "L": 8, "k_min": -8, "k_max": 5,
           "r": 4, "theta": 1.0, "n_omega": 2}
    args, kwargs, pooled = _run_table_build(monkeypatch, tmp_path, cfg)
    assert pooled.counts["fields"] > 10
    interval = sys.getswitchinterval()
    for inline, switch in ((True, interval), (False, 1e-5)):
        with monkeypatch.context() as m:
            if inline:
                m.setattr(operators, "Thread", InlineThread)
            sys.setswitchinterval(switch)
            try:
                other = operators.PairingTable.build(*args, **kwargs)
            finally:
                sys.setswitchinterval(interval)
        assert np.array_equal(other.keys, pooled.keys)
        assert np.array_equal(other.values, pooled.values)
        assert other.counts == pooled.counts


def test_failing_field_fails_the_build_cleanly(monkeypatch):
    w = Window(L=4, k_min=-2, k_max=5)
    grid = DyadicGrid.random(w, 5)
    system = build_system("db2", q=11)
    pairs = _localized_pairs(grid, system, -1, 3, (6 * 64, 10 * 64))
    keys = cube_pair_keys(grid, pairs)
    real_apply = operators._periodic_apply
    applied, lock = [], threading.Lock()

    def fail_one(op, mesh):
        with lock:  # the first field to start fails, whichever worker
            fail = not applied
            applied.append(fail)
        if fail:
            raise MemoryError("field too large")
        return real_apply(op, mesh)

    monkeypatch.setattr(operators, "_periodic_apply", fail_one)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="field too large"):
        operators.PairingTable.build(make_operator("hilbert"), system, w,
                                     keys, q_loc=8)
    assert threading.active_count() == threads
    assert applied.count(True) == 1


def test_fields_start_largest_first(monkeypatch):
    # with the helper inline, it builds every field, largest first
    w = Window(L=4, k_min=-2, k_max=5)
    grid = DyadicGrid.random(w, 5)
    system = build_system("db2", q=11)
    pairs = _localized_pairs(grid, system, -1, 3, (6 * 64, 10 * 64))
    keys = cube_pair_keys(grid, pairs)
    real_apply = operators._periodic_apply
    sizes = []

    def record(op, mesh):
        sizes.append(mesh.size)
        return real_apply(op, mesh)

    monkeypatch.setattr(operators, "Thread", InlineThread)
    monkeypatch.setattr(operators, "_periodic_apply", record)
    table = operators.PairingTable.build(make_operator("hilbert"), system, w,
                                         keys, q_loc=8)
    assert len(sizes) == table.counts["fields"] > 3
    assert len(set(sizes)) > 1
    assert sizes == sorted(sizes, reverse=True)


def _pool_table_args():
    """(op, system, window, keys) of the db2 Hilbert table of the field-pool
    tests above: more than three fields of several sizes, at q_loc = 8."""
    w = Window(L=4, k_min=-2, k_max=5)
    grid = DyadicGrid.random(w, 5)
    system = build_system("db2", q=11)
    pairs = _localized_pairs(grid, system, -1, 3, (6 * 64, 10 * 64))
    keys = cube_pair_keys(grid, pairs)
    return make_operator("hilbert"), system, w, keys


def test_field_pool_works_from_both_ends(monkeypatch):
    # the helper starts with the largest field and goes on with the
    # largest left, the calling thread starts with the smallest and goes on
    # with the smallest left.  Each waits at its first field until the
    # other has taken one, so both take part however the threads run
    real_apply = operators._periodic_apply
    built, lock = [], threading.Lock()
    both_started = threading.Barrier(2, timeout=20)

    def record(op, mesh):
        me = threading.get_ident()
        with lock:
            first = all(thread != me for thread, *_ in built)
            built.append((me, mesh.size, mesh))
        if first:
            both_started.wait()
        return real_apply(op, mesh)

    monkeypatch.setattr(operators, "_periodic_apply", record)
    table = operators.PairingTable.build(*_pool_table_args(), q_loc=8)
    # every field once: each field task has a mesh of its own
    fields = {id(mesh) for _, _, mesh in built}
    assert len(built) == len(fields) == table.counts["fields"] > 3
    sizes = [size for _, size, _ in built]
    by_thread = {}
    for thread, size, _ in built:
        by_thread.setdefault(thread, []).append(size)
    assert len(by_thread) == 2
    for mine in by_thread.values():
        if mine[0] == max(sizes):
            assert mine == sorted(mine, reverse=True)
        else:
            assert mine[0] == min(sizes)
            assert mine == sorted(mine)


def test_failing_field_starts_no_other(monkeypatch):
    # serially (the helper inline), a first field that fails starts no
    # other field
    calls = []

    def fail(op, mesh):
        calls.append(mesh.size)
        raise MemoryError("field too large")

    monkeypatch.setattr(operators, "Thread", InlineThread)
    monkeypatch.setattr(operators, "_periodic_apply", fail)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="field too large"):
        operators.PairingTable.build(*_pool_table_args(), q_loc=8)
    assert threading.active_count() == threads
    assert len(calls) == 1


def test_failing_helper_field_surfaces_after_meanwhile(monkeypatch):
    # a helper's first field fails while the calling thread waits in
    # meanwhile until the deque is emptied: the field's error is raised
    # once meanwhile returns, the calling thread builds no field, and no
    # thread is left
    cleared = threading.Event()
    builders, waited = [], []

    class WatchedDeque(deque):
        def clear(self):
            super().clear()
            cleared.set()

    def fail(*args):
        builders.append(threading.get_ident())
        raise MemoryError("field too large")

    monkeypatch.setattr(operators, "deque", WatchedDeque)
    monkeypatch.setattr(operators, "_field_task", fail)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="field too large"):
        operators.PairingTable.build(
            *_pool_table_args(), q_loc=8,
            meanwhile=lambda: waited.append(cleared.wait(20)))
    assert waited == [True]
    assert len(builders) == 1 and builders[0] != threading.get_ident()
    assert threading.active_count() == threads


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("op, keys", [("hilbert", True), ("identity", True),
                                      ("hilbert", False)])
def test_meanwhile_runs_once(monkeypatch, threads, op, keys):
    # with fields, with rows but no field, and with no row at all, on one
    # thread (the helper inline) and on two; a table with a field makes one
    # helper, any other none
    _, system, w, all_keys = _pool_table_args()
    ran, made = [], []

    class Counted(InlineThread if threads == 1 else threading.Thread):
        def __init__(self, target):
            made.append(target)
            super().__init__(target=target)

    monkeypatch.setattr(operators, "Thread", Counted)
    table = operators.PairingTable.build(
        make_operator(op), system, w, all_keys if keys else all_keys[:0],
        q_loc=8, meanwhile=lambda: ran.append(threading.get_ident()))
    assert ran == [threading.get_ident()]
    assert (table.counts["fields"] > 0) == (keys and op == "hilbert")
    assert len(made) == (table.counts["fields"] > 0)


@pytest.mark.parametrize("name, op", [("haar", "hilbert"),
                                      ("db2", "hilbert"),
                                      ("db3", "smoothed_hilbert")])
def test_transposed_field_is_the_negated_field(name, op):
    # both kernels are odd, T^t = -T: the table builds T's field for each
    # transposed run of keys too and negates the run's rows, which gives
    # the rows of the reference T^t field (its own symbol m(-xi), the tail
    # subtracted) on the run's mesh, bit for bit but for the sign of an
    # exact zero: a quadrature sum that cancels, as haar's do on symmetric
    # pairs, is +0.0 in either orientation, so the negated row reads -0.0
    w = Window(L=4, k_min=-2, k_max=5)
    grid = DyadicGrid.random(w, 5)
    system = build_system(name, q=11)
    setting = Setting(make_operator(op), grid, system, 8)
    pairs = _localized_pairs(grid, system, -1, 3, (6 * 64, 10 * 64))
    transposed = [(I, J) for I, J in pairs if I.k >= J.k]
    assert 1000 < len(transposed) < len(pairs)
    got = setting.pairings(pairs)[np.array([I.k >= J.k for I, J in pairs])]
    ref = _scalar_pairings(setting, transposed)
    assert np.array_equal(got, ref)
    _assert_same_bits(got[ref != 0.0], ref[ref != 0.0])


@pytest.mark.parametrize("name", ["haar", "db3"])
@pytest.mark.parametrize("op", ["hilbert", "smoothed_hilbert"])
def test_field_matches_padded_route_bitwise(name, op):
    # rfft pads the samples itself and the odd symbol turns the spectrum
    # in place: the same bits as the padded buffer with the complex symbol
    system = build_system(name, q=11)
    op = make_operator(op)
    for k in (-3, 0, 2):
        side = 2.0 ** (-k)
        for hull in ((-2.0 * side, 3.0 * side), (0.5 * side, 9.0 * side)):
            mesh = operators._field_mesh(system, 8, 8, k, hull)
            got = operators._periodic_apply(op, mesh)
            for a, b in zip(got, padded_periodic_apply(op, mesh)):
                _assert_same_bits(a, b)


@pytest.mark.parametrize("name", ["haar", "db3"])
@pytest.mark.parametrize("op", ["hilbert", "smoothed_hilbert"])
@pytest.mark.parametrize("transpose", [False, True])
def test_field_peak_memory(name, op, transpose):
    # no padded buffer, and no frequency array but smoothed_hilbert's: a
    # field of N mesh points peaks below 22 N traced bytes (pocketfft's
    # scratch is not traced); the warm-up call keeps one-time allocations
    # out.  T^t's field is T's negated (T^t = -T), in place, so the
    # transpose adds no buffer.  On the wide hull the interior is most of
    # the mesh (haar: 253,953 of 286,720 points), so the tail correction
    # must not hold interior-sized temporaries
    op = make_operator(op)
    system = build_system(name, q=11)
    for hull in ((-2.0, 3.0), (0.5, 60.0)):
        mesh = operators._field_mesh(system, 10, 8, 0, hull)
        operators._periodic_apply(op, mesh)
        tracemalloc.start()
        try:
            _, out = operators._periodic_apply(op, mesh)
            if transpose:
                np.negative(out, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22 * mesh.size, hull


@pytest.mark.parametrize("op", ["hilbert", "identity"])
def test_table_of_no_keys(op):
    w = Window(L=3, k_min=-3, k_max=4)
    table = operators.PairingTable.build(
        make_operator(op), build_system("haar", q=10), w,
        np.empty((0, 4), dtype=np.int64), q_loc=8)
    assert table.keys.shape == (0, 4) and table.values.shape == (0,)
    assert table.counts == {"keys": 0, "fields": 0}
    got = table.lookup(np.empty((0, 4), dtype=np.int64))
    assert got.shape == (0,) and got.dtype == float


def test_next_fast_len_matches_scipy():
    # the same FFT sizes as scipy's complex next_fast_len, so every mesh
    # keeps its size: each n up to 20,000, and seeded sizes up to 2^26,
    # FIELD_MAX_POINTS
    from scipy.fft import next_fast_len
    rng = np.random.default_rng(2026)
    sizes = list(range(1, 20_001)) + rng.integers(
        20_001, operators.FIELD_MAX_POINTS + 1, 2_000).tolist()
    for n in sizes:
        assert operators._next_fast_len(n) == next_fast_len(n), n
