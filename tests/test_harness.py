import math
import sys
import threading
import tracemalloc
from collections import deque

import numpy as np
import pytest

from dyadshift.dyadic import (Cube, DyadicGrid, ScaleRangeError, Window,
                              is_bad_batch, union_bound)
from dyadshift import harness, operators
from dyadshift.harness import (NoiseFloorError, class_bound,
                               convergence_experiment, decay_audit,
                               expansion_identity, ground_truth,
                               localized_coefficients, localized_cubes,
                               psi_refinement, randomized_expansion,
                               _pi_good_by_scale, _sample_pairs)
from dyadshift.operators import (PairingEngine, PairingTable, TestFunction,
                                 make_operator, support_intervals)
from dyadshift.shifts import classify_batch
from dyadshift.wavelets import build_system
from conftest import InlineThread
from references import (WindowTruncationError, cube_arrays, cube_pair_keys,
                        cubes_at_scale, decay_audit_loop, dilate_box,
                        localized_coefficient, localized_cube_list,
                        lone_pairings, pairing_counts, scalar_classify_pair,
                        zero_grid)


def _goodness(grid, cubes, r, theta):
    """Cube -> goodness, cubes too coarse to be tested counting as good."""
    bad = is_bad_batch(grid, *cube_arrays(cubes), r, theta)
    return dict(zip(cubes, (~bad).tolist()))


def test_psi_refinement_properties():
    assert psi_refinement(1.0, 2) == 1.0
    # monotone on a dyadic ladder and always at least t^s
    vals = [psi_refinement(0.5 ** n, 2) for n in range(0, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    for n in range(1, 8):
        t = 0.5 ** n
        assert psi_refinement(t, 2) >= t ** 2
    with pytest.raises(ValueError):
        psi_refinement(0.0, 2)
    with pytest.raises(ValueError):
        psi_refinement(1.5, 2)


def test_localized_cubes_haar_exact():
    w = Window(L=3, k_min=0, k_max=3)
    g = zero_grid(w)
    system = build_system("haar", q=9)
    k, l = localized_cubes(g, system, (2.1, 2.9))
    assert k.dtype == l.dtype == np.int64
    # side 1/2 cubes touching [2.1, 2.9]: [2, 2.5) and [2.5, 3)
    assert l[k == 1].tolist() == [4, 5]


@pytest.mark.parametrize("name", ["haar", "db2", "db4"])
def test_localized_cubes_beyond_the_window(name):
    # a span past int64 units gives the whole window, and spans wholly
    # left or right of it, near or far, keep exactly the cubes whose
    # m-dilate reaches them, as the scalar reference finds them
    w = Window(L=4, k_min=-4, k_max=2)
    system = build_system(name, q=6)
    for seed in (0, 3):
        grid = DyadicGrid.random(w, seed)
        whole = cube_arrays(c for k in range(w.k_min, w.k_max + 1)
                            for c in cubes_at_scale(grid, k))
        for span in ((-1e30, 1e30), (0.0, 16.0)):
            got = localized_cubes(grid, system, span)
            assert all(np.array_equal(a, b) for a, b in zip(got, whole))
        for span in ((-1e30, -1e29), (-40.0, -20.0), (-9.0, -0.5),
                     (-2.0, -1.0), (17.0, 19.0), (30.0, 60.0),
                     (1e29, 1e30)):
            got = localized_cubes(grid, system, span)
            ref = cube_arrays(localized_cube_list(grid, system, span))
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_localized_coefficient_mesh_stable():
    w = Window(L=3, k_min=0, k_max=5)
    g = zero_grid(w)
    system = build_system("db3", q=12)
    f = TestFunction(center=4.0, halfwidth=0.9)
    kl = cube_arrays([Cube(2, (15,))])
    (a,) = localized_coefficients(g, system, *kl, f, 9)
    (b,) = localized_coefficients(g, system, *kl, f, 11)
    assert abs(a - b) < 1e-6


@pytest.mark.parametrize("name", ["haar", "db2", "db3"])
def test_localized_coefficients_match_one_cube_reference(name, monkeypatch):
    # every cube whose m-dilate meets a span wider than the function's
    # support: cubes inside the support, cubes clipped by it and cubes
    # that miss it, which must give exactly 0.0
    system = build_system(name, q=10)
    for w, center in ((Window(L=4, k_min=-4, k_max=3), 7.9),
                      (Window(L=6, k_min=-3, k_max=5), 20.3)):
        for seed in (1, 2):
            grid = DyadicGrid.random(w, seed)
            for tilt in (0, 1):
                f = TestFunction(center=center, halfwidth=0.8, tilt=tilt)
                span = (f.support[0] - 1.5, f.support[1] + 1.5)
                cubes = localized_cube_list(grid, system, span)
                k, l = localized_cubes(grid, system, span)
                assert all(np.array_equal(a, b) for a, b in
                           zip((k, l), cube_arrays(cubes)))
                got = localized_coefficients(grid, system, k, l, f, 7)
                ref = [localized_coefficient(grid, system, c, f, 7)
                       for c in cubes]
                assert np.array_equal(got, ref)
                lo, hi = support_intervals(grid, system, k, l)
                miss = (hi <= f.support[0]) | (lo >= f.support[1])
                clipped = ~miss & ((lo < f.support[0])
                                   | (hi > f.support[1]))
                inside = ~miss & ~clipped
                assert miss.any() and clipped.any() and inside.any()
                assert np.all(got[miss] == 0.0)
                assert np.count_nonzero(got[~miss]) > 0
                # a few cubes per 2-D block, with a ragged last chunk
                with monkeypatch.context() as m:
                    m.setattr(operators, "PAIRING_MAX_NODES", 3000)
                    assert np.array_equal(localized_coefficients(
                        grid, system, k, l, f, 7), got)


def test_decay_audit_needs_seminorm():
    w = Window(L=2, k_min=-2, k_max=1)
    system = build_system("haar", q=9)
    with pytest.raises(ValueError, match="'identity'"):
        decay_audit(make_operator("identity"), system, zero_grid(w), s=1,
                    eps=0.5, theta=1.0, i_max=3, j_max=3)


def test_decay_audit_refuses_oversized_span_block(monkeypatch):
    # a span bounds the cubes, so their counts are checked once they are
    # localized, before any pair array is built
    w = Window(L=4, k_min=-4, k_max=4)
    system = build_system("db2", q=9)

    def no_pairs(*args):
        raise AssertionError("pairs were classified")

    monkeypatch.setattr(harness, "AUDIT_MAX_PAIRS", 100)
    monkeypatch.setattr(harness, "classify_batch", no_pairs)
    with pytest.raises(ScaleRangeError, match="AUDIT_MAX_PAIRS"):
        decay_audit(make_operator("hilbert"), system,
                    DyadicGrid.random(w, 0), s=1, eps=0.5, theta=1.0,
                    i_max=3, j_max=3, span=(7.0, 9.0))


def test_ground_truth_does_not_depend_on_placement():
    # the README pair placed at 2^L / 2, as the CLI places it, for the
    # windows L = 0..10: <g, H f> is translation invariant.  The tail
    # correction of _periodic_apply is evaluated in absolute coordinates,
    # so the value drifts beyond these windows (6e-12 at L = 12, 1.4e-4 at
    # L = 20; a CHANGES.md FOUND); L = 10 differs by 2e-13
    op = make_operator("hilbert")
    values = []
    for L in range(11):
        centre = 2.0 ** L / 2.0
        f = TestFunction(center=centre - 0.7, halfwidth=0.8)
        g = TestFunction(center=centre + 0.9, halfwidth=0.7)
        values.append(ground_truth(op, f, g, res=12))
    assert max(abs(v - values[0]) for v in values) <= 1e-12 * abs(values[0])


def test_ground_truth_identity_matches_plain_product():
    f = TestFunction(center=3.9, halfwidth=0.8)
    g = TestFunction(center=4.2, halfwidth=0.7)
    op = make_operator("identity")
    # the midpoint sum of f g over the supports' hull, at mesh 2^-14
    lo, hi = min(f.support[0], g.support[0]), max(f.support[1], g.support[1])
    h = 0.5 ** 14
    x = lo + (np.arange(math.ceil((hi - lo) / h)) + 0.5) * h
    assert abs(ground_truth(op, f, g, res=11)
               - float(np.sum(f(x) * g(x)) * h)) < 1e-6


def test_class_bound_arithmetic():
    # far: czs 2^{-(i+j)/2} 2^{i theta (1+s)} 2^{-i s}
    assert math.isclose(class_bound("far", 2, 1, 2, 0.5, 0.5, 1.0, 3.0),
                        2.0 ** -1.5 * 2.0 ** (2 * 0.5 * 3) * 2.0 ** -4)
    # contained/between: (czs + |T|) 2^{-gap/2} 2^{-gap(s-eps)}
    assert math.isclose(class_bound("contained", 4, 1, 2, 0.5, 0.5, 1.0,
                                    3.0),
                        4.0 * 2.0 ** -1.5 * 2.0 ** -4.5)
    assert class_bound("equal", 2, 2, 2, 0.5, 0.5, 1.0, 3.0) == 3.0


@pytest.fixture(scope="module")
def audit_small():
    w = Window(L=3, k_min=-3, k_max=3)
    grid = zero_grid(w)
    system = build_system("haar", q=9)
    op = make_operator("hilbert")
    rows, info = decay_audit(op, system, grid, s=1, eps=0.5, theta=1.0,
                             i_max=5, j_max=5, q_loc=9)
    return rows, info


def test_decay_audit_row_accounting(audit_small):
    rows, info = audit_small
    assert info["pairs_seen"] > 0
    assert all(r.pair_count > 0 for r in rows)
    assert all(r.ratio == pytest.approx(r.max_pairing / r.bound)
               for r in rows)
    kinds = {r.kind for r in rows}
    assert kinds <= {"far", "between", "contained", "equal", "near"}
    # the refined modulus applies exactly to deep contained/between cells
    for r in rows:
        if r.kind in ("between", "contained") and r.i > r.j:
            assert r.psi_bound is not None
        else:
            assert r.psi_bound is None


def test_decay_audit_badness_filter_matches_pair_loop():
    # the counters and rows of an audit with r against a per-pair loop
    # through the one-pair classification and per-cube goodness, in the
    # same pair order
    w = Window(L=3, k_min=-3, k_max=3)
    grid = DyadicGrid.random(w, 4)
    system = build_system("db2", q=9)
    op = make_operator("hilbert")
    r, theta, i_max, j_max = 3, 1.0, 4, 2
    rows, info = decay_audit(op, system, grid, s=1, eps=0.5, theta=theta,
                             i_max=i_max, j_max=j_max, q_loc=9, r=r)
    assert rows
    cubes = [c for k in range(w.k_min, w.k_max + 1)
             for c in cubes_at_scale(grid, k)]
    good = _goodness(grid, cubes, r, theta)
    ref = {"window_truncated": 0, "badness_excluded": 0, "pairs_seen": 0}
    selected = []
    for I in cubes:
        for J in cubes:
            if I.k < J.k:
                continue
            ref["pairs_seen"] += 1
            try:
                kind, _, i, j = scalar_classify_pair(grid, I, J, theta,
                                                     system.m)
            except WindowTruncationError:
                ref["window_truncated"] += 1
                continue
            if i > i_max or j > j_max:
                continue
            if not good[I]:
                ref["badness_excluded"] += 1
                continue
            selected.append((I, J, (kind, i, j)))
    assert min(ref.values()) > 0
    pairs = [(I, J) for I, J, _ in selected]
    values = lone_pairings(op, grid, system, pairs, q_loc=9)
    ref["pairings"] = pairing_counts(op, cube_pair_keys(grid, pairs))
    assert info == ref
    cells = {}
    for (_, _, cell), v in zip(selected, values):
        count, mx = cells.get(cell, (0, 0.0))
        cells[cell] = (count + 1, max(mx, abs(float(v))))
    assert [(r.kind, r.i, r.j, r.pair_count, r.max_pairing) for r in rows] \
        == [key + val for key, val in sorted(cells.items())]


def test_expansion_identity_small_defect():
    w = Window(L=12, k_min=-12, k_max=6)
    grid = zero_grid(w)
    system = build_system("haar", q=10)
    op = make_operator("identity")
    f = TestFunction(center=2047.9, halfwidth=0.8)
    g = TestFunction(center=2048.2, halfwidth=0.7)
    res = expansion_identity(op, system, grid, f, g, q_loc=10)
    assert res["defect"] < 1e-4
    assert res["pair_count"] > 0


def test_expansion_identity_refuses_merged_nodes(monkeypatch):
    # the README pair centred at 2^45: one ulp there is 2^-7, coarser than
    # the finest node spacing 2^-(10 + 2), so float64 would merge the
    # quadrature nodes; refused as _sample_pairs refuses it, before any
    # coefficient is computed
    w = Window(L=46, k_min=-2, k_max=2)
    system = build_system("haar", q=10)
    centre = 2.0 ** 45
    f = TestFunction(center=centre - 0.7, halfwidth=0.8)
    g = TestFunction(center=centre + 0.9, halfwidth=0.7)

    def no_coefficients(*args):
        raise AssertionError("a coefficient was computed")

    monkeypatch.setattr(harness, "localized_coefficients", no_coefficients)
    with pytest.raises(ScaleRangeError, match="cannot separate"):
        expansion_identity(make_operator("hilbert"), system, zero_grid(w),
                           f, g, q_loc=10)


def test_pi_good_by_scale_vacuous_and_certified():
    w = Window(L=3, k_min=-2, k_max=8)
    pg = _pi_good_by_scale(w, r=5, theta=1.0)
    # coarse generations have no admissible ancestor: vacuously good
    for k in range(w.k_min, w.k_min + 5):
        assert pg[k] == 1.0
    # certified lower bound 1 - (8d/theta) 2^{-r theta} = 0.75
    assert all(p >= 0.75 for p in pg.values())


def test_randomized_expansion_rejects_hopeless_bound():
    w = Window(L=3, k_min=-2, k_max=6)
    system = build_system("haar", q=9)
    op = make_operator("identity")
    f = TestFunction(center=3.9, halfwidth=0.8)
    g = TestFunction(center=4.2, halfwidth=0.7)
    assert union_bound(1, 0.5) > 1.0
    with pytest.raises(ScaleRangeError):
        randomized_expansion(op, system, w, f, g, r=1, theta=0.5,
                             n_omega=2, seed=0)


def test_randomized_expansion_identity_recovers_product():
    w = Window(L=8, k_min=-8, k_max=6)
    system = build_system("haar", q=10)
    op = make_operator("identity")
    f = TestFunction(center=127.9, halfwidth=0.8)
    g = TestFunction(center=128.2, halfwidth=0.7)
    res = randomized_expansion(op, system, w, f, g, r=6, theta=1.0,
                               n_omega=6, seed=3, q_loc=9)
    assert len(res["per_sample"]) == 6
    assert res["stderr"] > 0.0
    assert abs(res["estimate"] - res["truth"]) <= 4.0 * res["stderr"] + 5e-3


def test_convergence_needs_enough_points():
    w = Window(L=4, k_min=-4, k_max=4)
    system = build_system("haar", q=10)
    op = make_operator("hilbert")
    f = TestFunction(center=7.9, halfwidth=0.8, tilt=1)
    g = TestFunction(center=8.2, halfwidth=0.7, tilt=1)
    with pytest.raises(NoiseFloorError):
        convergence_experiment(op, system, w, f, g, s=2, eps=0.5, N_max=2,
                               n_omega=2, seed=0, q_loc=8)


def test_convergence_small_window_slope():
    w = Window(L=6, k_min=-6, k_max=5)
    system = build_system("haar", q=11)
    op = make_operator("hilbert")
    f = TestFunction(center=31.9, halfwidth=0.8, tilt=1)
    g = TestFunction(center=32.2, halfwidth=0.7, tilt=1)
    curve = convergence_experiment(op, system, w, f, g, s=2, eps=0.5,
                                   N_max=7, n_omega=4, seed=7, q_loc=8)
    # e_N must decrease overall and the fitted slope must be negative
    es = [e for _, e, _ in curve.points]
    assert curve.slope < -0.5
    assert es[0] > es[-1]


@pytest.mark.parametrize("m", [1, 3, 5])
def test_pair_levels_reach_but_never_pass_the_depth(m):
    # convergence refuses N_max > k_max - k_min: no classified pair of the
    # window has a level max(i, j) above it, and on the unshifted grid
    # some pair has exactly that level
    w = Window(L=3, k_min=-3, k_max=3)
    for seed in (None, 0, 1, 2):
        grid = zero_grid(w) if seed is None else DyadicGrid.random(w, seed)
        k, l = localized_cubes(grid, build_system("haar", q=9),
                               (0.0, 8.0))
        I, J = np.nonzero(k[:, None] >= k[None, :])
        _, _, _, i, j, truncated = classify_batch(grid, k[I], l[I], k[J],
                                                  l[J], 1.0, m)
        levels = np.maximum(i, j)[~truncated]
        assert levels.max() <= w.k_max - w.k_min
        if seed is None:
            assert k.size == 2 ** 7 - 1
            assert levels.max() == w.k_max - w.k_min


@pytest.mark.parametrize("name, r", [("haar", 3), ("db2", 4)])
def test_sample_pairs_matches_pair_loop(name, r):
    # the weighting and classification of one grid sample against the
    # per-pair loop it replaced, value for value; goodness excludes pairs
    # and some joins leave the window
    w = Window(L=4, k_min=-4, k_max=3)
    system = build_system(name, q=9)
    op = make_operator("hilbert")
    f = TestFunction(center=7.9, halfwidth=0.8, tilt=1)
    g = TestFunction(center=8.2, halfwidth=0.7, tilt=1)
    theta, q_loc, seed = 1.0, 7, (5, 1)
    ((got_weighted, got_levels, got_excluded),), counts, _, pi_good = \
        _sample_pairs(op, system, w, f, g, r, theta, q_loc, seed[0],
                      range(seed[1], seed[1] + 1), classify=True,
                      reduce=lambda *terms: terms)
    assert pi_good == _pi_good_by_scale(w, r, theta)
    grid = DyadicGrid.random(w, seed)
    cubes_f = localized_cube_list(grid, system, f.support)
    cubes_g = localized_cube_list(grid, system, g.support)
    cf = {c: localized_coefficient(grid, system, c, f, q_loc) for c in cubes_f}
    cg = {c: localized_coefficient(grid, system, c, g, q_loc) for c in cubes_g}
    pairs = [(I, J) for I in cubes_f for J in cubes_g]
    good = _goodness(grid, cubes_f + cubes_g, r, theta)
    values = lone_pairings(op, grid, system, pairs, q_loc=q_loc)
    weighted = np.zeros(len(pairs))
    levels = np.full(len(pairs), -1, dtype=int)
    excluded = 0
    for idx, (I, J) in enumerate(pairs):
        sm = I if I.k >= J.k else J
        if not good[sm]:
            continue
        weighted[idx] = cf[I] * float(values[idx]) * cg[J] / pi_good[sm.k]
        fine, coarse = (I, J) if I.k >= J.k else (J, I)
        try:
            _, _, i, j = scalar_classify_pair(grid, fine, coarse, theta,
                                              system.m)
        except WindowTruncationError:
            excluded += 1
            continue
        levels[idx] = max(i, j)
    assert np.array_equal(got_weighted, weighted)
    assert np.array_equal(got_levels, levels)
    assert got_excluded == excluded > 0
    assert 0 < np.count_nonzero(weighted) < len(pairs)
    # one grid: the run's table holds exactly the keys of its pairs
    assert counts == pairing_counts(op, cube_pair_keys(grid, pairs))


def _loop_overlap_pairs(grid, system, cubes_f, cubes_g):
    """Reference: the per-pair support test expansion_identity made
    before it compared all dilates at once, on the one-cube dilate_box."""
    unit = 2.0 ** (-grid.window.unit_exp)

    def support(cube):
        lo, hi = dilate_box(grid, cube, system.m)
        return float(lo[0]) * unit, float(hi[0]) * unit

    def overlaps(a, b):
        lo_a, hi_a = support(a)
        lo_b, hi_b = support(b)
        return max(lo_a, lo_b) < min(hi_a, hi_b)
    return [(I, J) for I in cubes_f for J in cubes_g if overlaps(I, J)]


@pytest.mark.parametrize("name, seed", [("haar", 0), ("db3", 1), ("db2", 2)])
def test_expansion_identity_overlap_pairs_match_pair_loop(monkeypatch,
                                                          name, seed):
    w = Window(L=6, k_min=-6, k_max=4)
    grid = DyadicGrid.random(w, seed)
    system = build_system(name, q=9)
    f = TestFunction(center=31.9, halfwidth=0.8)
    g = TestFunction(center=32.6, halfwidth=0.7)
    calls = []
    batched = PairingEngine.pairings

    def capture(self, pairs):
        values = batched(self, pairs)
        calls.append((list(pairs), values))
        return values

    monkeypatch.setattr(PairingEngine, "pairings", capture)
    res = expansion_identity(make_operator("identity"), system, grid, f, g,
                             q_loc=7)
    cubes_f = localized_cube_list(grid, system, f.support)
    cubes_g = localized_cube_list(grid, system, g.support)
    ref = _loop_overlap_pairs(grid, system, cubes_f, cubes_g)
    assert [pairs for pairs, _ in calls] == [ref]
    assert res["pair_count"] == len(ref)
    assert 0 < len(ref) < len(cubes_f) * len(cubes_g)
    # the sum, bit for bit, as the per-pair loop over the sorted pairs
    # with Cube-keyed coefficients made it
    cf = {c: localized_coefficient(grid, system, c, f, 7) for c in cubes_f}
    cg = {c: localized_coefficient(grid, system, c, g, 7) for c in cubes_g}
    total = 0.0
    for (I, J), v in sorted(zip(ref, calls[0][1]),
                            key=lambda t: (t[0][0].k, t[0][0].l,
                                           t[0][1].k, t[0][1].l)):
        total += cf[I] * float(v) * cg[J]
    assert res["sum"] == total


@pytest.mark.parametrize("name", ["haar", "db3"])
@pytest.mark.parametrize("r", [None, 3])
@pytest.mark.parametrize("span", [None, (6.3, 9.4)])
def test_decay_audit_matches_cube_list_loop(name, r, span):
    # the rows and info, exactly, of the audit over int64 pair arrays
    # against the loop over a Cube list with a dict of cells it replaced
    w = Window(L=4, k_min=-4, k_max=2)
    grid = DyadicGrid.random(w, 2)
    system = build_system(name, q=9)
    op = make_operator("hilbert")
    args = (op, system, grid, 1, 0.5, 1.0, 5, 5)
    rows, info = decay_audit(*args, q_loc=8, r=r, span=span)
    ref_rows, ref_info = decay_audit_loop(*args, q_loc=8, r=r, span=span)
    assert len(rows) > 5
    assert rows == ref_rows
    assert info == ref_info
    assert (info["badness_excluded"] > 0) == (r is not None)


def test_decay_audit_empty_span():
    # a span that meets no window cube gives no rows and no pairings
    w = Window(L=3, k_min=-3, k_max=3)
    system = build_system("haar", q=9)
    rows, info = decay_audit(make_operator("hilbert"), system, zero_grid(w),
                             s=1, eps=0.5, theta=1.0, i_max=3, j_max=3,
                             span=(20.0, 21.0))
    assert rows == []
    assert info["pairs_seen"] == 0 and info["pairings"]["pairs"] == 0


def test_run_paths_build_no_cube(monkeypatch):
    # the experiments hold cubes and pairs as int64 arrays: none of them
    # constructs a Cube
    built = []
    new = Cube.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Cube, "__new__", counting_new)
    hilbert, identity = make_operator("hilbert"), make_operator("identity")
    haar = build_system("haar", q=9)
    db2 = build_system("db2", q=9)
    w = Window(L=6, k_min=-6, k_max=5)
    f = TestFunction(center=31.9, halfwidth=0.8, tilt=1)
    g = TestFunction(center=32.2, halfwidth=0.7, tilt=1)
    randomized_expansion(hilbert, db2, w, f, g, r=4, theta=1.0, n_omega=2,
                         seed=1, q_loc=7)
    convergence_experiment(hilbert, haar, w, f, g, s=2, eps=0.5, N_max=7,
                           n_omega=4, seed=7, q_loc=8)
    grid = DyadicGrid.random(w, 3)
    for op in (hilbert, identity):
        expansion_identity(op, db2, grid, f, g, q_loc=7)
    small = DyadicGrid.random(Window(L=3, k_min=-3, k_max=3), 3)
    decay_audit(hilbert, db2, small, s=1, eps=0.5, theta=1.0, i_max=4,
                j_max=4, q_loc=8, r=3)
    decay_audit(hilbert, db2, grid, s=1, eps=0.5, theta=1.0, i_max=4,
                j_max=4, q_loc=8, span=(31.0, 33.0))
    assert built == []
    Cube(0, (1,))
    assert built == [(0, (1,))]


def _experiments():
    """Each experiment of the module on a small window, as a callable."""
    hilbert = make_operator("hilbert")
    haar = build_system("haar", q=9)
    db2 = build_system("db2", q=9)
    w = Window(L=6, k_min=-6, k_max=5)
    f = TestFunction(center=31.9, halfwidth=0.8, tilt=1)
    g = TestFunction(center=32.2, halfwidth=0.7, tilt=1)
    small = Window(L=3, k_min=-3, k_max=3)
    return {
        "decay_audit": lambda: decay_audit(
            hilbert, db2, DyadicGrid.random(small, 3), s=1, eps=0.5,
            theta=1.0, i_max=4, j_max=4, q_loc=8, r=3),
        "expansion_identity": lambda: expansion_identity(
            hilbert, db2, DyadicGrid.random(w, 3), f, g, q_loc=7),
        "randomized_expansion": lambda: randomized_expansion(
            hilbert, db2, w, f, g, r=4, theta=1.0, n_omega=3, seed=1,
            q_loc=7),
        "convergence_experiment": lambda: convergence_experiment(
            hilbert, haar, w, f, g, s=2, eps=0.5, N_max=7, n_omega=4,
            seed=7, q_loc=8),
    }


@pytest.mark.parametrize("experiment", ["decay_audit", "expansion_identity",
                                        "randomized_expansion",
                                        "convergence_experiment"])
def test_experiments_build_one_table(monkeypatch, experiment):
    # every experiment builds one table from the keys of all its pairs,
    # and each grid's engine reads its values from it: on one grid they
    # are those of a table over the grid's own pairs, on many those of a
    # table over every grid's pairs at once, bit for bit
    builds, calls = [], []
    build, pairings = PairingTable.build, PairingEngine.pairings

    def count_build(op, system, window, keys, q_loc, **kwargs):
        builds.append((op, system, window, q_loc))
        return build(op, system, window, keys, q_loc, **kwargs)

    def capture(self, pairs):
        values = pairings(self, pairs)
        calls.append((self.grid, pairs, values))
        return values

    run = _experiments()[experiment]
    with monkeypatch.context() as m:
        m.setattr(PairingTable, "build", count_build)
        m.setattr(PairingEngine, "pairings", capture)
        run()
    (op, system, window, q_loc), = builds
    one_grid = experiment in ("decay_audit", "expansion_identity")
    assert (len(calls) == 1) == one_grid
    if one_grid:
        (grid, pairs, values), = calls
        assert np.array_equal(values,
                              lone_pairings(op, grid, system, pairs, q_loc))
    else:
        ref = PairingTable.build(op, system, window, np.concatenate(
            [cube_pair_keys(grid, pairs) for grid, pairs, _ in calls]), q_loc)
        for grid, pairs, values in calls:
            assert np.array_equal(values,
                                  ref.lookup(cube_pair_keys(grid, pairs)))
    assert sum(len(pairs) for _, pairs, _ in calls) > 500


def _held_memory(monkeypatch, n_omega: int) -> dict:
    """The memory a README-window represent run over n_omega grids holds,
    by tracemalloc, when its table build starts ("build") and once every
    grid's pairings are reduced ("reduced", as _sample_pairs returns), and
    the bytes of the table's distinct key rows ("keys")."""
    held = {}
    build, sample = PairingTable.build, harness._sample_pairs

    def at_build(*args, **kwargs):
        held["build"] = tracemalloc.get_traced_memory()[0] - start
        table = build(*args, **kwargs)
        held["keys"] = table.keys.nbytes
        return table

    def at_return(*args, **kwargs):
        result = sample(*args, **kwargs)
        held["reduced"] = tracemalloc.get_traced_memory()[0] - start
        return result

    w = Window(L=8, k_min=-8, k_max=5)
    f = TestFunction(center=127.3, halfwidth=0.8)
    g = TestFunction(center=128.9, halfwidth=0.7)
    system = build_system("haar", q=11)
    with monkeypatch.context() as m:
        m.setattr(PairingTable, "build", at_build)
        m.setattr(harness, "_sample_pairs", at_return)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            randomized_expansion(make_operator("hilbert"), system, w, f, g,
                                 r=4, theta=1.0, n_omega=n_omega, seed=0,
                                 q_loc=10)
        finally:
            tracemalloc.stop()
    return held


def test_randomized_run_memory_does_not_grow_with_n_omega(monkeypatch):
    # each grid's distinct pairing keys are merged into the run's distinct
    # rows as the grid is drawn, and each grid's per-pair terms are reduced
    # right after its lookup.  Beside the run's distinct keys, the run
    # holds only each grid's cubes, coefficients and goodness, a few kB;
    # one grid's own distinct keys take about 0.2 MB
    few, many = _held_memory(monkeypatch, 4), _held_memory(monkeypatch, 16)
    assert many["keys"] > few["keys"]
    grown = (many["build"] - many["keys"]) - (few["build"] - few["keys"])
    assert grown < 12 * 20_000, (few, many)
    assert many["reduced"] <= few["reduced"] + 20_000, (few, many)


def _overlap_case(name: str, op: str):
    """(op, system, window, f, g) of the overlap tests below."""
    return (make_operator(op), build_system(name, q=9),
            Window(L=6, k_min=-6, k_max=5),
            TestFunction(center=31.9, halfwidth=0.8, tilt=1),
            TestFunction(center=32.2, halfwidth=0.7, tilt=1))


@pytest.mark.parametrize("name, op", [("haar", "hilbert"),
                                      ("db2", "smoothed_hilbert"),
                                      ("haar", "identity")])
def test_overlapped_runs_match_serial_ones(monkeypatch, name, op):
    # the calling thread computes the coefficients and the ground truth
    # while the helper builds the run table's fields.  With the helper
    # inline nothing overlaps; with the real helper, and with it switching
    # threads often, where a lost write would show, the results are the
    # same, bit for bit: the randomized expansion's, and the convergence
    # run's partial sums, truth and counts, and its curve where it has one
    # (db2's sums stay within the noise floor)
    op, system, w, f, g = _overlap_case(name, op)
    sample = harness._sample_pairs

    def run():
        sampled = []

        def capture(*args, **kwargs):
            sampled.append(sample(*args, **kwargs))
            return sampled[-1]

        with monkeypatch.context() as m:
            m.setattr(harness, "_sample_pairs", capture)
            rand = randomized_expansion(op, system, w, f, g, r=4,
                                        theta=1.0, n_omega=3, seed=1,
                                        q_loc=7)
            try:
                points = convergence_experiment(
                    op, system, w, f, g, s=2, eps=0.5, N_max=7, n_omega=2,
                    seed=7, q_loc=8).points
            except NoiseFloorError:
                points = None
        return (rand["estimate"], rand["per_sample"], rand["truth"],
                rand["pairings"], sampled[1], points)

    interval = sys.getswitchinterval()
    runs = []
    for inline, switch in ((True, interval), (False, interval),
                           (False, 1e-5)):
        with monkeypatch.context() as m:
            if inline:
                m.setattr(operators, "Thread", InlineThread)
            sys.setswitchinterval(switch)
            try:
                runs.append(run())
            finally:
                sys.setswitchinterval(interval)
    assert (runs[0][3]["fields"] > 3) == op.singular
    assert (runs[0][-1] is None) == (name == "db2")
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@pytest.mark.parametrize("experiment", [
    lambda op, system, w, f, g: randomized_expansion(
        op, system, w, f, g, r=4, theta=1.0, n_omega=2, seed=1, q_loc=7),
    lambda op, system, w, f, g: convergence_experiment(
        op, system, w, f, g, s=2, eps=0.5, N_max=7, n_omega=2, seed=7,
        q_loc=8),
], ids=["randomized_expansion", "convergence_experiment"])
def test_coefficient_failure_during_build_fails_cleanly(monkeypatch,
                                                        experiment):
    # the third coefficient call, on the calling thread, fails while a
    # helper builds its first field.  The deque is emptied, the helper's
    # field ends, no field starts after the failure, and the error leaves
    # the experiment with no thread left.  The helper's first field waits
    # for the deque to be emptied, so the order does not depend on timing
    in_field, failing, cleared = (threading.Event(), threading.Event(),
                                  threading.Event())
    started, calls = [], []  # fields: started after the failure?
    coefficients, task = harness.localized_coefficients, operators._field_task

    class WatchedDeque(deque):
        def clear(self):
            super().clear()
            cleared.set()

    def field(*args):
        started.append(failing.is_set())
        if len(started) == 1:
            in_field.set()
            cleared.wait(20)
        return task(*args)

    def fail_third(*args):
        calls.append(threading.get_ident())
        if len(calls) == 3:
            in_field.wait(20)
            failing.set()
            raise MemoryError("coefficients too large")
        return coefficients(*args)

    monkeypatch.setattr(operators, "deque", WatchedDeque)
    monkeypatch.setattr(operators, "_field_task", field)
    monkeypatch.setattr(harness, "localized_coefficients", fail_third)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="coefficients too large"):
        experiment(*_overlap_case("haar", "hilbert"))
    assert threading.active_count() == threads
    assert calls == [threading.get_ident()] * 3
    assert started == [False]
    assert cleared.is_set()
