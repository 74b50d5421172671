import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chi2

from dyadshift.config import default_r
from dyadshift.dyadic import (Cube, DyadicGrid, ScaleRangeError, Window,
                              _badness_batch, _skeleton_gap, distinct,
                              independence_table, is_bad_batch, union_bound,
                              pi_bad_estimate, pi_bad_exact, theta_reach)
from dyadshift.shifts import classify_batch
from references import (cube_arrays, cube_pairs, cubes_at_scale,
                        cubes_touching, theta_threshold, zero_grid)


def _is_bad(grid, cube, r, theta):
    return bool(is_bad_batch(grid, *cube_arrays([cube]), r, theta)[0])


def test_window_rejects_too_coarse():
    with pytest.raises(ScaleRangeError):
        Window(L=2, k_min=-3, k_max=4)


@pytest.mark.parametrize("w", [Window(L=1, k_min=0, k_max=3),
                               Window(L=3, k_min=-2, k_max=8),
                               Window(L=40, k_min=-40, k_max=21)])
def test_window_sides_match_len_units(w):
    # the last window has L + k_max + 1 = 62: its coarsest side is 2^62
    gens = np.arange(w.k_min, w.k_max + 1, dtype=np.int64)
    sides = w.sides(gens)
    assert sides.dtype == np.int64
    assert sides.tolist() == [w.len_units(k) for k in gens.tolist()]
    assert w.sides(gens[::-1]).tolist() == sides.tolist()[::-1]
    assert w.sides(np.empty(0, dtype=np.int64)).size == 0
    for k in (w.k_min - 1, w.k_max + 1):
        with pytest.raises(ScaleRangeError, match="generations outside"):
            w.sides(np.array([w.k_min, k]))


def test_shifted_corner_quarter():
    # only the generation-2 bit set: shift of a generation-1 cube is 2^-2
    w = Window(L=1, k_min=0, k_max=3)
    omega = np.zeros(w.n_shift_bits, dtype=int)
    omega[1] = 1  # bit for generation k_min+1+1 = 2
    lo, _ = DyadicGrid(w, omega).boxes([1], [0])
    assert lo[0] * 2.0 ** (-w.unit_exp) == 0.25


def test_shift_is_sum_of_finer_bits():
    w = Window(L=2, k_min=0, k_max=5)
    rng = np.random.default_rng(0)
    omega = rng.integers(0, 2, size=w.n_shift_bits)
    grid = DyadicGrid(w, omega)
    for k in range(w.k_min, w.k_max):
        expected = sum(int(omega[j - (w.k_min + 1)]) * 2.0 ** -j
                       for j in range(k + 1, w.k_max + 1))
        got = grid.shift_units(k)[0] * 2.0 ** -w.unit_exp
        assert math.isclose(got, expected, abs_tol=1e-15)


def test_cube_arrays_reads_a_generator_once():
    grid = DyadicGrid.random(Window(L=2, k_min=0, k_max=4), 5)
    k, l = cube_arrays(cubes_at_scale(grid, 2))
    assert k.size == l.size == len(list(cubes_at_scale(grid, 2))) > 0
    assert np.array_equal(np.stack([k, l]),
                          cube_arrays(list(cubes_at_scale(grid, 2))))
    lo, hi = grid.boxes(k, l)
    assert np.all(hi > lo)


def test_nestedness_and_disjointness():
    w = Window(L=2, k_min=0, k_max=4)
    grid = DyadicGrid.random(w, 5)
    lo, hi = grid.boxes(*cube_arrays(list(cubes_at_scale(grid, 2))))
    plo, phi = grid.boxes(*cube_arrays(list(cubes_at_scale(grid, 1))))
    lo, hi = lo[:, None], hi[:, None]
    inside = (plo <= lo) & (hi <= phi)
    # a cube is nested in at most one in-window parent; a parent whose
    # closed interval it meets without holding it only touches its ends
    assert inside.sum(axis=1).max() <= 1
    meets = (lo <= phi) & (plo <= hi)
    assert ((phi == lo) | (plo == hi))[meets & ~inside].all()


def _join(grid, fine, coarse, m):
    K_k, K_l, i, j, truncated = classify_batch(
        grid, *cube_arrays([fine]), *cube_arrays([coarse]), 1.0, m)[1:]
    return int(K_k[0]), int(K_l[0]), int(i[0]), int(j[0]), bool(truncated[0])


def test_ancestor_chain():
    w = Window(L=3, k_min=-3, k_max=5)
    grid = zero_grid(w)
    # with m = 1 a cube joins its generation-0 ancestor in that ancestor:
    # [17/8, 18/8) sits inside [2, 3)
    assert _join(grid, Cube(3, (17,)), Cube(0, (2,)), 1) == (0, 2, 3, 0,
                                                            False)


def test_ancestor_join_identity_dilate():
    w = Window(L=3, k_min=-3, k_max=5)
    grid = zero_grid(w)
    K_k, _, i, j, truncated = _join(grid, Cube(3, (9,)), Cube(1, (2,)), 3)
    assert (K_k, i, j, truncated) == (-1, 4, 2, False)


def test_ancestor_join_raises_outside_window():
    w = Window(L=3, k_min=-3, k_max=5)
    grid = zero_grid(w)
    # 3-dilate of [0, 1/8) reaches below 0; no window cube contains it
    fine, coarse = Cube(3, (0,)), Cube(1, (4,))
    assert _join(grid, fine, coarse, 3)[4]
    assert classify_batch(grid, *cube_arrays([fine]), *cube_arrays([coarse]),
                          1.0, 3)[-1].tolist() == [True]


def boundary_dist(grid: DyadicGrid, cube: Cube, k_coarse: int) -> int:
    """Distance from the shifted cube to the union of boundaries of all
    generation-k_coarse cubes of the same grid (the grid skeleton)."""
    w = grid.window
    lo, _ = grid.boxes(*cube_arrays([cube]))
    return int(_skeleton_gap(lo - grid.shift_units(k_coarse),
                             w.len_units(cube.k), w.len_units(k_coarse))[0])


def test_boundary_dist_face_sharing():
    w = Window(L=3, k_min=0, k_max=6)
    grid = zero_grid(w)
    # [1, 1+1/64) touches the generation-0 skeleton line at x=1
    assert boundary_dist(grid, Cube(6, (64,)), 0) == 0


def test_is_bad_face_sharing_ancestor():
    w = Window(L=3, k_min=0, k_max=8)
    grid = zero_grid(w)
    assert _is_bad(grid, Cube(8, (256,)), r=4, theta=1.0)       # at x=1
    assert not _is_bad(grid, Cube(8, (128 + 3,)), r=4, theta=1.0)


def test_union_bound_arithmetic():
    assert union_bound(5, 1.0) == 0.25
    assert union_bound(8, 1.0) == 0.03125
    # default-resolution example: theta=0.25 -> smallest r with
    # 32 * 2^(-r/4) <= 1/2 is 24
    assert default_r(0.25) == 24


def test_pi_bad_exact_oracles():
    # ladder of fully-enumerable windows; frozen values from the geometric
    # structure: bad fraction at theta=1 doubles the one-sided reach 2^-r
    # per contributing generation
    w = Window(L=3, k_min=-2, k_max=8)
    assert pi_bad_exact(w, 6, r=5, theta=1.0) == 0.125
    assert pi_bad_exact(w, 6, r=8, theta=1.0) == 0.015625


def test_pi_bad_estimate_matches_exact():
    w = Window(L=3, k_min=-2, k_max=8)
    rep = pi_bad_estimate(w, r=5, theta=1.0, samples=100_000, seed=1, k_ref=6)
    exact = pi_bad_exact(w, 6, r=5, theta=1.0)
    assert abs(rep.pi_bad_hat - exact) <= 4.0 * rep.stderr
    assert rep.pi_bad_hat <= rep.bound


def test_independence_chi_square():
    w = Window(L=3, k_min=-2, k_max=8)
    table = independence_table(w, r=5, theta=1.0, samples=10_000, seed=2,
                               k_ref=5)
    assert table.sum() == 10_000
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row * col / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    p = float(chi2.sf(stat, dof))
    assert p > 0.001


def test_badness_independent_of_position_exactly():
    # badness reads bits of generations <= k_ref, position reads finer bits;
    # flipping fine bits never changes badness
    w = Window(L=2, k_min=0, k_max=6)
    rng = np.random.default_rng(3)
    for _ in range(50):
        omega = rng.integers(0, 2, size=w.n_shift_bits)
        grid = DyadicGrid(w, omega)
        c = Cube(3, (rng.integers(0, 8),))
        before = _is_bad(grid, c, r=3, theta=1.0)
        omega2 = omega.copy()
        omega2[3:] ^= 1  # generations > 3
        after = _is_bad(DyadicGrid(w, omega2), c, r=3, theta=1.0)
        assert before == after


def test_cubes_touching_exact_range():
    w = Window(L=2, k_min=0, k_max=4)
    grid = zero_grid(w)
    got = list(cubes_touching(grid, 1, 8, 24))
    # units are 2^-5; [8,24] units = [0.25, 0.75] touches [0,0.5) and [0.5,1)
    assert got == [Cube(1, (0,)), Cube(1, (1,))]
    start, count = grid.touching(np.array([1]), np.array([8]), np.array([24]))
    assert (start.tolist(), count.tolist()) == ([0], [2])
    # generation 1 holds the 2^(L+1) cubes 0..7 of the unshifted window
    assert grid.cube_counts(np.array([0, 1, 4])).tolist() == [4, 8, 64]


def test_touching_range_matches_cube_geometry():
    # every generation of shifted grids at once, the last window 2^62
    # units wide: the indices 0 <= l < cube_counts are exactly the cubes
    # whose corners lie in the window, and touching exactly those of them
    # whose box overlaps
    # [lo, hi] (count 0 when none does), as the scalar walk finds them,
    # for bounds in, across and wholly outside the window
    rng = np.random.default_rng(0)
    for w in (Window(L=2, k_min=-2, k_max=3),
              Window(L=40, k_min=-40, k_max=21)):
        grid = DyadicGrid.random(w, 7)
        E = w.extent_units
        gens = np.arange(w.k_min, w.k_max + 1)
        counts = grid.cube_counts(gens)
        assert counts.dtype == np.int64
        for k, n in zip(gens.tolist(), counts.tolist()):
            side, shift = w.len_units(k), int(grid.shift_units(k)[0])

            def inside(l):
                return 0 <= l * side + shift <= E - side
            # cube 0 is the first and n - 1 the last; no cube where the
            # shift pushes the one cube out
            assert n == 0 or inside(0) and inside(n - 1)
            assert not inside(-1) and not inside(n)
        # the whole window, 2^61 cubes of generation 21 in the wide one
        start, count = grid.touching(gens, np.full(gens.size, -E),
                                     np.full(gens.size, 2 * E))
        assert not start.any()
        assert np.array_equal(count, counts)
        sides = [w.len_units(k) for k in gens.tolist()]
        for trial in range(40):
            lo = [int(rng.uniform(-2, E / s + 1) * s) for s in sides]
            hi = [a + int(rng.uniform(0, 3) * s) for a, s in zip(lo, sides)]
            if trial % 4 == 0:  # wholly left or right of the window
                lo = [-4 * s if trial % 8 else E + s for s in sides]
                hi = [a + 3 * s for a, s in zip(lo, sides)]
            # within int64, as localized_cubes cuts its bounds
            lo, hi = ([min(max(x, -(1 << 62)), 1 << 62) for x in bounds]
                      for bounds in (lo, hi))
            start, count = grid.touching(gens, np.array(lo), np.array(hi))
            assert start.dtype == count.dtype == np.int64
            for k, a, b, s, n in zip(gens.tolist(), lo, hi, start.tolist(),
                                     count.tolist()):
                assert [c.l[0] for c in cubes_touching(grid, k, a, b)] \
                    == list(range(s, s + n))
                if trial % 4 == 0:
                    assert n == 0
                if w.L == 2:  # and against every index near the window
                    l = np.arange(-8 * (1 << (w.L + k)),
                                  8 * (1 << (w.L + k)) + 8)
                    b_lo, b_hi = grid.boxes(np.full(l.size, k), l)
                    meets = ((b_hi > a) & (b_lo < b) & (b_lo >= 0)
                             & (b_hi <= E))
                    assert l[meets].tolist() == list(range(s, s + n))


def test_locate_inverts_boxes():
    # random points inside, left of and right of both windows, cut to
    # +-2^62 as localized_cubes cuts its bounds: the located cube's box
    # holds the point, whether or not the window holds the cube
    rng = np.random.default_rng(3)
    for w in (Window(L=2, k_min=-2, k_max=3),
              Window(L=40, k_min=-40, k_max=21)):
        grid = DyadicGrid.random(w, 5)
        E = w.extent_units
        x = [int(rng.uniform(a, b) * E) for a, b in
             ((0, 1), (-3, 0), (1, 4)) for _ in range(200)]
        x += [0, E - 1, E, -1, -(1 << 62), 1 << 62]
        x = np.array([min(max(v, -(1 << 62)), 1 << 62) for v in x])
        for k in range(w.k_min, w.k_max + 1):
            gens = np.full(x.size, k)
            lo, hi = grid.boxes(gens, grid.locate(gens, x))
            assert ((lo <= x) & (x < hi)).all()


@pytest.mark.parametrize("theta", [1.0, 1 / 2, 1 / 4, 1 / 6, 0.05])
def test_theta_reach_matches_float_threshold(theta):
    # distances reach - 1, reach and reach + 1 for gaps 0..61, on coarse
    # sides 2^(gap+1) .. 2^62: d <= reach exactly where d is at most the
    # float threshold of scalar_classify_kind (Python compares an int and a
    # float exactly), and where the float comparison of int64 distances
    # agrees (below 2^53); theta = 1 gives exact ties
    gap, e = np.array([(g, e) for g in range(62) for e in range(g + 1, 63)]).T
    side = np.left_shift(np.int64(1), e)
    reach = theta_reach(gap, side, theta)
    assert reach.dtype == np.int64
    if theta == 1.0:
        assert np.array_equal(reach, side >> gap)
    thresh = [theta_threshold(g, s, theta)
              for g, s in zip(gap.tolist(), side.tolist())]
    for delta in (-1, 0, 1):
        d = reach + delta
        assert ((d <= reach).tolist()
                == [a <= t for a, t in zip(d.tolist(), thresh)])
        low = d < 1 << 53
        assert np.array_equal((d <= reach)[low],
                              (d <= np.array(thresh))[low])


def test_cube_pairs_sequence():
    pairs = [(Cube(2, (5,)), Cube(0, (1,))), (Cube(1, (3,)), Cube(1, (3,))),
             (Cube(-1, (0,)), Cube(3, (-7,)))]
    # what bench/tracer.py reads of a CubePairs: its length, and its pairs
    # as (Cube, Cube) tuples with 1-tuple indices of Python ints
    view = cube_pairs(pairs)
    assert all(a.dtype == np.int64 for a in (view.I_k, view.I_l, view.J_k,
                                             view.J_l))
    assert len(view) == 3
    assert list(view) == pairs
    I, J = list(view)[1]
    assert type(I) is Cube and I.l == (3,) and type(I.l[0]) is int
    empty = cube_pairs([])
    assert len(empty) == 0 and list(empty) == []


def _scalar_is_bad(grid, cube, r, theta):
    """The per-generation badness loop through boundary_dist, kept as the
    reference for the vectorized kernel; cubes too coarse to have an
    admissible ancestor r generations up are not bad."""
    w = grid.window
    for k_c in range(w.k_min, cube.k - r + 1):
        if (boundary_dist(grid, cube, k_c)
                <= theta_threshold(cube.k - k_c, w.len_units(k_c), theta)):
            return True
    return False


def test_badness_kernel_matches_scalar_loop():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(40):
        k_min = int(rng.integers(-4, 1))
        w = Window(L=-k_min + int(rng.integers(0, 3)), k_min=k_min,
                   k_max=k_min + int(rng.integers(2, 8)))
        grid = DyadicGrid.random(w, rng.integers(1 << 30))
        theta = float(rng.choice([0.25, 0.5, 0.7, 1.0]))
        r = int(rng.integers(1, 5))
        for k in range(w.k_min + r, w.k_max + 1):
            cubes = list(cubes_at_scale(grid, k))
            bad = is_bad_batch(grid, *cube_arrays(cubes), r, theta)
            assert bad.tolist() == [_scalar_is_bad(grid, c, r, theta)
                                    for c in cubes]
            checked += len(cubes)
    assert checked > 1000


@settings(max_examples=40, deadline=None)
@given(k_min=st.integers(-6, 0), depth=st.integers(1, 8),
       extra_L=st.integers(0, 2), r=st.integers(1, 6),
       theta=st.sampled_from([0.25, 0.5, 0.7, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_is_bad_batch_matches_scalar_reference(k_min, depth, extra_L, r,
                                               theta, seed):
    # a random selection of every generation in random order, repeats and
    # cubes too coarse to be tested included
    w = Window(L=-k_min + extra_L, k_min=k_min, k_max=k_min + depth)
    rng = np.random.default_rng(seed)
    grid = DyadicGrid.random(w, rng.integers(2 ** 32))
    cubes = [c for k in range(w.k_min, w.k_max + 1)
             for c in cubes_at_scale(grid, k)]
    picked = [cubes[a] for a in rng.integers(len(cubes),
                                             size=min(300, 2 * len(cubes)))]
    bad = is_bad_batch(grid, *cube_arrays(picked), r, theta)
    assert bad.tolist() == [_scalar_is_bad(grid, c, r, theta)
                            for c in picked]


_NEAR = st.integers(-4, 4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_NEAR, _NEAR.map(lambda d: 2 ** 62 + d),
                          _NEAR.map(lambda d: -2 ** 62 + d)), max_size=40))
@example([])
@example([7])
@example([-3, -3, -3, -3])
@example([2 ** 62, -2 ** 62, 0, 2 ** 62 - 1, -1, 2 ** 62, -2 ** 62 + 1])
def test_distinct_matches_np_unique(values):
    # np.unique's sorted values and dtype, on a contiguous array and on a
    # column of a 2-D array (as _KeyPacking.of passes), with the input left
    # as it was
    a = np.array(values, dtype=np.int64)
    for arr in (a, np.stack([-a, a], axis=1)[:, 1]):
        kept = arr.copy()
        got, want = distinct(arr), np.unique(arr)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal(arr, kept)


def test_badness_batch_matches_exact_enumeration():
    # every bit string once: the batch over all strings is the exact
    # probability, and it is the same at shifted reference positions
    w = Window(L=3, k_min=-2, k_max=8)
    for k_ref in (4, 6, 8):
        n_rows = k_ref - w.k_min
        strings = np.arange(1 << n_rows)
        bits = np.zeros((strings.size, w.n_shift_bits), dtype=np.int64)
        bits[:, :n_rows] = (strings[:, None] >> np.arange(n_rows)) & 1
        l_ref = (1 << (w.L + k_ref)) // 2
        freqs = [_badness_batch(w, k_ref, 3, 0.5, bits, l_ref + delta).mean()
                 for delta in (0, 1, 3)]
        assert freqs[0] == freqs[1] == freqs[2] == \
            pi_bad_exact(w, k_ref, r=3, theta=0.5)


def test_reference_generation_beyond_window_raises():
    # the default reference cube sits r generations below k_min, here
    # below k_max: no cube of the window can be tested
    w = Window(L=4, k_min=0, k_max=5)
    with pytest.raises(ScaleRangeError, match="k_max"):
        pi_bad_estimate(w, r=24, theta=0.25, samples=10, seed=0)
    with pytest.raises(ScaleRangeError, match="k_max"):
        independence_table(w, r=24, theta=0.25, samples=10, seed=0)


def test_no_admissible_ancestor_is_good():
    # k - r < k_min: no generation of the window lies r steps above, so
    # every cube is good, at any theta
    w, r = Window(L=3, k_min=-2, k_max=8), 5
    for k in range(w.k_min, w.k_min + r):
        assert pi_bad_exact(w, k, r, theta=0.1) == 0.0
    assert pi_bad_exact(w, w.k_min + r, r, theta=0.1) > 0.0
    # too deep to enumerate, had the cube an admissible ancestor
    assert pi_bad_exact(Window(L=40, k_min=-40, k_max=0), -10, r=31,
                        theta=0.1) == 0.0
    grid = DyadicGrid.random(w, seed=3)
    cubes = [c for k in range(w.k_min, w.k_max + 1)
             for c in cubes_at_scale(grid, k)]
    k, l = cube_arrays(cubes)
    bad = is_bad_batch(grid, k, l, r, theta=0.1)
    assert not bad[k - r < w.k_min].any()
    assert bad[k - r >= w.k_min].any()
    for k_ref in (w.k_min, w.k_min + r - 1):
        rep = pi_bad_estimate(w, r, theta=0.1, samples=200, seed=0,
                              k_ref=k_ref)
        assert rep.pi_bad_hat == 0.0
        table = independence_table(w, r, theta=0.1, samples=200, seed=0,
                                   k_ref=k_ref)
        assert table[0].sum() == 0 and table.sum() == 200


def test_reference_generation_below_window_raises():
    w = Window(L=3, k_min=-2, k_max=8)
    with pytest.raises(ScaleRangeError):
        pi_bad_exact(w, w.k_min - 1, r=1, theta=1.0)
    with pytest.raises(ScaleRangeError):
        pi_bad_estimate(w, r=1, theta=1.0, samples=10, seed=0,
                        k_ref=w.k_min - 1)
    with pytest.raises(ScaleRangeError):
        independence_table(w, r=1, theta=1.0, samples=10, seed=0,
                           k_ref=w.k_min - 1)


def test_monte_carlo_bit_bound_refuses_before_drawing(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("drew translation bits")
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    w = Window(L=3, k_min=-2, k_max=10)
    with pytest.raises(ScaleRangeError, match="MC_MAX_BITS"):
        pi_bad_estimate(w, r=5, theta=1.0, samples=2 ** 40, seed=0)
    with pytest.raises(ScaleRangeError, match="MC_MAX_BITS"):
        independence_table(w, r=5, theta=1.0, samples=2 ** 40, seed=0)


def test_badness_draws_pinned():
    # values recorded when the translation bits were drawn as an
    # (samples, bits, 1) array; the one-dimensional draw is the same stream
    w = Window(L=3, k_min=-2, k_max=8)
    assert pi_bad_estimate(w, r=5, theta=1.0, samples=2000, seed=1,
                           k_ref=6).pi_bad_hat == 0.1175
    assert pi_bad_estimate(w, r=4, theta=1.0, samples=3000,
                           seed=7).pi_bad_hat == 748 / 3000
    assert pi_bad_estimate(w, r=6, theta=0.7, samples=3000, seed=3,
                           k_ref=7).pi_bad_hat == 469 / 3000
    assert pi_bad_estimate(Window(L=4, k_min=-4, k_max=6), r=5,
                           theta=1.0, samples=5000, seed=0).pi_bad_hat \
        == 0.1202
    assert independence_table(w, r=5, theta=1.0, samples=2000, seed=2,
                              k_ref=5).tolist() == [[55, 71, 65, 68],
                                                    [504, 390, 430, 417]]
    assert independence_table(w, r=3, theta=0.7, samples=1000, seed=9,
                              k_ref=4, position_bins=8).tolist() == [
        [68, 77, 97, 81, 66, 83, 75, 87], [51, 46, 47, 51, 38, 48, 30, 55]]
