import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadshift.dyadic import Cube, DyadicGrid, Window
from dyadshift.filters import get_filter, validate_filter
from dyadshift.operators import make_operator
from dyadshift.shifts import (CLASSES, NormalizationFinding, ShiftOperator,
                              assemble_shift, calibrate_c_emp,
                              calibration_shift, classify_batch,
                              coefficient_scale, descendants,
                              shift_coefficient, shift_norm)
from dyadshift.wavelets import build_system
from references import (Mesh1D, WindowTruncationError, apply_averaging,
                        assemble_loop, blocks_of, calibrate_loop,
                        calibration_blocks, classified_pairs, cube_arrays,
                        cubes_at_scale, descendants_loop, dilate_box,
                        in_window, lone_pairings, scalar_classify_kind,
                        scalar_classify_pair, shift_norm_loop, zero_grid)


def _classify(grid, pairs, theta, m):
    """classify_batch of a list of (I, J) Cube pairs."""
    fine, coarse = zip(*pairs)
    return classify_batch(grid, *cube_arrays(fine), *cube_arrays(coarse),
                          theta, m)


@pytest.fixture(scope="module")
def grid36():
    return zero_grid(Window(L=3, k_min=-3, k_max=6))


def test_classify_frozen_examples(grid36):
    # frozen against a direct predicate-evaluation script on the unshifted
    # grid over [0, 8)
    cases = [
        ((3, 32), (1, 9), "between", (-3, 0), 6, 4),
        ((3, 32), (3, 33), "near", (-3, 0), 6, 6),
        ((3, 32), (2, 16), "contained", (-3, 0), 6, 5),
        ((3, 40), (1, 2), "far", (-3, 0), 6, 4),
        ((2, 17), (2, 17), "equal", (0, 4), 2, 2),
    ]
    pairs = [(Cube(ik, (il,)), Cube(jk, (jl,)))
             for (ik, il), (jk, jl), *_ in cases]
    kind, K_k, K_l, i, j, truncated = _classify(grid36, pairs, 1.0, 3)
    assert not truncated.any()
    got = list(zip([CLASSES[c] for c in kind], zip(K_k.tolist(),
                                                   K_l.tolist()),
                   i.tolist(), j.tolist()))
    assert got == [case[2:] for case in cases]


def test_classify_rejects_wrong_order(grid36):
    with pytest.raises(ValueError):
        _classify(grid36, [(Cube(1, (0,)), Cube(2, (0,)))], 1.0, 3)


def test_partition_completeness_depth5():
    # every ordered pair with len(I) <= len(J) lands in exactly one class;
    # counts frozen for one seed as a regression anchor
    w = Window(L=5, k_min=-5, k_max=0)
    g = DyadicGrid.random(w, 0)
    kind = _classify(g, _window_pairs(g), 1.0, 3)[0]
    counts = dict(zip(CLASSES, np.bincount(kind).tolist()))
    assert sum(counts.values()) == 2477
    assert counts == {"far": 952, "between": 939, "contained": 152,
                      "equal": 60, "near": 374}


def test_equal_near_ancestor_stays_comparable():
    # for equal/near pairs the containing ancestor is only boundedly larger
    # than I; the window-verified constant here is len(K) <= 16 len(I)
    w = Window(L=5, k_min=-5, k_max=0)
    g = DyadicGrid.random(w, 0)
    kind, _, _, i, _, truncated = _classify(g, _window_pairs(g), 1.0, 3)
    close = ~truncated & np.isin(kind, [CLASSES.index("equal"),
                                        CLASSES.index("near")])
    assert close.any()
    assert 2.0 ** int(i[close].max()) <= 16.0


def _assert_batch_matches_scalar(grid, pairs, theta, m):
    """classify_batch over all pairs equals the scalar reference pair by
    pair: the class, and (K, i, j) or a truncation exactly where the
    reference truncates."""
    kind, K_k, K_l, i, j, truncated = _classify(grid, pairs, theta, m)
    for n, (I, J) in enumerate(pairs):
        assert CLASSES[kind[n]] == scalar_classify_kind(grid, I, J, theta, m)
        try:
            _, K, ii, jj = scalar_classify_pair(grid, I, J, theta, m)
        except WindowTruncationError:
            assert truncated[n]
            continue
        assert not truncated[n]
        assert (K_k[n], (K_l[n],), i[n], j[n]) == (K.k, K.l, ii, jj)
    return truncated


def _window_pairs(grid):
    """Every ordered pair (I, J) of window cubes with len(I) <= len(J)."""
    w = grid.window
    cubes = [c for k in range(w.k_min, w.k_max + 1)
             for c in cubes_at_scale(grid, k)]
    return [(I, J) for I in cubes for J in cubes if I.k >= J.k]


@st.composite
def _grids(draw):
    k_min = draw(st.integers(-5, 0))
    depth = draw(st.integers(2, 7))
    w = Window(L=draw(st.integers(-k_min, -k_min + 2)), k_min=k_min,
               k_max=k_min + depth)
    omega = draw(st.lists(st.integers(0, 1), min_size=depth,
                          max_size=depth))
    return (DyadicGrid(w, np.array(omega)),
            draw(st.sampled_from([0.25, 0.5, 0.7, 1.0])),
            draw(st.sampled_from([1, 3, 5, 7, 15])),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60, deadline=None)
@given(_grids())
def test_classify_batch_matches_scalar_reference(case):
    # up to 300 random pairs of the window plus every equal pair at the
    # ends of each generation, where the right neighbour may leave the
    # window; truncated pairs included
    grid, theta, m, seed = case
    pairs = _window_pairs(grid)
    rng = np.random.default_rng(seed)
    if len(pairs) > 300:
        pairs = [pairs[n] for n in rng.choice(len(pairs), 300, replace=False)]
    w = grid.window
    for k in range(w.k_min, w.k_max + 1):
        gen = list(cubes_at_scale(grid, k))
        pairs += [(c, c) for c in gen[:1] + gen[-1:]]
    _assert_batch_matches_scalar(grid, pairs, theta, m)


def test_equal_pair_neighbour_at_the_position_limit():
    # the window spans 2^62 units and its one coarsest cube is as wide, so
    # the right neighbour's far corner would be 2^63 units: it is out of
    # the window, and so is the left one
    w = Window(L=40, k_min=-40, k_max=21)
    grid = zero_grid(w)
    kind, K_k, K_l, i, j, truncated = _classify(
        grid, [(Cube(-40, (0,)), Cube(-40, (0,))),
               (Cube(-39, (1,)), Cube(-39, (1,)))], 1.0, 1)
    assert truncated.tolist() == [True, False]
    assert (CLASSES[kind[1]], K_k[1], K_l[1], i[1], j[1]) == (
        "equal", -40, 0, 1, 1)


def test_classify_batch_matches_scalar_on_audit_pair_set():
    # the full pair set of decay-audit with db3 (m = 5), L = 4,
    # k = -4..2, theta = eps/(d+s) = 0.25, grid seed 0
    w = Window(L=4, k_min=-4, k_max=2)
    grid = DyadicGrid.random(w, 0)
    pairs = _window_pairs(grid)
    assert len(pairs) == 10_413
    edge_equal = [I for I, J in pairs if I == J
                  and not in_window(grid, Cube(J.k, (J.l[0] + 1,)))]
    # the last cube of every populated generation
    assert len(edge_equal) == len({I.k for I, _ in pairs})
    truncated = _assert_batch_matches_scalar(grid, pairs, 0.25, 5)
    assert int(truncated.sum()) == 8_740


def test_shift_coefficient_zero_and_finding():
    assert shift_coefficient(0.0, 2, 1, 2, 0.5, 1.0, 1.0) == 0.0
    with pytest.raises(NormalizationFinding):
        shift_coefficient(5.0, 2, 1, 2, 0.5, 1.0, 1e-9)


def test_coefficient_scale():
    assert coefficient_scale(2, 1) == 2.0 ** -1.5
    assert coefficient_scale(0, 0) == 1.0


def _classified_window(grid, system, q_loc):
    """The window pairs classify_batch does not truncate at theta = 1 and
    m = 3, as (pairs, classes, Cube pairs) with their Hilbert pairings and
    bound constant."""
    pairs = _window_pairs(grid)
    classes = _classify(grid, pairs, 1.0, 3)
    keep = ~classes[-1]
    kept = [p for p, k in zip(pairs, keep) if k]
    op = make_operator("hilbert")
    pairings = lone_pairings(op, grid, system, kept, q_loc)
    fine, coarse = zip(*kept)
    return ((*cube_arrays(fine), *cube_arrays(coarse)),
            tuple(c[keep] for c in classes), kept, pairings,
            op.czs_seminorm(2) + 1.0)


@pytest.fixture(scope="module")
def classified_haar():
    """All classifiable Hilbert pairs on a small window, with pairings."""
    grid = zero_grid(Window(L=3, k_min=-3, k_max=2))
    system = build_system("haar", q=10)
    return (grid, system) + _classified_window(grid, system, 8)


def _types(classes):
    """The (i, j) types of the classified pairs, sorted."""
    return sorted(set(zip(classes[3].tolist(), classes[4].tolist())))


def test_calibrated_assembly_good_and_bounded(classified_haar):
    grid, system, pairs, classes, _, pairings, bound_const = classified_haar
    c_emp = calibrate_c_emp(classes, pairings, 2, 0.5, bound_const)
    assert c_emp >= 1.0
    for i, j in _types(classes):
        S = assemble_shift(grid, system, i, j, pairs, classes, pairings, 2,
                           0.5, bound_const, c_emp)
        # joins contain both dilates by construction, so every shift is good
        assert S.good
        assert S.max_normalized_coefficient() <= 1.0 + 1e-12


def test_assembly_matches_reference_loop(classified_haar):
    # the classified set of criterion 6: c_emp, the entries of every type
    # with their coefficients, goodness and exclusions as the per-pair
    # loop over Cube lists gives them
    grid, system, pairs, classes, kept, pairings, bound_const = \
        classified_haar
    classified = classified_pairs(kept, classes)
    c_emp = calibrate_c_emp(classes, pairings, 2, 0.5, bound_const)
    assert c_emp == calibrate_loop(classified, pairings, 2, 0.5,
                                   bound_const)
    rng = np.random.default_rng(5)
    mask = rng.random(len(kept)) < 0.8
    codes = [CLASSES.index(c) for c in ("near", "far", "between")]
    shifts = 0
    for i, j in _types(classes):
        for class_filter, good_mask in ((CLASSES, None),
                                        (("near", "far", "between"), mask)):
            S = assemble_shift(grid, system, i, j, pairs, classes, pairings,
                               2, 0.5, bound_const, c_emp,
                               class_filter=class_filter,
                               good_mask=good_mask)
            blocks, good, excluded = assemble_loop(
                grid, system, i, j, classified, pairings, 2, 0.5,
                bound_const, c_emp,
                range(len(CLASSES)) if good_mask is None else codes,
                good_mask)
            assert blocks_of(S) == blocks
            assert (S.good, S.excluded_badness, S.excluded_window) == (
                good, excluded, 0)
            worst = max((abs(a) for b in blocks.values() for *_, a in b),
                        default=0.0) / coefficient_scale(i, j)
            assert math.isclose(S.max_normalized_coefficient(), worst,
                                rel_tol=1e-12)
            shifts += S.coefficient_count > 0
    assert shifts > 10


def _all_window_pairs(grid, system, pairings):
    """Every window pair, truncated ones included, as (pairs, classes,
    pairings), the truncated pairs' pairings NaN."""
    pairs = _window_pairs(grid)
    classes = _classify(grid, pairs, 1.0, 3)
    values = np.full(len(pairs), np.nan)
    values[~classes[-1]] = pairings
    fine, coarse = zip(*pairs)
    return (*cube_arrays(fine), *cube_arrays(coarse)), classes, values


def test_assemble_counts_truncated_pairs(classified_haar):
    # every window pair goes in; the truncated ones are dropped and
    # counted, whatever pairing value they carry
    grid, system, pairs, classes, _, pairings, bound_const = classified_haar
    ref = assemble_shift(grid, system, 5, 4, pairs, classes, pairings, 2,
                         0.5, bound_const, 1e6)
    every, all_classes, values = _all_window_pairs(grid, system, pairings)
    S = assemble_shift(grid, system, 5, 4, every, all_classes, values, 2,
                       0.5, bound_const, 1e6)
    truncated = int(all_classes[-1].sum())
    assert 0 < S.excluded_window == truncated < every[0].size
    assert blocks_of(S) == blocks_of(ref) and S.coefficient_count > 0


def test_assemble_names_first_offending_pair(classified_haar):
    # at half the calibrated constant the coefficients of the type that
    # sets it pass the cap: the finding names the first of them in input
    # order
    grid, system, pairs, classes, kept, pairings, bound_const = \
        classified_haar
    c_emp = calibrate_c_emp(classes, pairings, 2, 0.5, bound_const)
    i, j = max(_types(classes), key=lambda t: assemble_shift(
        grid, system, *t, pairs, classes, pairings, 2, 0.5, bound_const,
        c_emp).max_normalized_coefficient())
    blocks, _, _ = assemble_loop(grid, system, i, j,
                                 classified_pairs(kept, classes), pairings, 2,
                                 0.5, bound_const, 0.5 * c_emp,
                                 range(len(CLASSES)))
    cap = coefficient_scale(i, j) * (1.0 + 1e-12)
    over = [(I, J) for b in blocks.values() for I, J, a in b if abs(a) > cap]
    assert len(over) > 1
    I, J = min(over, key=kept.index)
    with pytest.raises(NormalizationFinding,
                       match=rf"\(i,j\)=\({i},{j}\) I=\(k={I.k}, l={I.l[0]}\) "
                             rf"J=\(k={J.k}, l={J.l[0]}\)$"):
        assemble_shift(grid, system, i, j, pairs, classes, pairings, 2,
                       0.5, bound_const, 0.5 * c_emp)


def test_assemble_empty_filter_vacuous(classified_haar):
    grid, system, pairs, classes, _, pairings, bound_const = classified_haar
    S = assemble_shift(grid, system, 1, 1, pairs, classes, pairings, 2, 0.5,
                       bound_const, 1e6, class_filter=())
    assert S.coefficient_count == 0
    assert S.good


def test_assemble_respects_good_mask(classified_haar):
    grid, system, pairs, classes, _, pairings, bound_const = classified_haar
    mask = [False] * len(pairings)
    S = assemble_shift(grid, system, 2, 2, pairs, classes, pairings, 2, 0.5,
                       bound_const, 1e6, good_mask=mask)
    assert S.coefficient_count == 0
    assert S.excluded_badness == int(np.count_nonzero(
        (classes[3] == 2) & (classes[4] == 2)))


def test_transpose_keeps_every_other_field(classified_haar):
    # the dual shift's manifest is the shift's with i and j swapped: the
    # class filter, c_emp, goodness and both exclusion counts carry over
    grid, system, _, _, _, pairings, bound_const = classified_haar
    pairs, classes, values = _all_window_pairs(grid, system, pairings)
    S = assemble_shift(grid, system, 5, 4, pairs, classes, values, 2, 0.5,
                       bound_const, 1e6, class_filter=("near", "far"),
                       good_mask=np.arange(values.size) % 3 > 0)
    assert S.excluded_badness > 0 and S.excluded_window > 0
    T = S.transpose()
    assert T.manifest(seed=3) == {**S.manifest(seed=3), "i": 4, "j": 5}
    assert np.array_equal(T.I_l, S.J_l) and np.array_equal(T.J_l, S.I_l)
    assert T.transpose().manifest() == S.manifest()


def test_descendants_counts():
    w = Window(L=3, k_min=0, k_max=6)
    g = zero_grid(w)
    K_k, K_l = cube_arrays([Cube(0, (3,))])
    n, l = descendants(g, K_k, K_l, 2)
    assert n.tolist() == [0] * 4
    lo, hi = g.boxes(np.full(4, 2), l)
    klo, khi = g.boxes(K_k, K_l)
    assert np.all((klo <= lo) & (hi <= khi))


def _blocks_in_and_around(grid):
    """Every cube of the window's coarsest three generations, and the
    neighbours just past its ends, which the window clips."""
    w = grid.window
    Ks = []
    for k in range(w.k_min, min(w.k_min + 3, w.k_max + 1)):
        gen = list(cubes_at_scale(grid, k))
        Ks += ([Cube(k, (gen[0].l[0] - 1,))] + gen
               + [Cube(k, (gen[-1].l[0] + 1,))]) if gen else []
    return Ks


@settings(max_examples=40, deadline=None)
@given(_grids())
def test_descendants_and_calibration_match_loop_on_random_grids(case):
    # random translations, blocks the window clips and blocks outside it
    grid, _, _, seed = case
    w = grid.window
    Ks = _blocks_in_and_around(grid)
    rng = np.random.default_rng(seed)
    K_k, K_l = cube_arrays(Ks)
    for depth in range(0, w.k_max - w.k_min + 1):
        fits = K_k + depth <= w.k_max
        if not fits.any():
            break
        n, l = descendants(grid, K_k[fits], K_l[fits], depth)
        picked = [K for K, f in zip(Ks, fits) if f]
        ref = [(m, c.l[0]) for m, K in enumerate(picked)
               for c in descendants_loop(grid, K, depth)]
        assert list(zip(n.tolist(), l.tolist())) == ref
    i, j = (int(v) for v in rng.integers(0, w.k_max - w.k_min + 1, size=2))
    pick = [K for K in Ks if K.k + max(i, j) <= w.k_max]
    S = calibration_shift(grid, i, j, *cube_arrays(pick))
    assert blocks_of(S) == {K: b for K, b in
                            calibration_blocks(grid, i, j, pick).items() if b}
    D = calibration_shift(grid, i, i, *cube_arrays(pick), pattern="diagonal")
    assert blocks_of(D) == {K: b for K, b in calibration_blocks(
        grid, i, i, pick, pattern="diagonal").items() if b}


def test_calibration_covers_clipped_blocks():
    # on a translated grid over [0, 4): blocks reaching past either end of
    # the window and one wholly outside it keep only their in-window
    # children
    w = Window(L=2, k_min=-2, k_max=3)
    grid = DyadicGrid(w, np.array([1, 0, 1, 1, 0]))
    Ks = [Cube(-2, (-1,)), Cube(-1, (1,)), Cube(-1, (2,)), Cube(0, (-1,))]
    assert not any(in_window(grid, K) for K in Ks)
    S = calibration_shift(grid, 2, 1, *cube_arrays(Ks))
    ref = {K: b for K, b in calibration_blocks(grid, 2, 1, Ks).items() if b}
    assert blocks_of(S) == ref
    # each block keeps fewer than its 4 x 2 entries, and three keep some
    assert len(ref) == 3 and all(0 < len(b) < 8 for b in ref.values())


def test_shift_norm_zero_operator():
    zero = ShiftOperator(1, 1)
    assert shift_norm(zero) == 0.0
    # every zero shift shares its empty default arrays, so none may write
    # them
    assert not any(a.flags.writeable
                   for a in (zero.K_k, zero.K_l, zero.I_l, zero.J_l, zero.a))


def test_shift_norm_diagonal_vs_dense_svd():
    # a_IJK = delta_IJ sqrt(|I||J|)/|K| on one block is cap times an
    # orthogonal projection: norm cap, cross-checked on the mesh
    w = Window(L=3, k_min=0, k_max=7)
    g = zero_grid(w)
    system = build_system("haar", q=10)
    S = calibration_shift(g, 3, 3, [0], [2], pattern="diagonal")
    est = shift_norm(S)
    mesh = Mesh1D.cover(0.0, 8.0, 8)
    x = mesh.centers

    def wv(l):
        return 2.0 ** (3 / 2.0) * system.mother(x * 2.0 ** 3 - l, "psi")

    U = np.stack([wv(l) for l in S.I_l.tolist()])
    V = np.stack([wv(l) for l in S.J_l.tolist()])
    # the mesh matrix V^T (a U h) has rank 8: with V^T = Q_1 R_1 and
    # (a U h)^T = Q_2 R_2, its singular values are those of R_1 R_2^T
    r_v = np.linalg.qr(V.T, mode="r")
    r_u = np.linalg.qr((S.a[:, None] * U * mesh.h).T, mode="r")
    dense = float(np.linalg.svd(r_v @ r_u.T, compute_uv=False)[0])
    assert abs(est - dense) < 1e-3
    assert abs(est - 0.125) < 1e-12
    # each entry listed twice: the recurring (I, J) sum, as in S f
    twice = ShiftOperator(3, 3, *(np.tile(v, 2) for v in (
        S.K_k, S.K_l, S.I_l, S.J_l, S.a)))
    assert abs(shift_norm(twice) - 0.25) < 1e-12


def _calibration_norms(grid, Ks):
    return [shift_norm(calibration_shift(grid, i, j, *Ks))
            for i in range(1, 7) for j in range(1, 7)]


def test_shift_norm_flat_across_types():
    # saturating shifts of every type (i,j) in [1,6]^2 on two blocks: a
    # block is cap times the all-ones 2^j x 2^i matrix, of norm 1.  That is
    # the shift's L2 norm for haar, db2 and db3 alike, whose taps are
    # even-shift orthonormal, so their wavelets are orthonormal on the line
    for name in ("haar", "db2", "db3"):
        validate_filter(get_filter(name))
    norms = _calibration_norms(zero_grid(Window(L=3, k_min=0, k_max=7)),
                               ([0, 0], [2, 5]))
    assert max(abs(n - 1.0) for n in norms) < 1e-12


def test_calibration_norms_match_reference_loop():
    # criterion 7's 36 calibration shifts: the exact norms against the
    # power iteration over one sampled row per entry, on Haar, whose
    # wavelets the mesh samples exactly
    w = Window(L=3, k_min=0, k_max=7)
    g = zero_grid(w)
    system = build_system("haar", q=10)
    mesh = Mesh1D.cover(0.0, 8.0, 8)
    Ks = [Cube(0, (2,)), Cube(0, (5,))]
    norms = _calibration_norms(g, cube_arrays(Ks))
    ref = [shift_norm_loop(g, system, calibration_blocks(g, i, j, Ks), mesh)
           for i in range(1, 7) for j in range(1, 7)]
    for got, want in zip(norms, ref):
        assert math.isclose(got, want, rel_tol=1e-3)


def _apply(grid, system, S, f, mesh):
    """S f on the mesh, entry by entry."""
    return apply_averaging(grid, system, [e for b in blocks_of(S).values()
                                          for e in b], f, mesh)


def _assert_adjoint(grid, system, S, mesh):
    T = S.transpose()
    assert (T.i, T.j) == (S.j, S.i)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(mesh.n_pts)
    gfun = rng.standard_normal(mesh.n_pts)
    lhs = float(np.sum(_apply(grid, system, S, f, mesh) * gfun) * mesh.h)
    rhs = float(np.sum(f * _apply(grid, system, T, gfun, mesh)) * mesh.h)
    assert lhs != 0.0
    assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-12)


def test_transpose_is_adjoint(classified_haar):
    grid, system, pairs, classes, _, pairings, bound_const = classified_haar
    c_emp = calibrate_c_emp(classes, pairings, 2, 0.5, bound_const)
    i, j = [t for t in _types(classes) if t[0] != t[1]][0]
    S = assemble_shift(grid, system, i, j, pairs, classes, pairings, 2, 0.5,
                       bound_const, c_emp)
    assert S.coefficient_count > 0
    _assert_adjoint(grid, system, S, Mesh1D.cover(0.0, 8.0, 9))


@pytest.fixture(scope="module")
def db2_shifts():
    """(grid, system, shifts) of every type of the calibrated Hilbert
    pairs of a small window, with db2 (m = 3) on a translated grid: the
    wavelets overlap their neighbours and sit off the unshifted lattice."""
    grid = DyadicGrid.random(Window(L=3, k_min=-3, k_max=2), 4)
    system = build_system("db2", q=10)
    assert system.m == 3 and grid.omega.any()
    pairs, classes, _, pairings, bound_const = _classified_window(
        grid, system, 8)
    c_emp = calibrate_c_emp(classes, pairings, 2, 0.5, bound_const)
    return grid, system, [assemble_shift(grid, system, i, j, pairs, classes,
                                         pairings, 2, 0.5, bound_const, c_emp)
                          for i, j in _types(classes)]


def test_transpose_is_adjoint_db2_random_grid(db2_shifts):
    grid, system, shifts = db2_shifts
    mesh = Mesh1D.cover(0.0, 8.0, 9)
    checked = 0
    for S in shifts:
        if S.i != S.j and np.count_nonzero(S.a) > 1:
            _assert_adjoint(grid, system, S, mesh)
            checked += 1
    assert checked >= 3


def test_shift_norm_is_top_singular_value_db2_random_grid(db2_shifts):
    # the top singular value of each multi-block shift's full coefficient
    # matrix, distinct J by distinct I, and the same norm for its dual
    checked = 0
    for S in db2_shifts[2]:
        if len(blocks_of(S)) < 2:
            continue
        cubes = [np.unique(np.stack([S.K_k + gap, l], axis=1), axis=0,
                           return_inverse=True)
                 for gap, l in ((S.j, S.J_l), (S.i, S.I_l))]
        M = np.zeros((len(cubes[0][0]), len(cubes[1][0])))
        np.add.at(M, (cubes[0][1].reshape(-1), cubes[1][1].reshape(-1)), S.a)
        top = float(np.linalg.svd(M, compute_uv=False)[0])
        assert abs(shift_norm(S) - top) < 1e-12
        assert math.isclose(shift_norm(S.transpose()), shift_norm(S),
                            rel_tol=1e-12)
        checked += 1
    assert checked >= 3


def test_bounded_overlap_of_dilates():
    # for fixed K and depth j, sum_J 1_{3J} <= 3 pointwise in d=1
    w = Window(L=3, k_min=0, k_max=7)
    g = zero_grid(w)
    for depth in (1, 2, 3):
        _, l = descendants(g, [0], [3], depth)
        lo_all = [dilate_box(g, Cube(depth, (c,)), 3) for c in l.tolist()]
        for u in range(int(w.extent_units)):
            cover = sum(1 for lo, hi in lo_all if lo[0] <= u < hi[0])
            assert cover <= 3
