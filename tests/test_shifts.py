import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadshift.dyadic import (Cube, DyadicGrid, Window, WindowTruncationError,
                              ancestor_join, box_dist, cube_arrays)
from dyadshift.operators import PairingEngine, make_operator
from dyadshift.shifts import (CLASSES, Mesh1D, NormalizationFinding,
                              PairClass, ShiftOperator, apply_averaging,
                              apply_shift, assemble_shift, calibrate_c_emp,
                              calibration_shift, classify_batch,
                              classify_kind, classify_pair,
                              coefficient_scale, descendants,
                              shift_coefficient, shift_norm_estimate,
                              smaller_of)
from dyadshift.wavelets import build_system


def zero_grid(w: Window) -> DyadicGrid:
    return DyadicGrid(w, omega=np.zeros((w.n_shift_bits, w.d), dtype=int))


@pytest.fixture(scope="module")
def grid36():
    return zero_grid(Window(d=1, L=3, k_min=-3, k_max=6))


def test_smaller_of_tie_goes_first(grid36):
    I, J = Cube(2, (1,)), Cube(2, (5,))
    assert smaller_of(I, J) is I
    assert smaller_of(Cube(3, (0,)), Cube(1, (0,))) == Cube(3, (0,))
    assert smaller_of(Cube(1, (0,)), Cube(3, (0,))) == Cube(3, (0,))


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
    for (ik, il), (jk, jl), kind, (kk, kl), i, j in cases:
        pc = classify_pair(grid36, Cube(ik, (il,)), Cube(jk, (jl,)), 1.0, 3)
        assert (pc.kind, pc.K, pc.i, pc.j) == (kind, Cube(kk, (kl,)), i, j)


def test_classify_rejects_wrong_order(grid36):
    with pytest.raises(ValueError):
        classify_pair(grid36, Cube(1, (0,)), Cube(2, (0,)), 1.0, 3)


def test_partition_completeness_depth5():
    # every ordered pair with len(I) <= len(J) lands in exactly one class;
    # counts frozen for one seed as a regression anchor
    w = Window(d=1, L=5, k_min=-5, k_max=0)
    g = DyadicGrid.random(w, 0)
    cubes = [c for k in range(w.k_min, w.k_max + 1)
             for c in g.cubes_at_scale(k)]
    counts = dict.fromkeys(CLASSES, 0)
    for I in cubes:
        for J in cubes:
            if I.k < J.k:
                continue
            counts[classify_kind(g, I, J, 1.0, 3)] += 1
    assert sum(counts.values()) == 2477
    assert counts == {"far": 952, "between": 939, "contained": 152,
                      "equal": 60, "near": 374}


def test_equal_near_ancestor_stays_comparable():
    # for equal/near pairs the containing ancestor is only boundedly larger
    # than I; the window-verified constant here is len(K) <= 16 len(I)
    w = Window(d=1, L=5, k_min=-5, k_max=0)
    g = DyadicGrid.random(w, 0)
    cubes = [c for k in range(w.k_min, w.k_max + 1)
             for c in g.cubes_at_scale(k)]
    worst = 0.0
    for I in cubes:
        for J in cubes:
            if I.k < J.k:
                continue
            try:
                pc = classify_pair(g, I, J, 1.0, 3)
            except WindowTruncationError:
                continue
            if pc.kind in ("equal", "near"):
                worst = max(worst, 2.0 ** (I.k - pc.K.k))
    assert worst <= 16.0


def _scalar_ancestor_join(grid, fine, coarse, m):
    """The join loop over per-cube geometry, kept as the reference for
    ancestor_join_batch."""
    if fine.k < coarse.k:
        raise ValueError("first cube must be the finer one")
    w = grid.window
    lo_a, hi_a = grid.dilate_box(fine, m)
    lo_b, hi_b = grid.dilate_box(coarse, m)
    lo = np.minimum(lo_a, lo_b)
    hi = np.maximum(hi_a, hi_b)
    start = coarse.k if m == 1 else coarse.k - 1
    for k in range(min(start, fine.k), w.k_min - 1, -1):
        cand = grid.ancestor(fine, k)
        c_lo, c_hi = grid.cube_box(cand)
        if (c_lo <= lo).all() and (hi <= c_hi).all():
            if not grid.in_window(cand):
                raise WindowTruncationError(
                    f"containing cube for the pair leaves the window at "
                    f"generation {k}"
                )
            return cand, fine.k - k, coarse.k - k
    raise WindowTruncationError(
        "no generation in the window contains both dilates"
    )


def _scalar_classify_kind(grid, I, J, theta, m):
    """The per-pair class predicates, kept as the reference for the batched
    classifier."""
    if I.k < J.k:
        raise ValueError("classification expects len(I) <= len(J)")
    w = grid.window
    if I == J:
        return "equal"
    lo_i, hi_i = grid.cube_box(I)
    lo_j, hi_j = grid.cube_box(J)
    if (lo_j <= lo_i).all() and (hi_i <= hi_j).all():
        return "contained"
    dist = box_dist(lo_i, hi_i, lo_j, hi_j)
    side_j = w.len_units(J.k)
    thresh = (2.0 ** (J.k - I.k)) ** theta * side_j
    if dist <= thresh:
        return "near"
    dlo_i, dhi_i = grid.dilate_box(I, m)
    dlo_j, dhi_j = grid.dilate_box(J, m)
    dil_dist = box_dist(dlo_i, dhi_i, dlo_j, dhi_j)
    side_i = w.len_units(I.k)
    long_dist = side_i + dist + side_j  # D(I,J) in units
    return "far" if 2 * dil_dist > long_dist else "between"


def _scalar_classify_pair(grid, I, J, theta, m):
    """classify_pair as a per-pair loop, the reference for classify_batch."""
    kind = _scalar_classify_kind(grid, I, J, theta, m)
    if kind == "equal":
        right = Cube(J.k, (J.l[0] + 1,) + J.l[1:])
        adj = right if grid.in_window(right) else Cube(J.k, (J.l[0] - 1,)
                                                       + J.l[1:])
        K, i, j = _scalar_ancestor_join(grid, I, adj, m)
    else:
        K, i, j = _scalar_ancestor_join(grid, I, J, m)
    return kind, K, i, j


def _assert_batch_matches_scalar(grid, pairs, theta, m, wrappers=False):
    """classify_batch over all pairs equals the scalar reference pair by
    pair: the class, and (K, i, j) or a truncation exactly where the
    reference truncates.  With wrappers, the n = 1 public functions are
    checked against the reference too."""
    fine, coarse = zip(*pairs)
    kind, K_k, K_l, i, j, truncated = classify_batch(
        grid, *cube_arrays(fine), *cube_arrays(coarse), theta, m)
    for n, (I, J) in enumerate(pairs):
        ref_kind = _scalar_classify_kind(grid, I, J, theta, m)
        assert CLASSES[kind[n]] == ref_kind
        try:
            _, K, ii, jj = _scalar_classify_pair(grid, I, J, theta, m)
        except WindowTruncationError as exc:
            assert truncated[n]
            if wrappers:
                with pytest.raises(WindowTruncationError,
                                   match=re.escape(str(exc))):
                    classify_pair(grid, I, J, theta, m)
                if ref_kind != "equal":
                    with pytest.raises(WindowTruncationError,
                                       match=re.escape(str(exc))):
                        ancestor_join(grid, I, J, m)
            continue
        assert not truncated[n]
        assert (K_k[n], (K_l[n],), i[n], j[n]) == (K.k, K.l, ii, jj)
        if wrappers:
            assert classify_kind(grid, I, J, theta, m) == ref_kind
            assert classify_pair(grid, I, J, theta, m) == PairClass(
                ref_kind, K, ii, jj)
            if ref_kind != "equal":
                assert ancestor_join(grid, I, J, m) == (K, ii, jj)
    return truncated


def _window_pairs(grid):
    """Every ordered pair (I, J) of window cubes with len(I) <= len(J)."""
    w = grid.window
    cubes = [c for k in range(w.k_min, w.k_max + 1)
             for c in grid.cubes_at_scale(k)]
    return [(I, J) for I in cubes for J in cubes if I.k >= J.k]


@st.composite
def _grids(draw):
    k_min = draw(st.integers(-5, 0))
    depth = draw(st.integers(2, 7))
    w = Window(d=1, L=draw(st.integers(-k_min, -k_min + 2)), k_min=k_min,
               k_max=k_min + depth)
    omega = draw(st.lists(st.integers(0, 1), min_size=depth,
                          max_size=depth))
    return (DyadicGrid(w, np.array(omega)[:, None]),
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
        gen = list(grid.cubes_at_scale(k))
        pairs += [(c, c) for c in gen[:1] + gen[-1:]]
    _assert_batch_matches_scalar(grid, pairs, theta, m, wrappers=True)


def test_equal_pair_neighbour_at_the_position_limit():
    # the window spans 2^62 units and its one coarsest cube is as wide, so
    # the right neighbour's far corner would be 2^63 units: it is out of
    # the window, and so is the left one
    w = Window(d=1, L=40, k_min=-40, k_max=21)
    grid = zero_grid(w)
    with pytest.raises(WindowTruncationError):
        classify_pair(grid, Cube(-40, (0,)), Cube(-40, (0,)), 1.0, 1)
    pc = classify_pair(grid, Cube(-39, (1,)), Cube(-39, (1,)), 1.0, 1)
    assert (pc.kind, pc.K, pc.i, pc.j) == ("equal", Cube(-40, (0,)), 1, 1)


def test_classify_batch_matches_scalar_on_audit_pair_set():
    # the full pair set of decay-audit with db3 (m = 5), L = 4,
    # k = -4..2, theta = eps/(d+s) = 0.25, grid seed 0
    w = Window(d=1, L=4, k_min=-4, k_max=2)
    grid = DyadicGrid.random(w, 0)
    pairs = _window_pairs(grid)
    assert len(pairs) == 10_413
    edge_equal = [I for I, J in pairs if I == J
                  and not grid.in_window(Cube(J.k, (J.l[0] + 1,)))]
    # the last cube of every populated generation
    assert len(edge_equal) == len({I.k for I, _ in pairs})
    truncated = _assert_batch_matches_scalar(grid, pairs, 0.25, 5)
    assert int(truncated.sum()) == 8_740


def test_shift_coefficient_zero_and_finding():
    assert shift_coefficient(0.0, 2, 1, 1, 2, 0.5, 1.0, 1.0) == 0.0
    with pytest.raises(NormalizationFinding):
        shift_coefficient(5.0, 2, 1, 1, 2, 0.5, 1.0, 1e-9)


def test_coefficient_scale():
    assert coefficient_scale(2, 1, 1) == 2.0 ** -1.5
    assert coefficient_scale(0, 0, 2) == 1.0


@pytest.fixture(scope="module")
def classified_haar():
    """All classifiable Hilbert pairs on a small window, with pairings."""
    w = Window(d=1, L=3, k_min=-3, k_max=2)
    grid = zero_grid(w)
    system = build_system("haar", q=10, strict=False)
    cubes = [c for k in range(w.k_min, w.k_max + 1)
             for c in grid.cubes_at_scale(k)]
    classified = []
    for I in cubes:
        for J in cubes:
            if I.k < J.k:
                continue
            try:
                classified.append((I, J, classify_pair(grid, I, J, 1.0, 3)))
            except WindowTruncationError:
                continue
    op = make_operator("hilbert")
    engine = PairingEngine(op, grid, system, q_loc=8)
    pairings = engine.pairings([(I, J) for I, J, _ in classified])
    bound_const = op.czs_seminorm(2) + op.l2_norm
    return grid, system, classified, pairings, bound_const


def test_calibrated_assembly_good_and_bounded(classified_haar):
    grid, system, classified, pairings, bound_const = classified_haar
    c_emp = calibrate_c_emp(classified, pairings, 2, 0.5, bound_const, 1)
    assert c_emp >= 1.0
    seen = set((pc.i, pc.j) for _, _, pc in classified)
    for i, j in sorted(seen):
        S = assemble_shift(grid, system, i, j, classified, pairings, 2, 0.5,
                           bound_const, c_emp)
        # joins contain both dilates by construction, so every shift is good
        assert S.good
        assert S.max_normalized_coefficient() <= 1.0 + 1e-12


def test_assemble_empty_filter_vacuous(classified_haar):
    grid, system, classified, pairings, bound_const = classified_haar
    S = assemble_shift(grid, system, 1, 1, classified, pairings, 2, 0.5,
                       bound_const, 1e6, class_filter=())
    assert S.coefficient_count == 0
    assert S.good


def test_assemble_respects_good_mask(classified_haar):
    grid, system, classified, pairings, bound_const = classified_haar
    mask = [False] * len(classified)
    S = assemble_shift(grid, system, 2, 2, classified, pairings, 2, 0.5,
                       bound_const, 1e6, good_mask=mask)
    assert S.coefficient_count == 0
    assert S.excluded_badness == sum(1 for _, _, pc in classified
                                     if (pc.i, pc.j) == (2, 2))


def test_descendants_counts():
    w = Window(d=1, L=3, k_min=0, k_max=6)
    g = zero_grid(w)
    K = Cube(0, (3,))
    kids = descendants(g, K, 2)
    assert len(kids) == 4
    for c in kids:
        lo, hi = g.cube_box(c)
        klo, khi = g.cube_box(K)
        assert (klo <= lo).all() and (hi <= khi).all()


def test_averaging_zero_inputs():
    w = Window(d=1, L=3, k_min=0, k_max=6)
    g = zero_grid(w)
    system = build_system("haar", q=10, strict=False)
    S = calibration_shift(g, 2, 2, [Cube(0, (1,))])
    mesh = Mesh1D.cover(0.0, 8.0, 8)
    out = apply_averaging(g, system, S.blocks[Cube(0, (1,))],
                          np.zeros(mesh.n_pts), mesh)
    assert not out.any()
    # f supported away from the block (and its wavelets) contributes nothing
    f = np.where(mesh.centers > 5.0, 1.0, 0.0)
    out = apply_averaging(g, system, S.blocks[Cube(0, (1,))], f, mesh)
    assert np.max(np.abs(out)) < 1e-12


def test_averaging_pointwise_bound_uniform_across_blocks():
    # saturating coefficients; worst-case f = sign of the analysis profile;
    # the mean-value bound constant must be uniform across >= 50 blocks
    w = Window(d=1, L=3, k_min=0, k_max=7)
    g = zero_grid(w)
    system = build_system("haar", q=10, strict=False)
    mesh = Mesh1D.cover(0.0, 8.0, 9)
    x = mesh.centers
    consts = []
    blocks = [Cube(k, (l,)) for k in (0, 1, 2) for l in range(2 ** (k + 3))]
    assert len(blocks) >= 50
    for K in blocks:
        S = calibration_shift(g, 2, 2, [K])
        entries = S.blocks[K]
        prof = np.zeros_like(x)
        for I, _, _ in entries:
            kk = I.k
            t = x * 2.0 ** kk - I.l[0]
            prof += 2.0 ** (kk / 2.0) * system.mother(t, "psi")
        f = np.sign(prof)
        out = apply_averaging(g, system, entries, f, mesh)
        klo, khi = g.cube_box(K)
        unit = 2.0 ** -w.unit_exp
        inside = (x >= klo[0] * unit) & (x < khi[0] * unit)
        mean_abs = float(np.sum(np.abs(f[inside])) * mesh.h
                         / (khi[0] - klo[0]) / unit)
        consts.append(float(np.max(np.abs(out))) / mean_abs)
    assert max(consts) <= 2.0 * min(consts)


def test_shift_norm_zero_operator():
    w = Window(d=1, L=3, k_min=0, k_max=6)
    g = zero_grid(w)
    system = build_system("haar", q=10, strict=False)
    mesh = Mesh1D.cover(0.0, 8.0, 8)
    assert shift_norm_estimate(g, system, ShiftOperator(1, 1), mesh) == 0.0


def test_shift_norm_diagonal_vs_dense_svd():
    # a_IJK = delta_IJ sqrt(|I||J|)/|K| on one block is cap times an
    # orthogonal projection: norm cap, cross-checked by dense SVD
    w = Window(d=1, L=3, k_min=0, k_max=7)
    g = zero_grid(w)
    system = build_system("haar", q=10, strict=False)
    S = calibration_shift(g, 3, 3, [Cube(0, (2,))], pattern="diagonal")
    mesh = Mesh1D.cover(0.0, 8.0, 8)
    est = shift_norm_estimate(g, system, S, mesh)
    entries = S.blocks[Cube(0, (2,))]
    x = mesh.centers

    def wv(c):
        t = x * 2.0 ** c.k - c.l[0]
        return 2.0 ** (c.k / 2.0) * system.mother(t, "psi")

    U = np.stack([wv(I) for I, _, _ in entries])
    V = np.stack([wv(J) for _, J, _ in entries])
    a = np.array([e[2] for e in entries])
    M = V.T @ (a[:, None] * U) * mesh.h
    dense = float(np.linalg.svd(M, compute_uv=False)[0])
    assert abs(est - dense) < 1e-3
    assert abs(est - 0.125) < 1e-3


def test_shift_norm_flat_across_types():
    # saturating shifts of every type (i,j) in [1,6]^2 on a common block:
    # the norm estimates stay within a factor 2 of each other
    w = Window(d=1, L=3, k_min=0, k_max=7)
    g = zero_grid(w)
    system = build_system("haar", q=10, strict=False)
    mesh = Mesh1D.cover(0.0, 8.0, 8)
    Ks = [Cube(0, (2,)), Cube(0, (5,))]
    norms = []
    for i in range(1, 7):
        for j in range(1, 7):
            S = calibration_shift(g, i, j, Ks)
            norms.append(shift_norm_estimate(g, system, S, mesh))
    assert max(norms) <= 2.0 * min(norms)


def test_transpose_is_adjoint(classified_haar):
    grid, system, classified, pairings, bound_const = classified_haar
    c_emp = calibrate_c_emp(classified, pairings, 2, 0.5, bound_const, 1)
    seen = sorted({(pc.i, pc.j) for _, _, pc in classified if pc.i != pc.j})
    i, j = seen[0]
    S = assemble_shift(grid, system, i, j, classified, pairings, 2, 0.5,
                       bound_const, c_emp)
    assert S.coefficient_count > 0
    T = S.transpose()
    assert (T.i, T.j) == (j, i)
    mesh = Mesh1D.cover(0.0, 8.0, 9)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(mesh.n_pts)
    gfun = rng.standard_normal(mesh.n_pts)
    lhs = float(np.sum(apply_shift(grid, system, S, f, mesh) * gfun) * mesh.h)
    rhs = float(np.sum(f * apply_shift(grid, system, T, gfun, mesh)) * mesh.h)
    assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-12)


def test_bounded_overlap_of_dilates():
    # for fixed K and depth j, sum_J 1_{3J} <= 3 pointwise in d=1
    w = Window(d=1, L=3, k_min=0, k_max=7)
    g = zero_grid(w)
    for depth in (1, 2, 3):
        Js = descendants(g, Cube(0, (3,)), depth)
        lo_all = [g.dilate_box(J, 3) for J in Js]
        for u in range(int(w.extent_units)):
            cover = sum(1 for lo, hi in lo_all if lo[0] <= u < hi[0])
            assert cover <= 3
