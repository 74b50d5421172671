"""
Acceptance checks, one per headline claim of the laboratory.

Each test prints a single PASS/FAIL line (visible under pytest -s) and
asserts the same condition, so the suite doubles as a report.  The
configurations are frozen; where a check compares against a Monte Carlo
quantity the seed is part of the frozen configuration.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from dyadshift.dyadic import (Cube, DyadicGrid, Window, independence_table,
                              union_bound, pi_bad_estimate)
from dyadshift.filters import builtin_filter_names
from dyadshift.harness import (convergence_experiment, decay_audit,
                               expansion_identity, randomized_expansion)
from dyadshift.operators import (TestFunction as Bump, make_operator,
                                 sample_wavelets)
from dyadshift.shifts import (CLASSES, Mesh1D, apply_shift, assemble_shift,
                              calibrate_c_emp, calibration_shift,
                              classify_batch, shift_norm_estimate)
from dyadshift.wavelets import build_system, gram_defect
from references import (cube_arrays, cubes_at_scale, disjoint_pairs,
                        lone_pairings, pair_correlation)


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def zero_grid(w: Window) -> DyadicGrid:
    return DyadicGrid(w, omega=np.zeros(w.n_shift_bits, dtype=int))


def test_criterion_1_badness_probability():
    w = Window(L=3, k_min=-2, k_max=10)
    t0 = time.perf_counter()
    checks = []
    for r in (5, 8):
        rep = pi_bad_estimate(w, r=r, theta=1.0, samples=100_000, seed=42)
        bound = union_bound(r, 1.0)
        checks.append((r, rep.pi_bad_hat, bound, rep.stderr,
                       rep.pi_bad_hat <= bound + 3.0 * rep.stderr))
    elapsed = time.perf_counter() - t0
    ok = all(c[-1] for c in checks) and elapsed < 30.0
    detail = "; ".join(f"r={r}: pi_bad_hat {p:.4f} vs bound {b:.4f}"
                       for r, p, b, _, _ in checks) + f"; {elapsed:.1f}s"
    _report(1, ok, detail)


def test_criterion_2_position_badness_independence():
    w = Window(L=3, k_min=-2, k_max=8)
    table = independence_table(w, r=5, theta=1.0, samples=10_000, seed=1,
                               k_ref=5)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row * col / table.sum()
    chi2 = float(((table - expected) ** 2 / expected).sum())
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    crit = float(stats.chi2.ppf(1.0 - 0.001, dof))
    _report(2, chi2 < crit,
            f"chi2 {chi2:.2f} < critical {crit:.2f} (dof {dof}, alpha 0.001)")


def test_criterion_3_wavelet_system_properties():
    t0 = time.perf_counter()
    failures = []
    for name in builtin_filter_names():
        system = build_system(name, q=14)
        entries = [(k, l, "psi") for k in range(3) for l in range(-2, 2 ** k + 3)]
        span = (system.lo - 3.0, system.lo + system.m + 4.0)
        gd = gram_defect(system, entries, res=14, span=span)
        if gd >= 1e-5:
            failures.append(f"{name}: gram defect {gd:.2e}")
        worst_mom = max(abs(system.moment(a)) for a in range(system.v + 1))
        if worst_mom >= 1e-6:
            failures.append(f"{name}: moment {worst_mom:.2e}")
        if name == "haar" and (system.m, system.u, system.v) != (1, 0, 0):
            failures.append(f"haar triple {(system.m, system.u, system.v)}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.0f}s")
    _report(3, not failures,
            failures[0] if failures else
            f"{len(builtin_filter_names())} filters at q=14, {elapsed:.0f}s")


def test_criterion_4_pairing_cross_validation():
    w = Window(L=2, k_min=0, k_max=4)
    grid = DyadicGrid.random(w, 3)
    system = build_system("haar", q=12)
    op = make_operator("hilbert")
    pairs = disjoint_pairs(grid, system)
    assert len(pairs) == 13670
    mult = lone_pairings(op, grid, system, pairs, q_loc=10, pad_factor=32)
    worst = 0.0
    for (I, J), vm in zip(pairs, mult):
        vq = pair_correlation(op, grid, system, I, J, q_loc=10)
        tol = max(1e-6, 1e-4 * abs(vq))
        worst = max(worst, abs(vm - vq) / tol)
    _report(4, worst <= 1.0,
            f"{len(pairs)} disjoint-support pairs, worst error "
            f"{worst:.3f} x tolerance")


def test_criterion_5_partition_completeness():
    w = Window(L=5, k_min=-5, k_max=0)
    grid = DyadicGrid.random(w, 0)
    cubes = [c for k in range(w.k_min, w.k_max + 1)
             for c in cubes_at_scale(grid, k)]
    fine, coarse = zip(*[(I, J) for I in cubes for J in cubes
                         if I.k >= J.k])
    kind = classify_batch(grid, *cube_arrays(fine), *cube_arrays(coarse),
                          1.0, 3)[0]
    total = len(fine)
    known = (kind >= 0) & (kind < len(CLASSES))
    unclassified = int((~known).sum())
    counts = dict(zip(CLASSES, np.bincount(kind[known],
                                           minlength=len(CLASSES)).tolist()))
    ok = unclassified == 0 and sum(counts.values()) == total
    _report(5, ok, f"{total} ordered pairs in a depth-5 window, "
            f"{unclassified} unclassified, counts {counts}")


@pytest.fixture(scope="module")
def classified_hilbert():
    """All classifiable Hilbert pairs on a small window, with pairings."""
    w = Window(L=3, k_min=-3, k_max=2)
    grid = zero_grid(w)
    system = build_system("haar", q=10)
    cubes = [c for k in range(w.k_min, w.k_max + 1)
             for c in cubes_at_scale(grid, k)]
    fine, coarse = zip(*[(I, J) for I in cubes for J in cubes
                         if I.k >= J.k])
    pairs = (*cube_arrays(fine), *cube_arrays(coarse))
    classes = classify_batch(grid, *pairs, 1.0, 3)
    keep = ~classes[-1]
    op = make_operator("hilbert")
    pairings = lone_pairings(op, grid, system,
                             [(I, J) for I, J, k in zip(fine, coarse, keep)
                              if k], q_loc=8)
    bound_const = op.czs_seminorm(2) + 1.0
    return (grid, system, tuple(a[keep] for a in pairs),
            tuple(c[keep] for c in classes), pairings, bound_const)


def test_criterion_6_good_shift_and_coefficient_bounds(classified_hilbert):
    grid, system, pairs, classes, pairings, bound_const = classified_hilbert
    c_emp = calibrate_c_emp(classes, pairings, 2, 0.5, bound_const)
    seen = sorted(set(zip(classes[3].tolist(), classes[4].tolist())))
    worst = 0.0
    all_good = True
    has_c_emp = True
    n_shifts = 0
    for i, j in seen:
        S = assemble_shift(grid, system, i, j, pairs, classes, pairings, 2,
                           0.5, bound_const, c_emp)
        if S.coefficient_count == 0:
            continue
        n_shifts += 1
        all_good = all_good and S.good
        worst = max(worst, S.max_normalized_coefficient())
        has_c_emp = has_c_emp and S.manifest().get("c_emp") == c_emp
    ok = all_good and worst <= 1.0 + 1e-12 and has_c_emp and n_shifts > 0
    _report(6, ok, f"{n_shifts} shift types: containment {all_good}, "
            f"max normalized coefficient {worst:.4f}, c_emp {c_emp:.4f} "
            f"in manifest {has_c_emp}")


def test_criterion_7_averaging_and_shift_boundedness():
    w = Window(L=3, k_min=0, k_max=7)
    grid = zero_grid(w)
    system = build_system("haar", q=10)
    # pointwise averaging bound across blocks, worst-case input per block
    mesh = Mesh1D.cover(0.0, 8.0, 9)
    x = mesh.centers
    consts = []
    blocks = [Cube(k, (l,)) for k in (0, 1, 2) for l in range(2 ** (k + 3))]
    for K in blocks:
        K_k, K_l = cube_arrays([K])
        S = calibration_shift(grid, 2, 2, K_k, K_l)
        prof = sample_wavelets(grid, system, K.k + 2, S.I_l, x[None, :])
        f = np.sign(prof.sum(axis=0))
        out = apply_shift(grid, system, S, f, mesh)
        klo, khi = grid.boxes(K_k, K_l)
        unit = 2.0 ** -w.unit_exp
        inside = (x >= klo[0] * unit) & (x < khi[0] * unit)
        mean_abs = float(np.sum(np.abs(f[inside])) * mesh.h
                         / (khi[0] - klo[0]) / unit)
        consts.append(float(np.max(np.abs(out))) / mean_abs)
    avg_flat = max(consts) <= 2.0 * min(consts)
    # norm estimates of saturating shifts across all types in [1,6]^2
    mesh = Mesh1D.cover(0.0, 8.0, 8)
    Ks = cube_arrays([Cube(0, (2,)), Cube(0, (5,))])
    norms = [shift_norm_estimate(grid, system,
                                 calibration_shift(grid, i, j, *Ks), mesh)
             for i in range(1, 7) for j in range(1, 7)]
    norm_flat = max(norms) <= 2.0 * min(norms)
    _report(7, avg_flat and norm_flat,
            f"averaging constant spread x{max(consts) / min(consts):.2f} over "
            f"{len(blocks)} blocks; shift norm spread "
            f"x{max(norms) / min(norms):.2f} over 36 types")


def _level_maxima(rows):
    """Per-class max ratio keyed by shift level max(i, j)."""
    out = {}
    for r in rows:
        lvl = max(r.i, r.j)
        cur = out.setdefault(r.kind, {})
        cur[lvl] = max(cur.get(lvl, 0.0), r.ratio)
    return out


def test_criterion_8_decay_audit_smooth_vs_haar():
    w = Window(L=5, k_min=-5, k_max=6)
    grid = DyadicGrid.random(w, 11)
    op = make_operator("hilbert")
    span = (14.0, 18.0)
    # smooth filter certified at order 2 with at least one extra moment
    db8 = build_system("db8", q=10, s_target=2)
    assert db8.u >= 2 and db8.v >= 1
    rows8, _ = decay_audit(op, db8, grid, s=2, eps=0.5, theta=0.5,
                           i_max=6, j_max=6, q_loc=9, span=span)
    growth_ok = True
    worst_growth = 0.0
    for kind, lv in _level_maxima(rows8).items():
        lvls = sorted(lv)
        for a, b in zip(lvls, lvls[1:]):
            if b == a + 1 and lv[a] > 0.0:
                worst_growth = max(worst_growth, lv[b] / lv[a])
                growth_ok = growth_ok and lv[b] < 2.0 * lv[a]
    # the Haar filter asked for the same smoothness order blows up
    haar = build_system("haar", q=10)
    rowsh, _ = decay_audit(op, haar, grid, s=2, eps=0.5, theta=0.5,
                           i_max=6, j_max=6, q_loc=9, span=span)
    cont = _level_maxima(rowsh).get("contained", {})
    lvls = sorted(cont)
    haar_monotone = (len(lvls) >= 4
                     and all(cont[b] > cont[a]
                             for a, b in zip(lvls, lvls[1:]))
                     and cont[lvls[-1]] >= 50.0 * cont[lvls[0]])
    _report(8, growth_ok and haar_monotone,
            f"db8 worst per-level ratio growth x{worst_growth:.2f} (< 2); "
            f"haar contained ratios climb "
            f"{cont.get(lvls[0], 0):.2f} -> {cont.get(lvls[-1], 0):.1f}")


def test_criterion_9_expansion_identity():
    haar = build_system("haar", q=12)
    # identity calibration on a deep window: the double expansion of <g, f>
    w = Window(L=26, k_min=-26, k_max=8)
    grid = zero_grid(w)
    ident = make_operator("identity")
    f = Bump(center=3.1, halfwidth=0.8)
    g = Bump(center=3.4, halfwidth=0.7)
    res_id = expansion_identity(ident, haar, grid, f, g, q_loc=12)
    # the Hilbert-transform defect shrinks as the scale range widens
    op = make_operator("hilbert")
    defects = []
    for k_min, k_max in ((-2, 5), (-3, 6)):
        w2 = Window(L=-k_min, k_min=k_min, k_max=k_max)
        res = expansion_identity(op, haar, zero_grid(w2), f, g, q_loc=10)
        defects.append(res["defect"])
    ok = res_id["defect"] < 1e-6 and defects[1] < defects[0]
    _report(9, ok, f"identity defect {res_id['defect']:.2e} < 1e-6; Hilbert "
            f"defect {defects[0]:.4f} -> {defects[1]:.4f} on widening")


def test_criterion_10_randomized_representation():
    w = Window(L=5, k_min=0, k_max=5)
    system = build_system("haar", q=11)
    op = make_operator("hilbert")
    f = Bump(center=15.1, halfwidth=0.8)
    g = Bump(center=15.9, halfwidth=0.7)
    t0 = time.perf_counter()
    res = randomized_expansion(op, system, w, f, g, r=4, theta=1.0,
                               n_omega=100, seed=0, q_loc=10)
    # truncation defect of the window-limited expansion, measured on a few
    # of the sampled grids (the window cuts all scales coarser than k_min)
    defect = 0.0
    for w_idx in range(8):
        grid = DyadicGrid.random(w, (0, w_idx))
        out = expansion_identity(op, system, grid, f, g, q_loc=10,
                                 truth=res["truth"])
        defect = max(defect, out["defect"])
    elapsed = time.perf_counter() - t0
    err = abs(res["estimate"] - res["truth"])
    ok = err <= 3.0 * res["stderr"] + defect and elapsed < 600.0
    _report(10, ok, f"|estimate - truth| {err:.4f} <= 3 x stderr "
            f"{res['stderr']:.4f} + defect {defect:.4f}; {elapsed:.0f}s")


def test_criterion_11_convergence_rate():
    # one configuration, two filters: overlapping mean-zero bumps on a deep
    # window so the whole pairing mass is classifiable and the goodness
    # filter is vacuous (no Monte Carlo variance from the filter itself)
    w = Window(L=12, k_min=-12, k_max=6)
    op = make_operator("hilbert")
    f = Bump(center=2047.9, halfwidth=0.8, tilt=1)
    g = Bump(center=2048.2, halfwidth=0.7, tilt=1)
    slopes = {}
    for name in ("db3", "haar"):
        system = build_system(name, q=10, s_target=1)
        curve = convergence_experiment(op, system, w, f, g, s=2, eps=0.5,
                                       N_max=8, n_omega=4, seed=7, q_loc=8)
        slopes[name] = curve.slope
    ok = slopes["db3"] <= -0.75 and slopes["db3"] <= slopes["haar"] - 0.5
    _report(11, ok, f"db3 slope {slopes['db3']:.3f} <= -0.75 and steeper "
            f"than haar ({slopes['haar']:.3f}) by "
            f"{slopes['haar'] - slopes['db3']:.2f} >= 0.5")
