import math

import numpy as np
import pytest

from dyadshift.dyadic import (Cube, DyadicGrid, ScaleRangeError, Window,
                              WindowTruncationError, union_bound)
from dyadshift.harness import (NoiseFloorError, audit_rows_csv, class_bound,
                               convergence_experiment, decay_audit,
                               expansion_identity, ground_truth,
                               localized_coefficient, localized_cubes,
                               plain_inner_product, psi_refinement,
                               randomized_expansion, safe_is_good,
                               _pi_good_by_scale)
from dyadshift.operators import PairingEngine, TestFunction, make_operator
from dyadshift.shifts import classify_pair
from dyadshift.wavelets import build_system


def zero_grid(w: Window) -> DyadicGrid:
    return DyadicGrid(w, omega=np.zeros((w.n_shift_bits, w.d), dtype=int))


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
    w = Window(d=1, L=3, k_min=0, k_max=3)
    g = zero_grid(w)
    system = build_system("haar", q=9, strict=False)
    got = localized_cubes(g, system, (2.1, 2.9), k_range=[1])
    # side 1/2 cubes touching [2.1, 2.9]: [2, 2.5) and [2.5, 3)
    assert got == [Cube(1, (4,)), Cube(1, (5,))]


def test_localized_coefficient_mesh_stable():
    w = Window(d=1, L=3, k_min=0, k_max=5)
    g = zero_grid(w)
    system = build_system("db3", q=12)
    f = TestFunction(center=4.0, halfwidth=0.9)
    c = Cube(2, (15,))
    a = localized_coefficient(g, system, c, f, 9)
    b = localized_coefficient(g, system, c, f, 11)
    assert abs(a - b) < 1e-6


def test_ground_truth_identity_matches_plain_product():
    f = TestFunction(center=3.9, halfwidth=0.8)
    g = TestFunction(center=4.2, halfwidth=0.7)
    op = make_operator("identity")
    assert abs(ground_truth(op, f, g, res=11)
               - plain_inner_product(f, g)) < 1e-6


def test_class_bound_arithmetic():
    # far: czs 2^{-(i+j)d/2} 2^{i theta (d+s)} 2^{-i s}
    assert math.isclose(class_bound("far", 2, 1, 1, 2, 0.5, 0.5, 1.0, 3.0),
                        2.0 ** -1.5 * 2.0 ** (2 * 0.5 * 3) * 2.0 ** -4)
    # contained/between: (czs + |T|) 2^{-gap d/2} 2^{-gap(s-eps)}
    assert math.isclose(class_bound("contained", 4, 1, 1, 2, 0.5, 0.5,
                                    1.0, 3.0),
                        4.0 * 2.0 ** -1.5 * 2.0 ** -4.5)
    assert class_bound("equal", 2, 2, 1, 2, 0.5, 0.5, 1.0, 3.0) == 3.0


@pytest.fixture(scope="module")
def audit_small():
    w = Window(d=1, L=3, k_min=-3, k_max=3)
    grid = zero_grid(w)
    system = build_system("haar", q=9, strict=False)
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


def test_decay_audit_csv_schema(audit_small):
    rows, _ = audit_small
    text = audit_rows_csv(rows)
    header = text.splitlines()[0]
    assert header == ("class,i,j,pair_count,max_pairing,bound,ratio,"
                      "psi_bound,psi_ratio")
    assert len(text.splitlines()) == len(rows) + 1


def test_decay_audit_badness_filter_matches_pair_loop():
    # the counters and rows of an audit with r against a per-pair loop
    # through classify_pair and safe_is_good, in the same pair order
    w = Window(d=1, L=3, k_min=-3, k_max=3)
    grid = DyadicGrid.random(w, 4)
    system = build_system("db2", q=9, strict=False)
    op = make_operator("hilbert")
    r, theta, i_max, j_max = 3, 1.0, 4, 2
    rows, info = decay_audit(op, system, grid, s=1, eps=0.5, theta=theta,
                             i_max=i_max, j_max=j_max, q_loc=9, r=r)
    assert rows
    cubes = [c for k in range(w.k_min, w.k_max + 1)
             for c in grid.cubes_at_scale(k)]
    ref = {"window_truncated": 0, "badness_excluded": 0, "pairs_seen": 0}
    selected = []
    for I in cubes:
        for J in cubes:
            if I.k < J.k:
                continue
            ref["pairs_seen"] += 1
            try:
                pc = classify_pair(grid, I, J, theta, system.m)
            except WindowTruncationError:
                ref["window_truncated"] += 1
                continue
            if pc.i > i_max or pc.j > j_max:
                continue
            if not safe_is_good(grid, I, r, theta):
                ref["badness_excluded"] += 1
                continue
            selected.append((I, J, pc))
    assert info == ref
    assert min(ref.values()) > 0
    values = PairingEngine(op, grid, system, q_loc=9).pairings(
        [(I, J) for I, J, _ in selected])
    cells = {}
    for (_, _, pc), v in zip(selected, values):
        count, mx = cells.get((pc.kind, pc.i, pc.j), (0, 0.0))
        cells[(pc.kind, pc.i, pc.j)] = (count + 1, max(mx, abs(float(v))))
    assert [(r.kind, r.i, r.j, r.pair_count, r.max_pairing) for r in rows] \
        == [key + val for key, val in sorted(cells.items())]


def test_expansion_identity_small_defect():
    w = Window(d=1, L=12, k_min=-12, k_max=6)
    grid = zero_grid(w)
    system = build_system("haar", q=10, strict=False)
    op = make_operator("identity")
    f = TestFunction(center=2047.9, halfwidth=0.8)
    g = TestFunction(center=2048.2, halfwidth=0.7)
    res = expansion_identity(op, system, grid, f, g, q_loc=10)
    assert res["defect"] < 1e-4
    assert res["pair_count"] > 0


def test_pi_good_by_scale_vacuous_and_certified():
    w = Window(d=1, L=3, k_min=-2, k_max=8)
    pg = _pi_good_by_scale(w, r=5, theta=1.0)
    # coarse generations have no admissible ancestor: vacuously good
    for k in range(w.k_min, w.k_min + 5):
        assert pg[k] == 1.0
    # certified lower bound 1 - (8d/theta) 2^{-r theta} = 0.75
    assert all(p >= 0.75 for p in pg.values())


def test_randomized_expansion_rejects_hopeless_bound():
    w = Window(d=1, L=3, k_min=-2, k_max=6)
    system = build_system("haar", q=9, strict=False)
    op = make_operator("identity")
    f = TestFunction(center=3.9, halfwidth=0.8)
    g = TestFunction(center=4.2, halfwidth=0.7)
    assert union_bound(1, 1, 0.5) > 1.0
    with pytest.raises(ScaleRangeError):
        randomized_expansion(op, system, w, f, g, r=1, theta=0.5,
                             n_omega=2, seed=0)


def test_randomized_expansion_identity_recovers_product():
    w = Window(d=1, L=8, k_min=-8, k_max=6)
    system = build_system("haar", q=10, strict=False)
    op = make_operator("identity")
    f = TestFunction(center=127.9, halfwidth=0.8)
    g = TestFunction(center=128.2, halfwidth=0.7)
    res = randomized_expansion(op, system, w, f, g, r=6, theta=1.0,
                               n_omega=6, seed=3, q_loc=9)
    assert len(res["per_sample"]) == 6
    assert res["stderr"] > 0.0
    assert abs(res["estimate"] - res["truth"]) <= 4.0 * res["stderr"] + 5e-3


def test_convergence_needs_enough_points():
    w = Window(d=1, L=4, k_min=-4, k_max=4)
    system = build_system("haar", q=10, strict=False)
    op = make_operator("hilbert")
    f = TestFunction(center=7.9, halfwidth=0.8, tilt=1)
    g = TestFunction(center=8.2, halfwidth=0.7, tilt=1)
    with pytest.raises(NoiseFloorError):
        convergence_experiment(op, system, w, f, g, s=2, eps=0.5, N_max=2,
                               n_omega=2, seed=0, q_loc=8)


def test_convergence_small_window_slope():
    w = Window(d=1, L=6, k_min=-6, k_max=5)
    system = build_system("haar", q=11, strict=False)
    op = make_operator("hilbert")
    f = TestFunction(center=31.9, halfwidth=0.8, tilt=1)
    g = TestFunction(center=32.2, halfwidth=0.7, tilt=1)
    curve = convergence_experiment(op, system, w, f, g, s=2, eps=0.5,
                                   N_max=7, n_omega=4, seed=7, q_loc=8)
    # e_N must decrease overall and the fitted slope must be negative
    es = [e for _, e, _ in curve.points]
    assert curve.slope < -0.5
    assert es[0] > es[-1]
    assert "N,e_N,stderr" in curve.csv()
