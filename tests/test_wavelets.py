import math

import numpy as np
import pytest

from dyadshift.wavelets import (SmoothnessError, WaveletSystem, build_system,
                                cascade, count_vanishing_moments, gram_defect)
from dyadshift.filters import get_filter


@pytest.fixture(scope="module")
def haar():
    return build_system("haar", q=10, strict=False)


@pytest.fixture(scope="module")
def db3():
    return build_system("db3", q=10)


def test_cascade_converges_for_all_builtins():
    for name in ("haar", "db2", "db3", "db8"):
        phi, iters, res = cascade(get_filter(name), q=8)
        assert res < 1e-10
        assert iters <= 80
        # scaling function integrates to 1
        assert abs(np.sum(phi[:-1]) * 2.0 ** -8 - 1.0) < 1e-8


def test_haar_triple_exact(haar):
    assert (haar.m, haar.u, haar.v) == (1, 0, 0)


def test_db3_triple(db3):
    assert db3.m == 5
    assert db3.u >= 1
    assert db3.v == 2


def test_db8_triple():
    sysw = build_system("db8", q=10, s_target=2)
    assert sysw.m == 15
    assert sysw.u >= 2
    assert sysw.v == 7


def test_db4_fails_second_order_probe():
    with pytest.raises(SmoothnessError):
        build_system("db4", q=10, s_target=2)


def test_haar_rejected_at_order_one_strict():
    with pytest.raises(SmoothnessError):
        build_system("haar", q=10, s_target=1)


def test_haar_first_moment_oracle(haar):
    # int_0^1 t psi(t) dt = int_0^1/2 t - int_1/2^1 t = 1/8 - 3/8 = -1/4
    assert abs(haar.moment(0)) < 1e-12
    assert abs(haar.moment(1) + 0.25) < 1e-12


def test_db3_moments_vanish(db3):
    for a in range(db3.v + 1):
        assert abs(db3.moment(a)) < 1e-10
    assert abs(db3.moment(db3.v + 1)) > 1e-6


def test_mother_support(db3):
    t = np.array([db3.lo - 0.01, db3.lo + db3.m + 0.01])
    assert np.all(db3.mother(t, "psi") == 0.0)
    assert np.all(db3.mother(t, "phi") == 0.0)


def test_mother_l2_normalized(db3):
    t, hq = db3.quad_nodes()
    for kind in ("psi", "phi"):
        nrm = np.sum(db3.mother(t, kind) ** 2) * hq
        assert abs(nrm - 1.0) < 1e-6


def test_gram_defect_small(db3):
    entries = [(k, l, "psi") for k in range(3) for l in range(-2, 2 ** k + 2)]
    d = gram_defect(db3, entries, res=12, span=(-8.0, 9.0))
    assert d < 1e-5


def test_gram_defect_haar_tiny(haar):
    entries = [(k, l, "psi") for k in range(3) for l in range(2 ** k)]
    d = gram_defect(haar, entries, res=12, span=(0.0, 1.0))
    assert d < 1e-12


def test_count_vanishing_moments_consistent(db3):
    assert count_vanishing_moments(db3, cap=6) == 2


def test_quad_nodes_land_on_mesh(db3):
    t, hq = db3.quad_nodes()
    # midpoint nodes at spacing 2^-q are mesh points of the 2^-(q+1) table
    offs = (t - db3.lo) / db3.mesh_step
    assert np.allclose(offs, np.round(offs))


def test_filter_file_path_builds_same_system(tmp_path, haar):
    path = tmp_path / "haar.flt"
    path.write_text("".join(f"{c:.17g}\n" for c in get_filter("haar")))
    loaded = build_system(str(path), q=10, strict=False)
    assert (loaded.m, loaded.u, loaded.v) == (haar.m, haar.u, haar.v)
    assert np.array_equal(loaded.psi, haar.psi)
