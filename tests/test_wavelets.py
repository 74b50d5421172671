import math

import numpy as np
import pytest

from dyadshift.wavelets import (FD_STABLE_RATIO, _two_scale, build_system,
                                count_vanishing_moments, gram_defect,
                                scaling_table)
from dyadshift.filters import builtin_filter_names, get_filter
from references import cascade


@pytest.fixture(scope="module")
def haar():
    return build_system("haar", q=10)


@pytest.fixture(scope="module")
def db3():
    return build_system("db3", q=10)


@pytest.mark.parametrize("name", builtin_filter_names())
def test_scaling_tables_are_fixed_points_near_the_cascade(name):
    h = get_filter(name)
    for q in (6, 8, 10, 14):
        phi, res = scaling_table(h, q)
        assert res == np.max(np.abs(_two_scale(h, phi, 1 << q) - phi))
        assert res <= 1e-14
        # the scaling function integrates to 1
        assert abs(np.sum(phi) * 2.0 ** -q - 1.0) <= 1e-14
        if name == "haar":  # the cascade's box is its own fixed point
            assert np.array_equal(phi, cascade(h, q)[0])
        elif q <= 10:
            assert np.max(np.abs(phi - cascade(h, q)[0])) <= 2e-10


def test_db2_table_matches_closed_form():
    # phi(x) of db2 at x = 0, 1/2, ..., 3 in closed form; the cascade
    # iteration's table was 1.6e-10 off
    s3 = math.sqrt(3.0)
    want = [0.0, (2 + s3) / 4, (1 + s3) / 2, 0.0, (1 - s3) / 2,
            (2 - s3) / 4, 0.0]
    phi, _ = scaling_table(get_filter("db2"), 1)
    assert np.max(np.abs(phi - want)) <= 1e-15


# (m, u, v) of each built-in with u probed up to order 2, the same at every
# q = 6..14
_TRIPLES = {"haar": (1, 0, 0), "db2": (3, 0, 1), "db3": (5, 1, 2),
            "db4": (7, 1, 3), "db5": (9, 2, 4), "db6": (11, 2, 5),
            "db7": (13, 2, 6), "db8": (15, 2, 7)}


@pytest.mark.parametrize("q", range(6, 15))
def test_builtin_triples_do_not_depend_on_q(q):
    assert sorted(_TRIPLES) == builtin_filter_names()
    for name, triple in _TRIPLES.items():
        sysw = build_system(name, q=q, s_target=2)
        assert (sysw.m, sysw.u, sysw.v) == triple, name


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
    # a filter short of s_target is built, and its probe reports u < s_target
    sysw = build_system("db4", q=10, s_target=2)
    assert sysw.u < 2 and sysw.fd_ratios[2] > FD_STABLE_RATIO


def test_haar_fails_first_order_probe():
    sysw = build_system("haar", q=10, s_target=1)
    assert sysw.u < 1 and sysw.fd_ratios[1] > FD_STABLE_RATIO


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
    loaded = build_system(str(path), q=10)
    assert (loaded.m, loaded.u, loaded.v) == (haar.m, haar.u, haar.v)
    assert np.array_equal(loaded.psi, haar.psi)
