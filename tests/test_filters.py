import math

import numpy as np
import pytest

from dyadshift.filters import (FilterError, QMF_TOL, builtin_filter_names,
                               get_filter, highpass_from_lowpass,
                               load_filter_file, validate_filter)

ROOT2 = math.sqrt(2.0)


def test_builtin_names():
    names = builtin_filter_names()
    assert "haar" in names
    for n in range(2, 9):
        assert f"db{n}" in names


def test_haar_exact():
    h = get_filter("haar")
    assert np.array_equal(h, np.array([1.0, 1.0]) / ROOT2)


def test_db2_closed_form():
    # independent closed form: ((1+r3), (3+r3), (3-r3), (1-r3)) / (4 r2)
    r3 = math.sqrt(3.0)
    ref = np.array([1 + r3, 3 + r3, 3 - r3, 1 - r3]) / (4.0 * ROOT2)
    assert np.allclose(get_filter("db2"), ref, atol=1e-14)


@pytest.mark.parametrize("name", builtin_filter_names())
def test_qmf_conditions(name):
    h = get_filter(name)
    validate_filter(h)  # should not raise
    assert abs(h.sum() - ROOT2) < QMF_TOL
    L = h.size
    for shift in range(2, L, 2):
        assert abs(np.dot(h[:-shift], h[shift:])) < QMF_TOL
    assert abs(np.dot(h, h) - 1.0) < QMF_TOL


def test_highpass_haar():
    g = highpass_from_lowpass(get_filter("haar"))
    assert np.allclose(g, np.array([1.0, -1.0]) / ROOT2)


@pytest.mark.parametrize("name", ["db3", "db5", "db8"])
def test_highpass_orthogonal_to_lowpass(name):
    h = get_filter(name)
    g = highpass_from_lowpass(h)
    assert abs(np.dot(h, g)) < 1e-12
    assert abs(np.dot(g, g) - 1.0) < 1e-12


def test_validate_rejects_bad_sum():
    with pytest.raises(FilterError):
        validate_filter(np.array([0.5, 0.5]))


def test_validate_rejects_non_orthonormal():
    h = get_filter("db4").copy()
    h[0] += 1e-6
    with pytest.raises(FilterError):
        validate_filter(h)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite_taps(bad):
    # NaN fails no comparison, so each later check would let it pass
    with pytest.raises(FilterError, match="finite"):
        validate_filter(np.array([bad, bad]))
    with pytest.raises(FilterError, match="finite"):
        validate_filter(np.append(get_filter("db2")[:3], bad))


def test_validate_rejects_odd_length():
    with pytest.raises(FilterError):
        validate_filter(np.array([1.0, 0.0, 0.0]))


def test_load_filter_file_roundtrip(tmp_path):
    h = get_filter("db4")
    p = tmp_path / "custom.flt"
    p.write_text("# a filter\n" + "\n".join(f"{c:.17g}" for c in h) + "\n")
    loaded = load_filter_file(str(p))
    assert np.allclose(loaded, h, atol=1e-15)


def test_generated_filters_match_literature_lengths():
    for n in range(2, 9):
        assert get_filter(f"db{n}").size == 2 * n
