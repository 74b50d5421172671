import json

import pytest
from hypothesis import given, settings, strategies as st

from dyadshift import cli, dyadic, harness
from dyadshift.cli import main
from dyadshift.config import (ConfigError, RunConfig, default_r,
                              manifest_json, parse_config)
from dyadshift.dyadic import DyadicGrid, ScaleRangeError
from dyadshift.filters import FilterError
from dyadshift.harness import NoiseFloorError
from dyadshift.wavelets import CascadeError


def test_defaults_resolve():
    cfg = parse_config('{"kernel": "hilbert"}')
    assert cfg.theta == pytest.approx(0.25)
    assert cfg.r == 24
    assert cfg.q == cfg.k_max + 6


def test_default_r_ladder():
    # (8d/theta) 2^{-r theta} <= 1/2 at theta=1 needs r=4
    assert default_r(1.0) == 4
    assert default_r(0.25) == 24


def test_haar_rejected_for_s2():
    with pytest.raises(ConfigError, match="insufficient moments"):
        parse_config('{"kernel": "hilbert", "s": 2, "filter": "haar"}')


def test_haar_accepted_for_s1():
    cfg = parse_config('{"kernel": "hilbert", "s": 1, "filter": "haar"}')
    assert cfg.filter == "haar"


def test_missing_kernel_rejected():
    with pytest.raises(ConfigError, match="invalid config"):
        parse_config('{"s": 1}')


def test_q_too_small_rejected():
    with pytest.raises(ConfigError, match="q"):
        parse_config('{"kernel": "hilbert", "q": 8, "k_max": 5}')


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config('{"kernel": "hilbert", "bogus": 1}')


def test_config_from_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text('{"kernel": "smoothed_hilbert", "seed": 9}')
    cfg = parse_config(str(p))
    assert cfg.kernel == "smoothed_hilbert"
    assert cfg.seed == 9


def test_manifest_is_deterministic():
    cfg = parse_config('{"kernel": "hilbert"}')
    a = manifest_json(cfg, {"x": 1.5})
    b = manifest_json(cfg, {"x": 1.5})
    assert a == b
    payload = json.loads(a)
    assert payload["config"]["kernel"] == "hilbert"
    assert "union_bound" in payload["derived"]


def test_cli_config_error_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("DYADSHIFT_OUTDIR", str(tmp_path))
    assert main(["grid-stats", "--config", '{"s": 0, "kernel": "hilbert"}']) == 2
    assert main(["grid-stats", "--config", "/no/such/file.json"]) == 2


def test_cli_grid_stats_runs_and_reproduces(tmp_path, monkeypatch):
    cfg = ('{"kernel": "hilbert", "s": 1, "filter": "haar", "theta": 1.0, '
           '"r": 5, "L": 3, "k_min": -2, "k_max": 5, "mc_samples": 20000}')
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    monkeypatch.delenv("DYADSHIFT_OUTDIR", raising=False)
    assert main(["grid-stats", "--config", cfg, "--outdir", str(out1)]) == 0
    assert main(["grid-stats", "--config", cfg, "--outdir", str(out2)]) == 0
    assert (out1 / "goodness.csv").read_bytes() == \
        (out2 / "goodness.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1["config"].pop("outdir")
    m2["config"].pop("outdir")
    assert m1 == m2


def test_cli_wavelet_check_haar(tmp_path, monkeypatch):
    monkeypatch.setenv("DYADSHIFT_OUTDIR", str(tmp_path))
    cfg = '{"kernel": "hilbert", "s": 1, "filter": "haar"}'
    assert main(["wavelet-check", "--config", cfg]) == 0
    res = json.loads((tmp_path / "manifest.json").read_text())["results"]
    assert (res["m"], res["u"], res["v"]) == (1, 0, 0)
    assert res["gram_defect"] < 1e-10


def test_cli_decay_audit_small(tmp_path, monkeypatch):
    monkeypatch.setenv("DYADSHIFT_OUTDIR", str(tmp_path))
    cfg = ('{"kernel": "hilbert", "s": 1, "filter": "haar", "theta": 1.0, '
           '"r": 5, "L": 3, "k_min": -3, "k_max": 3, "N_max": 4, "q": 9}')
    assert main(["decay-audit", "--config", cfg]) == 0
    lines = (tmp_path / "audit.csv").read_text().splitlines()
    assert lines[0].startswith("class,i,j,")
    assert len(lines) > 1


def test_cli_seed_override(tmp_path, monkeypatch):
    monkeypatch.setenv("DYADSHIFT_OUTDIR", str(tmp_path))
    cfg = ('{"kernel": "hilbert", "s": 1, "filter": "haar", "theta": 1.0, '
           '"r": 5, "L": 3, "k_min": -2, "k_max": 5, "mc_samples": 5000}')
    assert main(["grid-stats", "--config", cfg, "--seed", "123"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 123


def _exit_and_stderr(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err.strip()
    return code, err


@pytest.mark.parametrize("cfg", ['{"kernel": "hilbert", "L": "3"}',
                                 '{"kernel": "hilbert", "theta": "x"}',
                                 '{"kernel": "hilbert", "n_omega": 0}',
                                 '{"kernel": "hilbert", "eps": 1e999}',
                                 '{"kernel": "hilbert", "eps": ' + "9" * 400
                                 + '}',
                                 '{"kernel": "hilbert", "L": 60}',
                                 '{"kernel": "hilbert", "d": 2}'])
def test_cli_bad_types_and_ranges_exit_2(tmp_path, capsys, cfg):
    code, err = _exit_and_stderr(
        capsys, ["represent", "--config", cfg, "--outdir", str(tmp_path)])
    assert code == 2
    assert err.startswith("error: invalid config") and "\n" not in err


@pytest.mark.parametrize("cfg, message", [
    ({"kernel": "hilbert", "k_min": 3, "k_max": 2},
     "k_min must be <= k_max"),
    ({"kernel": "hilbert", "L": 1, "k_min": -3},
     "need L >= -k_min so the coarsest cubes fit in the window"),
    ({"kernel": "nope"}, "unknown kernel 'nope'"),
])
def test_cli_bad_window_or_kernel_exits_2(tmp_path, capsys, cfg, message):
    code, err = _exit_and_stderr(
        capsys, ["represent", "--config", json.dumps(cfg),
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert err == f"error: invalid config: {message}"


@pytest.mark.parametrize("q, k", [(-1, -7), (-3, -9), (0, -7)])
def test_cli_q_below_six_exits_2(tmp_path, capsys, q, k):
    # a window with negative k_max used to accept q <= 0, and the wavelet
    # tables then failed with a traceback or a meaningless system
    cfg = json.dumps({"kernel": "hilbert", "q": q, "k_max": k, "k_min": k,
                      "L": -k})
    code, err = _exit_and_stderr(
        capsys, ["wavelet-check", "--config", cfg, "--outdir", str(tmp_path)])
    assert code == 2
    assert err == (f"error: invalid config: q={q} must be >= "
                   f"max(k_max, 0) + 6 = 6")


def test_cli_negative_seed_override_exits_2(tmp_path, capsys):
    code, err = _exit_and_stderr(
        capsys, ["grid-stats", "--config", '{"kernel": "hilbert"}',
                 "--seed", "-1", "--outdir", str(tmp_path)])
    assert code == 2 and "seed" in err


def test_cli_outdir_that_is_a_file_exits_4(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    code, err = _exit_and_stderr(
        capsys, ["wavelet-check", "--config", '{"kernel": "hilbert"}',
                 "--outdir", str(target)])
    assert code == 4 and err.startswith("error: ")


def test_cli_default_window_too_shallow_for_r_exits_4(tmp_path, capsys):
    # theta = 0.25 gives r = 24, so the default reference generation
    # k_min + r = 24 would be finer than k_max = 5
    code, err = _exit_and_stderr(
        capsys, ["grid-stats", "--config", '{"kernel": "hilbert"}',
                 "--outdir", str(tmp_path)])
    assert code == 4
    assert err.startswith("error: ") and "k_max" in err and "\n" not in err


def test_cli_cascade_over_memory_budget_exits_4(tmp_path, capsys):
    # q = 40 asks for a 2^41-point cascade mesh: refused before allocating.
    # q = 2^53, the largest the config accepts, is refused before the mesh
    # size is formed: that integer alone would exhaust memory
    for q in (40, 2 ** 53):
        cfg = json.dumps({"kernel": "hilbert", "q": q})
        code, err = _exit_and_stderr(
            capsys, ["wavelet-check", "--config", cfg,
                     "--outdir", str(tmp_path)])
        assert code == 4
        assert err.startswith("error: cascade") and "\n" not in err


def test_cli_repeated_eigenvalue_filter_exits_4(tmp_path, capsys):
    # a valid QMF whose two-scale matrix has eigenvalue 1 more than once:
    # no unique scaling function (the cascade iteration converged to a comb)
    path = tmp_path / "comb.flt"
    path.write_text("0.7071067811865476\n0\n0\n0.7071067811865476\n")
    cfg = json.dumps({"kernel": "hilbert", "filter": str(path)})
    code, err = _exit_and_stderr(
        capsys, ["wavelet-check", "--config", cfg, "--outdir", str(tmp_path)])
    assert code == 4
    assert err.startswith("error: ") and "eigenvalue 1" in err
    assert "\n" not in err


def test_cli_non_finite_filter_file_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.flt"
    path.write_text("nan\nnan\n")
    cfg = json.dumps({"kernel": "hilbert", "filter": str(path)})
    code, err = _exit_and_stderr(
        capsys, ["wavelet-check", "--config", cfg, "--outdir", str(tmp_path)])
    assert code == 2
    assert err.startswith("error: invalid config") and "finite" in err
    assert "\n" not in err


def test_cli_undecodable_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{}")
    code, err = _exit_and_stderr(
        capsys, ["grid-stats", "--config", str(path), "--outdir",
                 str(tmp_path)])
    assert code == 2
    assert err.startswith("error: invalid config") and "\n" not in err


def test_cli_directory_as_config_exits_2(tmp_path, capsys):
    code, err = _exit_and_stderr(
        capsys, ["grid-stats", "--config", str(tmp_path), "--outdir",
                 str(tmp_path / "out")])
    assert code == 2
    assert err.startswith("error: invalid config") and "\n" not in err


# a window reaching 2^62 units (L + k_max + 1 = 62) whose coarsest
# generation is as wide as the window
_WIDE = '{"kernel": "hilbert", "L": 40, "k_min": -40, "k_max": 21'


def test_cli_wide_filter_dilates_past_int64_exit_2(tmp_path, capsys):
    # db8 (m = 15) dilates the coarsest cube 7 sidelengths past the window
    code, err = _exit_and_stderr(
        capsys, ["decay-audit", "--config", _WIDE + ', "filter": "db8"}',
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert err.startswith("error: invalid config") and "m=15" in err
    assert "\n" not in err


def test_haar_keeps_the_position_limit():
    assert parse_config(_WIDE + ', "filter": "haar"}').L == 40
    with pytest.raises(ConfigError, match="64-bit"):
        parse_config(_WIDE + ', "filter": "haar", "L": 41}')


@pytest.mark.parametrize("exc, code", [
    (MemoryError(), 4),
    (NoiseFloorError("curve dominated by noise"), 4),
    (ScaleRangeError("outside the window"), 4),
    (CascadeError("cascade did not converge"), 4),
    (FilterError("not a QMF"), 4),
    (OSError("disk full"), 4),
    (ConfigError("invalid config: raised by a command"), 2),
])
def test_cli_maps_library_failures_to_exit_codes(tmp_path, capsys,
                                                  monkeypatch, exc, code):
    def fail(cfg):
        raise exc
    monkeypatch.setitem(cli._COMMANDS, "grid-stats", fail)
    got, err = _exit_and_stderr(
        capsys, ["grid-stats", "--config", '{"kernel": "hilbert"}',
                 "--outdir", str(tmp_path)])
    assert got == code
    assert err == f"error: {str(exc) or type(exc).__name__}"


_TINY = {
    "decay-audit": '"filter": "db2", "L": 2, "k_min": -2, "k_max": 1, "s": 1',
    "represent": '"filter": "haar", "L": 3, "k_min": -3, "k_max": 2, "r": 4, '
                 '"theta": 1.0, "n_omega": 2',
    "convergence": '"filter": "haar", "L": 3, "k_min": -3, "k_max": 2, '
                   '"s": 1, "N_max": 3, "n_omega": 2',
}


@pytest.mark.parametrize("kernel", ["hilbert", "smoothed_hilbert", "identity"])
@pytest.mark.parametrize("command", sorted(_TINY))
def test_cli_every_kernel_exits_with_a_documented_code(tmp_path, capsys,
                                                       command, kernel):
    cfg = '{"kernel": "%s", %s}' % (kernel, _TINY[command])
    code, err = _exit_and_stderr(
        capsys, [command, "--config", cfg, "--outdir", str(tmp_path)])
    assert code in (0, 2, 3, 4)
    assert "\n" not in err
    if (command, kernel) == ("decay-audit", "identity"):
        # the identity has no Calderon-Zygmund seminorm to audit against
        assert code == 2 and err.startswith("error: decay-audit needs")


def test_cli_grid_stats_seed_64009_passes(tmp_path):
    # a former 3-sigma position self-check on the first 20,000 samples
    # failed this correct run
    cfg = ('{"kernel": "hilbert", "L": 3, "k_min": -2, "k_max": 10, "r": 5, '
           '"theta": 1.0, "mc_samples": 20000}')
    assert main(["grid-stats", "--config", cfg, "--seed", "64009",
                 "--outdir", str(tmp_path)]) == 0


def test_cli_grid_stats_refuses_huge_monte_carlo(tmp_path, capsys):
    cfg = ('{"kernel": "hilbert", "L": 3, "k_min": -2, "k_max": 10, "r": 5, '
           '"theta": 1.0, "mc_samples": ' + str(2 ** 40) + '}')
    code, err = _exit_and_stderr(capsys, ["grid-stats", "--config", cfg,
                                          "--outdir", str(tmp_path)])
    assert code == 4
    assert "MC_MAX_BITS" in err and "\n" not in err


def test_cli_outdir_flag_beats_environment(tmp_path, monkeypatch):
    flag, env = tmp_path / "flag", tmp_path / "env"
    monkeypatch.setenv("DYADSHIFT_OUTDIR", str(env))
    cfg = ('{"kernel": "hilbert", "L": 3, "k_min": -2, "k_max": 5, "r": 5, '
           '"theta": 1.0, "mc_samples": 2000, "outdir": "unused"}')
    assert main(["grid-stats", "--config", cfg, "--outdir", str(flag)]) == 0
    assert not env.exists()
    manifest = json.loads((flag / "manifest.json").read_text())
    assert manifest["config"]["outdir"] == str(flag)
    # without the flag the environment wins over the config
    assert main(["grid-stats", "--config", cfg]) == 0
    manifest = json.loads((env / "manifest.json").read_text())
    assert manifest["config"]["outdir"] == str(env)


def test_cli_wavelet_check_filter_file(tmp_path, monkeypatch):
    monkeypatch.setenv("DYADSHIFT_OUTDIR", str(tmp_path))
    path = tmp_path / "haar.flt"
    path.write_text("0.70710678118654752\n0.70710678118654752\n")
    cfg = json.dumps({"kernel": "hilbert", "filter": str(path)})
    assert main(["wavelet-check", "--config", cfg]) == 0
    res = json.loads((tmp_path / "manifest.json").read_text())["results"]
    assert (res["m"], res["u"], res["v"]) == (1, 0, 0)


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=4))
_JSON = (_SCALARS | st.lists(_SCALARS, max_size=2)
         | st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2))
# values a config would plausibly hold, so that many objects resolve
_PLAUSIBLE = {"theta": st.floats(0.05, 1.0), "r": st.integers(1, 8),
              "L": st.integers(0, 6), "k_min": st.integers(-3, 0),
              "k_max": st.integers(0, 8), "s": st.integers(1, 2),
              "eps": st.floats(0.1, 2.0), "n_omega": st.integers(1, 5),
              "filter": st.sampled_from(["haar", "db3"])}


_KEYS = st.sampled_from(sorted(RunConfig.__dataclass_fields__) + ["bogus"])
_BASE = st.fixed_dictionaries({"kernel": st.just("hilbert")},
                              optional=_PLAUSIBLE)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_KEYS, _JSON, max_size=6)
       | _BASE
       | st.builds(lambda base, extra: {**base, **extra}, _BASE,
                   st.dictionaries(_KEYS, _JSON, max_size=1)))
def test_any_json_object_resolves_or_raises_config_error(obj):
    try:
        cfg = parse_config(json.dumps(obj))
    except ConfigError:
        return
    assert isinstance(cfg.r, int) and 0.0 < cfg.theta <= 1.0
    assert cfg.q >= cfg.k_max + 6 and cfg.q >= 6


@pytest.mark.parametrize("n_max", [0, 1, 2])
def test_cli_convergence_too_few_levels_exit_4(tmp_path, capsys, monkeypatch,
                                               n_max):
    # fewer than 3 truncation levels can never give a slope fit; the run
    # stops before it draws a grid
    def no_draw(*args):
        raise AssertionError("a grid was drawn")

    monkeypatch.setattr(harness, "_draw", no_draw)
    cfg = ('{"filter": "haar", "kernel": "hilbert", "L": 5, "k_min": -5, '
           '"k_max": 3, "s": 1, "N_max": %d, "n_omega": 2}' % n_max)
    code, err = _exit_and_stderr(
        capsys, ["convergence", "--config", cfg, "--outdir", str(tmp_path)])
    assert code == 4
    assert err.startswith("error: N_max = %d" % n_max) and "\n" not in err


@pytest.mark.parametrize("n_max", [9, 10, 200_000, 10 ** 12])
def test_cli_convergence_levels_beyond_depth_exit_4(tmp_path, capsys,
                                                    monkeypatch, n_max):
    # no pair of the window k = -5..3 has a level max(i, j) above 8, so a
    # larger N_max only repeats the full sum; the run stops before it
    # draws a grid
    def no_draw(*args):
        raise AssertionError("a grid was drawn")

    monkeypatch.setattr(harness, "_draw", no_draw)
    cfg = ('{"filter": "haar", "kernel": "hilbert", "L": 5, "k_min": -5, '
           '"k_max": 3, "s": 1, "N_max": %d, "n_omega": 2}' % n_max)
    code, err = _exit_and_stderr(
        capsys, ["convergence", "--config", cfg, "--outdir", str(tmp_path)])
    assert code == 4
    assert err.startswith("error: N_max = %d exceeds" % n_max)
    assert "k_max - k_min = 8" in err and "\n" not in err
    # at the depth itself the run goes on to draw its grids
    cfg = cfg.replace('"N_max": %d' % n_max, '"N_max": 8')
    with pytest.raises(AssertionError, match="a grid was drawn"):
        main(["convergence", "--config", cfg, "--outdir", str(tmp_path)])


@pytest.mark.parametrize("window", [
    '"filter": "haar", "L": 8, "k_min": -8, "k_max": 5',   # 134 M pairs
    '"filter": "haar", "L": 30, "k_min": 0, "k_max": 5',   # 2^35 cubes
])
def test_cli_oversized_decay_audit_exit_4(tmp_path, capsys, monkeypatch,
                                          window):
    # refused from the window alone: no cube is enumerated
    def no_cubes(self, *args):
        raise AssertionError("cubes were enumerated")

    monkeypatch.setattr(DyadicGrid, "touching_range", no_cubes)
    cfg = '{"kernel": "hilbert", "s": 1, %s}' % window
    code, err = _exit_and_stderr(
        capsys, ["decay-audit", "--config", cfg, "--outdir", str(tmp_path)])
    assert code == 4
    assert "AUDIT_MAX_PAIRS" in err and "\n" not in err


@pytest.mark.parametrize("command, keys", [
    ("represent", '"n_omega": 2'),
    ("convergence", '"s": 1, "N_max": 6, "n_omega": 2'),
])
def test_cli_window_too_deep_for_exact_goodness_exit_4(tmp_path, capsys,
                                                       monkeypatch, command,
                                                       keys):
    # generation 5 of the window k = -20..5 is 25 generations deep, past
    # the 24 pi_bad_exact enumerates: the deepest generation is tried
    # first, so the run is refused before any badness is evaluated
    def no_badness(*args):
        raise AssertionError("badness was evaluated")

    monkeypatch.setattr(dyadic, "_bad_offsets", no_badness)
    cfg = ('{"filter": "haar", "kernel": "hilbert", "L": 20, "k_min": -20, '
           '"k_max": 5, "r": 4, "theta": 1.0, %s}' % keys)
    code, err = _exit_and_stderr(
        capsys, [command, "--config", cfg, "--outdir", str(tmp_path)])
    assert code == 4
    assert err == "error: exact enumeration too large for this window"


@pytest.mark.parametrize("L", [50, 55])
@pytest.mark.parametrize("command", ["represent", "convergence"])
def test_cli_window_past_float64_resolution_exit_4(tmp_path, capsys,
                                                   monkeypatch, command, L):
    # the test functions sit at 2^L / 2: at L = 55 their supports have no
    # width in float64, and at L = 50 one ulp there (2^-3) exceeds the
    # quadrature node spacing 2^-(q_loc + 1) = 2^-7; the run is refused
    # before it draws a grid
    def no_draw(*args):
        raise AssertionError("a grid was drawn")

    monkeypatch.setattr(harness, "_draw", no_draw)
    cfg = ('{"kernel": "hilbert", "L": %d, "k_min": -%d, "k_max": 0, '
           '"r": 70}' % (L, L))
    code, err = _exit_and_stderr(
        capsys, [command, "--config", cfg, "--outdir", str(tmp_path)])
    assert code == 4
    assert err.startswith("error: float64 cannot separate the quadrature "
                          "nodes") and "\n" not in err
