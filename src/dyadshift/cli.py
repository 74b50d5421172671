"""Command line front end.

Subcommands: grid-stats, wavelet-check, decay-audit, represent, convergence.
Each takes a config (file path or inline JSON) plus a few overriding flags,
writes its reports and a JSON manifest under the output directory, and exits
with 0 on success, 2 on configuration errors, 3 on numerical findings (a
bound from the underlying estimates is violated), and 4 on convergence or
resource failures.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, RunConfig, manifest_json, parse_config
from .dyadic import DyadicGrid, ScaleRangeError, pi_bad_estimate
from .filters import FilterError
from .harness import (NoiseFloorError, audit_rows_csv, convergence_experiment,
                      decay_audit, randomized_expansion)
from .operators import TestFunction, make_operator
from .wavelets import CascadeError, build_system, gram_defect

EXIT_CONFIG = 2
EXIT_FINDING = 3
EXIT_RESOURCE = 4

# the failures a command can raise besides ConfigError; numerical
# findings are not raised but returned as EXIT_FINDING by the command
_RESOURCE_ERRORS = (CascadeError, FilterError, MemoryError, NoiseFloorError,
                    OSError, ScaleRangeError)


def _outdir(cfg: RunConfig) -> str:
    os.makedirs(cfg.outdir, exist_ok=True)
    return cfg.outdir


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _default_pair(cfg: RunConfig) -> tuple[TestFunction, TestFunction]:
    """A bump pair near the window centre, clear of the boundary."""
    centre = 2.0 ** cfg.L / 2.0
    return (TestFunction(center=centre - 0.7, halfwidth=0.8),
            TestFunction(center=centre + 0.9, halfwidth=0.7))


def cmd_grid_stats(cfg: RunConfig) -> int:
    report = pi_bad_estimate(cfg.window, r=cfg.r, theta=cfg.theta,
                             samples=cfg.mc_samples, seed=cfg.seed)
    out = _outdir(cfg)
    _write(os.path.join(out, "goodness.csv"), report.to_csv())
    results = {
        "pi_bad_hat": report.pi_bad_hat,
        "stderr": report.stderr,
        "bound": report.bound,
    }
    _write(os.path.join(out, "manifest.json"), manifest_json(cfg, results))
    if report.pi_bad_hat > report.bound + 3.0 * report.stderr:
        print(f"finding: pi_bad_hat {report.pi_bad_hat:.5f} exceeds the "
              f"union bound {report.bound:.5f}", file=sys.stderr)
        return EXIT_FINDING
    print(f"pi_bad_hat {report.pi_bad_hat:.5f} <= bound {report.bound:.5f}")
    return 0


def cmd_wavelet_check(cfg: RunConfig) -> int:
    system = build_system(cfg.filter, q=cfg.q, s_target=cfg.s)
    entries = [(k, l, "psi") for k in range(3) for l in range(2 ** k)]
    defect = gram_defect(system, entries, res=min(cfg.q, 16), span=(-8.0, 9.0))
    results = {
        "m": system.m, "u": system.u, "v": system.v,
        "cascade_residual": system.cascade_residual,
        "fd_ratios": system.fd_ratios,
        "gram_defect": defect,
        "moments": {a: system.moment(a) for a in range(system.v + 2)},
    }
    out = _outdir(cfg)
    _write(os.path.join(out, "manifest.json"), manifest_json(cfg, results))
    print(f"filter {cfg.filter}: m={system.m} u={system.u} v={system.v} "
          f"gram defect {defect:.3g}")
    return 0


def cmd_decay_audit(cfg: RunConfig) -> int:
    grid = DyadicGrid.random(cfg.window, cfg.seed)
    op = make_operator(cfg.kernel)
    if op.czs_seminorm is None:
        raise ConfigError("decay-audit needs a singular kernel: "
                          f"{cfg.kernel!r} has no Calderon-Zygmund bound")
    system = build_system(cfg.filter, q=cfg.q, s_target=cfg.s)
    rows, info = decay_audit(op, system, grid, s=cfg.s, eps=cfg.eps,
                             theta=cfg.theta, i_max=cfg.N_max,
                             j_max=cfg.N_max, q_loc=min(cfg.q, 10))
    out = _outdir(cfg)
    _write(os.path.join(out, "audit.csv"), audit_rows_csv(rows))
    _write(os.path.join(out, "manifest.json"), manifest_json(cfg, info))
    bad = [r for r in rows if r.kind in ("equal", "near") and r.ratio > 1.0]
    if bad:
        print(f"finding: {len(bad)} equal/near cells exceed the operator "
              f"norm bound", file=sys.stderr)
        return EXIT_FINDING
    print(f"audit: {len(rows)} cells, max ratio "
          f"{max((r.ratio for r in rows), default=0.0):.3g}")
    return 0


def cmd_represent(cfg: RunConfig) -> int:
    system = build_system(cfg.filter, q=cfg.q, s_target=cfg.s)
    op = make_operator(cfg.kernel)
    f, g = _default_pair(cfg)
    res = randomized_expansion(op, system, cfg.window, f, g, r=cfg.r,
                               theta=cfg.theta, n_omega=cfg.n_omega,
                               seed=cfg.seed, q_loc=min(cfg.q, 10))
    out = _outdir(cfg)
    results = {k: res[k] for k in ("estimate", "stderr", "truth", "n_omega",
                                   "pi_good", "pairings")}
    _write(os.path.join(out, "manifest.json"), manifest_json(cfg, results))
    print(f"estimate {res['estimate']:.6f} +- {res['stderr']:.2g} "
          f"(reference {res['truth']:.6f})")
    return 0


def cmd_convergence(cfg: RunConfig) -> int:
    system = build_system(cfg.filter, q=cfg.q, s_target=cfg.s)
    op = make_operator(cfg.kernel)
    # mean-zero bumps: a nonzero mean leaves coarse-pair mass whose joins
    # fall outside the window, a plateau no truncation level can remove
    centre = 2.0 ** cfg.L / 2.0
    f = TestFunction(center=centre - 0.2, halfwidth=0.8, tilt=1)
    g = TestFunction(center=centre + 0.1, halfwidth=0.7, tilt=1)
    curve = convergence_experiment(op, system, cfg.window, f, g, s=cfg.s,
                                   eps=cfg.eps, N_max=cfg.N_max,
                                   n_omega=cfg.n_omega, seed=cfg.seed,
                                   r=cfg.r, theta=cfg.theta,
                                   q_loc=min(cfg.q, 10))
    out = _outdir(cfg)
    _write(os.path.join(out, "curve.csv"), curve.csv())
    results = {"slope": curve.slope, "fit_range": list(curve.fit_range),
               "truth": curve.truth, "pi_good": curve.pi_good,
               "excluded_window": curve.excluded_window,
               "pairings": curve.pairings}
    _write(os.path.join(out, "manifest.json"), manifest_json(cfg, results))
    print(f"slope {curve.slope:.3f} over N in {curve.fit_range}")
    return 0


_COMMANDS = {
    "grid-stats": cmd_grid_stats,
    "wavelet-check": cmd_wavelet_check,
    "decay-audit": cmd_decay_audit,
    "represent": cmd_represent,
    "convergence": cmd_convergence,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dyadshift",
                                description=__doc__.splitlines()[0])
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", required=True,
                   help="config file path or inline JSON object")
    p.add_argument("--seed", type=int, default=None, help="override seed")
    p.add_argument("--outdir", default=None, help="override output directory")
    return p


def main(argv=None) -> int:
    """Run one command; the output directory is --outdir, else
    $DYADSHIFT_OUTDIR, else the config's outdir, and the manifest records
    the one used."""
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, {
            "seed": args.seed,
            "outdir": args.outdir or os.environ.get("DYADSHIFT_OUTDIR")})
        return _COMMANDS[args.command](cfg)
    except (ConfigError, *_RESOURCE_ERRORS) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
