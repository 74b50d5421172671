"""Command line front end.

Subcommands: grid-stats, wavelet-check, decay-audit, represent, convergence.
Each takes a config (file path or inline JSON) plus a few overriding flags
and returns (results, tables, message, finding): the manifest's results,
its CSV reports as {file name: rows, the header first}, its one line and
whether that line reports a finding.  main writes the reports and a JSON
manifest under the output directory, prints the line and exits with 0 on
success, 2 on configuration errors, 3 on numerical findings (a bound from
the underlying estimates is violated), and 4 on convergence or resource
failures.
"""

from __future__ import annotations

import argparse
import os
import sys

# no module uses scipy; it stays imported because the benchmark's child
# process (bench/child.py) reports sys.modules["scipy"].__version__
import scipy  # noqa: F401

from .config import ConfigError, RunConfig, manifest_json, parse_config
from .dyadic import DyadicGrid, ScaleRangeError, pi_bad_estimate
from .filters import FilterError
from .harness import (NoiseFloorError, convergence_experiment, decay_audit,
                      randomized_expansion)
from .operators import TestFunction, make_operator
from .wavelets import CascadeError, build_system, gram_defect

EXIT_CONFIG = 2
EXIT_FINDING = 3
EXIT_RESOURCE = 4

# the failures a command can raise besides ConfigError; numerical
# findings are not raised but returned by the command
_RESOURCE_ERRORS = (CascadeError, FilterError, MemoryError, NoiseFloorError,
                    OSError, ScaleRangeError)


def _default_pair(cfg: RunConfig) -> tuple[TestFunction, TestFunction]:
    """A bump pair near the window centre, clear of the boundary."""
    centre = 2.0 ** cfg.L / 2.0
    return (TestFunction(center=centre - 0.7, halfwidth=0.8),
            TestFunction(center=centre + 0.9, halfwidth=0.7))


def _system(cfg: RunConfig):
    """The config's wavelet system.  A table over the cascade budget at the
    least q the config accepts asks for a lower k_max, not a lower q, which
    the config would refuse."""
    try:
        return build_system(cfg.filter, q=cfg.q, s_target=cfg.s)
    except CascadeError as exc:
        advice = "; lower q"
        if cfg.q != cfg.least_q or not str(exc).endswith(advice):
            raise
        raise CascadeError(
            f"{str(exc).removesuffix(advice)}; lower k_max (q = {cfg.q} is "
            f"already the least q the config accepts, max(k_max, 0) + 6)"
        ) from exc


def cmd_grid_stats(cfg: RunConfig) -> tuple[dict, dict, str, bool]:
    report = pi_bad_estimate(cfg.window, r=cfg.r, theta=cfg.theta,
                             samples=cfg.mc_samples, seed=cfg.seed)
    results = {
        "pi_bad_hat": report.pi_bad_hat,
        "stderr": report.stderr,
        "bound": report.bound,
    }
    # one row; the d column is the dimension, 1
    table = [("samples", "pi_bad_hat", "stderr", "bound", "r", "theta", "d"),
             (cfg.mc_samples, report.pi_bad_hat, report.stderr, report.bound,
              cfg.r, cfg.theta, 1)]
    finding = report.pi_bad_hat > report.bound + 3.0 * report.stderr
    message = (f"pi_bad_hat {report.pi_bad_hat:.5f} exceeds the union bound "
               f"{report.bound:.5f}" if finding else
               f"pi_bad_hat {report.pi_bad_hat:.5f} <= bound {report.bound:.5f}")
    return results, {"goodness.csv": table}, message, finding


def cmd_wavelet_check(cfg: RunConfig) -> tuple[dict, dict, str, bool]:
    system = _system(cfg)
    entries = [(k, l, "psi") for k in range(3) for l in range(2 ** k)]
    defect = gram_defect(system, entries, res=min(cfg.q, 16), span=(-8.0, 9.0))
    results = {
        "m": system.m, "u": system.u, "v": system.v,
        "cascade_residual": system.cascade_residual,
        "fd_ratios": system.fd_ratios,
        "gram_defect": defect,
        "moments": {a: system.moment(a) for a in range(system.v + 2)},
    }
    return results, {}, (f"filter {cfg.filter}: m={system.m} u={system.u} "
                         f"v={system.v} gram defect {defect:.3g}"), False


def cmd_decay_audit(cfg: RunConfig) -> tuple[dict, dict, str, bool]:
    grid = DyadicGrid.random(cfg.window, cfg.seed)
    op = make_operator(cfg.kernel)
    if not op.singular:
        raise ConfigError("decay-audit needs a singular kernel: "
                          f"{cfg.kernel!r} has no Calderon-Zygmund bound")
    system = _system(cfg)
    rows, info = decay_audit(op, system, grid, s=cfg.s, eps=cfg.eps,
                             theta=cfg.theta, i_max=cfg.N_max,
                             j_max=cfg.N_max, q_loc=min(cfg.q, 10))
    # the columns are the fields of DecayAuditRow, kind written as class
    table = [("class", "i", "j", "pair_count", "max_pairing", "bound",
              "ratio", "psi_bound", "psi_ratio"), *rows]
    bad = [r for r in rows if r.kind in ("equal", "near") and r.ratio > 1.0]
    message = (f"{len(bad)} equal/near cells exceed the operator norm bound"
               if bad else f"audit: {len(rows)} cells, max ratio "
               f"{max((r.ratio for r in rows), default=0.0):.3g}")
    return info, {"audit.csv": table}, message, bool(bad)


def cmd_represent(cfg: RunConfig) -> tuple[dict, dict, str, bool]:
    system = _system(cfg)
    op = make_operator(cfg.kernel)
    f, g = _default_pair(cfg)
    res = randomized_expansion(op, system, cfg.window, f, g, r=cfg.r,
                               theta=cfg.theta, n_omega=cfg.n_omega,
                               seed=cfg.seed, q_loc=min(cfg.q, 10))
    results = {k: res[k] for k in ("estimate", "stderr", "truth", "n_omega",
                                   "pi_good", "pairings")}
    return results, {}, (f"estimate {res['estimate']:.6f} +- "
                         f"{res['stderr']:.2g} (reference "
                         f"{res['truth']:.6f})"), False


def cmd_convergence(cfg: RunConfig) -> tuple[dict, dict, str, bool]:
    system = _system(cfg)
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
    results = {"slope": curve.slope, "fit_range": list(curve.fit_range),
               "truth": curve.truth, "pi_good": curve.pi_good,
               "excluded_window": curve.excluded_window,
               "pairings": curve.pairings}
    return results, {"curve.csv": [("N", "e_N", "stderr"), *curve.points]}, (
        f"slope {curve.slope:.3f} over N in {curve.fit_range}"), False


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


def _field(value) -> str:
    """A CSV field: a float to 10 significant digits, None empty."""
    if isinstance(value, float):
        return f"{value:.10g}"
    return "" if value is None else str(value)


def main(argv=None) -> int:
    """Run one command and write its reports and manifest; the output
    directory is --outdir, else $DYADSHIFT_OUTDIR, else the config's
    outdir, and the manifest records the one used."""
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, {
            "seed": args.seed,
            "outdir": args.outdir or os.environ.get("DYADSHIFT_OUTDIR")})
        results, tables, message, finding = _COMMANDS[args.command](cfg)
        files = {name: "".join(",".join(map(_field, row)) + "\n"
                               for row in rows)
                 for name, rows in tables.items()}
        files["manifest.json"] = manifest_json(cfg, results)
        os.makedirs(cfg.outdir, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(cfg.outdir, name), "w") as fh:
                fh.write(text)
    except (ConfigError, *_RESOURCE_ERRORS) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_RESOURCE
    if finding:
        print(f"finding: {message}", file=sys.stderr)
        return EXIT_FINDING
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
