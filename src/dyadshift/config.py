"""Run configuration: JSON ingestion, defaults, and validation.

A config is a flat JSON object.  Recognized keys and defaults:

    d           spatial dimension; only 1 is accepted (echoed in the manifest)
    s           target smoothness order, integer >= 1
    eps         the epsilon in the coefficient decay exponent, > 0
    theta       boundary-proximity exponent in (0, 1]; default eps / (1 + s)
    r           goodness scale separation; default is the smallest integer
                whose union bound (8 / theta) 2^(-r theta) is <= 1/2
    L           window level: the window is [0, 2^L)
    k_min, k_max  generation range of the window
    q           mesh exponent for wavelet tabulation; must be
                >= max(k_max, 0) + 6, its default
    filter      built-in filter name or path to a filter file
    kernel      operator name: hilbert, smoothed_hilbert, identity
    seed        base RNG seed
    N_max       truncation depth for convergence experiments
    n_omega     number of grid samples
    mc_samples  Monte Carlo sample count for badness statistics
    outdir      output directory for reports and the manifest
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .dyadic import ScaleRangeError, Window, union_bound
from .filters import FilterError
from .operators import make_operator


class ConfigError(ValueError):
    """Invalid or unsatisfiable run configuration."""


# declared field type -> (accepted Python types, description)
_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "str": (str, "a string")}


class RunConfig(NamedTuple):
    """A run's configuration, one field per key (see the module
    docstring); resolved() gives the validated copy with the defaults
    that depend on other keys filled."""

    d: int = 1
    s: int = 1
    eps: float = 0.5
    theta: float | None = None
    r: int | None = None
    L: int = 4
    k_min: int = 0
    k_max: int = 5
    q: int | None = None
    filter: str = "haar"
    kernel: str = ""
    seed: int = 0
    N_max: int = 5
    n_omega: int = 30
    mc_samples: int = 100000
    outdir: str = "runs"

    def resolved(self) -> "RunConfig":
        """The config with its defaults filled, validated: a copy, with
        theta, r and q set where they are null."""
        cfg = self
        cfg._check_types()
        if cfg.d != 1:
            raise ConfigError("invalid config: only d = 1 is supported")
        if cfg.s < 1:
            raise ConfigError("invalid config: s must be an integer >= 1")
        if not cfg.eps > 0.0:
            raise ConfigError("invalid config: eps must be > 0")
        if cfg.theta is None:
            cfg = cfg._replace(theta=cfg.eps / (1 + cfg.s))
        if not 0.0 < cfg.theta <= 1.0:
            raise ConfigError("invalid config: theta must lie in (0, 1]")
        if cfg.r is None:
            cfg = cfg._replace(r=default_r(cfg.theta))
        if cfg.r < 1:
            raise ConfigError("invalid config: r must be >= 1")
        if cfg.q is None:
            cfg = cfg._replace(q=cfg.least_q)
        if cfg.q < cfg.least_q:
            raise ConfigError(
                f"invalid config: q={cfg.q} must be >= max(k_max, 0) + 6 "
                f"= {cfg.least_q}")
        if not cfg.kernel:
            raise ConfigError("invalid config: missing kernel")
        try:
            make_operator(cfg.kernel)
        except ValueError as exc:
            raise ConfigError(
                f"invalid config: unknown kernel {cfg.kernel!r}") from exc
        try:
            cfg.window  # Window refuses k_min > k_max and L < -k_min
        except ScaleRangeError as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        if cfg.L + cfg.k_max + 1 > 62:
            raise ConfigError("invalid config: need L + k_max + 1 <= 62 so "
                              "positions fit 64-bit integer units")
        if cfg.L > 1023:
            raise ConfigError("invalid config: need L <= 1023 so the "
                              "window length 2^L is a float64")
        for name, least in (("seed", 0), ("N_max", 0), ("n_omega", 1),
                            ("mc_samples", 1)):
            if getattr(cfg, name) < least:
                raise ConfigError(f"invalid config: {name} must be >= {least}")
        cfg._check_filter()
        return cfg

    @property
    def least_q(self) -> int:
        """The least q the config accepts, and its default; 6 is the q the
        probe system of _check_filter is built at."""
        return max(self.k_max, 0) + 6

    @property
    def window(self) -> Window:
        """The run's window; Window decides whether L, k_min and k_max
        form one."""
        return Window(L=self.L, k_min=self.k_min, k_max=self.k_max)

    def _check_types(self) -> None:
        """Each key holds its declared type, or null where that is allowed;
        numbers (never bools) must be finite with magnitude <= 2^53.  The
        declared types are the annotations' text (ForwardRefs, under
        postponed evaluation)."""
        for (name, declared), value in zip(self.__annotations__.items(),
                                           self):
            declared = declared.__forward_arg__
            kind = declared.removesuffix(" | None")
            if value is None and kind != declared:
                continue
            types, what = _TYPES[kind]
            if (isinstance(value, bool) or not isinstance(value, types)
                    or kind != "str" and not abs(value) <= 2 ** 53):
                raise ConfigError(
                    f"invalid config: {name} must be {what}"
                    + ("" if kind == "str" else " of magnitude <= 2^53")
                    + f", got {value!r:.40}")

    def _check_filter(self) -> None:
        from .wavelets import build_system
        try:
            probe = build_system(self.filter, q=6, s_target=self.s)
        except (FilterError, OSError) as exc:
            raise ConfigError(f"invalid config: filter: {exc}") from exc
        # the widest m-dilate of a window cube reaches (m-1)/2 coarsest
        # sidelengths past the window, and the geometry forms (m-1) times
        # that sidelength in int64: keep both within 2^62 units
        w = self.window
        if w.extent_units + (probe.m - 1) * w.len_units(w.k_min) > 1 << 62:
            raise ConfigError(
                f"invalid config: filter {self.filter!r} (m={probe.m}) needs "
                f"2^(L+k_max+1) + (m-1) 2^(k_max+1-k_min) <= 2^62 so its "
                f"dilates fit 64-bit integer units")
        if probe.v < self.s - 1:
            raise ConfigError(
                f"unsatisfiable (u,v): insufficient moments "
                f"(filter {self.filter!r} has v={probe.v} < s-1={self.s - 1})")


def default_r(theta: float) -> int:
    """Smallest r with (8 / theta) 2^(-r theta) <= 1/2."""
    r = 1
    while union_bound(r, theta) > 0.5:
        r += 1
        if r > 10000:
            raise ConfigError("invalid config: no admissible r below 10000")
    return r


_KEYS = set(RunConfig._fields)


def parse_config(source: str, overrides: dict | None = None) -> RunConfig:
    """Parse a config from a file path or inline JSON text; the non-null
    entries of overrides replace the config's own values."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source) as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:  # also undecodable bytes
            raise ConfigError(
                f"invalid config: cannot read {source!r} ({exc})") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid config: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("invalid config: top level must be an object")
    raw.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    unknown = set(raw) - _KEYS
    if unknown:
        raise ConfigError(
            f"invalid config: unknown keys {sorted(unknown)}")
    cfg = RunConfig(**raw)
    return cfg.resolved()


def manifest_json(cfg: RunConfig, results: dict) -> str:
    """Deterministic manifest text: config echo, derived quantities and a
    command's results."""
    payload = {"config": cfg._asdict(),
               "derived": {"union_bound": union_bound(cfg.r, cfg.theta)},
               "results": results}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
