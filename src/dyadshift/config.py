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
from dataclasses import asdict, dataclass, fields

from .dyadic import ScaleRangeError, Window, union_bound
from .filters import FilterError
from .operators import make_operator


class ConfigError(ValueError):
    """Invalid or unsatisfiable run configuration."""


# declared field type -> (accepted Python types, description)
_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "str": (str, "a string")}


@dataclass
class RunConfig:
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
        """Fill defaults and validate; returns self for chaining."""
        self._check_types()
        if self.d != 1:
            raise ConfigError("invalid config: only d = 1 is supported")
        if self.s < 1:
            raise ConfigError("invalid config: s must be an integer >= 1")
        if not self.eps > 0.0:
            raise ConfigError("invalid config: eps must be > 0")
        if self.theta is None:
            self.theta = self.eps / (1 + self.s)
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError("invalid config: theta must lie in (0, 1]")
        if self.r is None:
            self.r = default_r(self.theta)
        if self.r < 1:
            raise ConfigError("invalid config: r must be >= 1")
        # 6 is the q the probe system of _check_filter is built at
        least_q = max(self.k_max, 0) + 6
        if self.q is None:
            self.q = least_q
        if self.q < least_q:
            raise ConfigError(
                f"invalid config: q={self.q} must be >= max(k_max, 0) + 6 "
                f"= {least_q}")
        if not self.kernel:
            raise ConfigError("invalid config: missing kernel")
        try:
            make_operator(self.kernel)
        except ValueError as exc:
            raise ConfigError(
                f"invalid config: unknown kernel {self.kernel!r}") from exc
        try:
            self.window  # Window refuses k_min > k_max and L < -k_min
        except ScaleRangeError as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        if self.L + self.k_max + 1 > 62:
            raise ConfigError("invalid config: need L + k_max + 1 <= 62 so "
                              "positions fit 64-bit integer units")
        for name, least in (("seed", 0), ("N_max", 0), ("n_omega", 1),
                            ("mc_samples", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"invalid config: {name} must be >= {least}")
        self._check_filter()
        return self

    @property
    def window(self) -> Window:
        """The run's window; Window decides whether L, k_min and k_max
        form one."""
        return Window(L=self.L, k_min=self.k_min, k_max=self.k_max)

    def _check_types(self) -> None:
        """Each key holds its declared type, or null where that is allowed;
        numbers (never bools) must be finite with magnitude <= 2^53."""
        for f in fields(self):
            value = getattr(self, f.name)
            kind = f.type.removesuffix(" | None")
            if value is None and kind != f.type:
                continue
            types, what = _TYPES[kind]
            if (isinstance(value, bool) or not isinstance(value, types)
                    or kind != "str" and not abs(value) <= 2 ** 53):
                raise ConfigError(
                    f"invalid config: {f.name} must be {what}"
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
        extent = 1 << (self.L + self.k_max + 1)
        side = 1 << (self.k_max + 1 - self.k_min)
        if extent + (probe.m - 1) * side > 1 << 62:
            raise ConfigError(
                f"invalid config: filter {self.filter!r} (m={probe.m}) needs "
                f"2^(L+k_max+1) + (m-1) 2^(k_max+1-k_min) <= 2^62 so its "
                f"dilates fit 64-bit integer units")
        if probe.v < self.s - 1:
            raise ConfigError(
                f"unsatisfiable (u,v): insufficient moments "
                f"(filter {self.filter!r} has v={probe.v} < s-1={self.s - 1})")

    def manifest_dict(self) -> dict:
        return asdict(self)


def default_r(theta: float) -> int:
    """Smallest r with (8 / theta) 2^(-r theta) <= 1/2."""
    r = 1
    while union_bound(r, theta) > 0.5:
        r += 1
        if r > 10000:
            raise ConfigError("invalid config: no admissible r below 10000")
    return r


_KEYS = set(RunConfig.__dataclass_fields__)


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


def manifest_json(cfg: RunConfig, extra: dict | None = None) -> str:
    """Deterministic manifest text: config echo plus derived quantities."""
    payload = {"config": cfg.manifest_dict()}
    payload["derived"] = {
        "union_bound": union_bound(cfg.r, cfg.theta),
    }
    if extra:
        payload["results"] = extra
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
