"""Run configuration: flat key = value files plus command-line overrides.

The configuration format is one ``key = value`` pair per line; ``#`` starts
a comment.  Command-line flags mirror config keys and take precedence.
Documented keys:

    kind            frac_noise | farima | generic_ma | arma | white_noise
    d               memory parameter in (0, 1/2) (frac_noise / farima;
                    only a label on generic_ma)
    noise_variance  innovation variance, > 0
    ar              comma-separated phi_1..phi_p   (farima / arma)
    ma              comma-separated theta_1..theta_q (farima / arma)
    ma_coeffs       comma-separated b_0..b_q, b_0 = 1 (generic_ma)
    n               dump length for the coeffs command
    k               predictor order
    h               forecast horizon
    h_max           largest horizon for the figure3 command
    d_grid          comma-separated memory parameters for grid commands
    k_grid          comma-separated orders for grid commands
    h_grid          comma-separated horizons for the montecarlo command
    seed            64-bit RNG seed
    reps            Monte-Carlo replications
    out             output directory
    svg             true | false, also emit SVG charts
    acvf_tol        certified relative autocovariance accuracy of fits and MSEs
    sim_method      circulant_embedding | ma_truncation
    ma_cov_tol      certified covariance error of the MA sampler
    dump_paths      true | false, dump simulated paths from montecarlo
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from .errors import ConfigError, ModelError
from .process import ProcessModel
from .sim import CIRCULANT_EMBEDDING, MA_TRUNCATION

__all__ = ["RunConfig", "parse_config_file", "load_config"]


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_floats(s: str) -> tuple[float, ...]:
    s = s.strip()
    if not s:
        return ()
    try:
        return tuple(float(v) for v in s.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {s!r}") from exc


def _parse_ints(s: str) -> tuple[int, ...]:
    vals = _parse_floats(s)
    if not all(v.is_integer() for v in vals):  # False for inf and nan too
        raise ConfigError(f"expected comma-separated integers, got {s!r}")
    return tuple(int(v) for v in vals)


_PARSERS = {
    "kind": str,
    "d": float,
    "noise_variance": float,
    "ar": _parse_floats,
    "ma": _parse_floats,
    "ma_coeffs": _parse_floats,
    "n": int,
    "k": int,
    "h": int,
    "h_max": int,
    "d_grid": _parse_floats,
    "k_grid": _parse_ints,
    "h_grid": _parse_ints,
    "seed": int,
    "reps": int,
    "out": str,
    "svg": _parse_bool,
    "acvf_tol": float,
    "sim_method": str,
    "ma_cov_tol": float,
    "dump_paths": _parse_bool,
}


# model keys and the kinds that read them; setting one for another kind is an error
_KIND_KEYS = {
    "d": ("frac_noise", "farima", "generic_ma"),
    "ar": ("farima", "arma"),
    "ma": ("farima", "arma"),
    "ma_coeffs": ("generic_ma",),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration.

    ``provided`` records which keys were set explicitly (file or flag), so
    commands can apply their own defaults to untouched parameters.
    """

    kind: str = "frac_noise"
    d: float = 0.3
    noise_variance: float = 1.0
    ar: tuple[float, ...] = ()
    ma: tuple[float, ...] = ()
    ma_coeffs: tuple[float, ...] = ()
    n: int = 200
    k: int = 50
    h: int = 1
    h_max: int = 40
    d_grid: tuple[float, ...] = ()
    k_grid: tuple[int, ...] = ()
    h_grid: tuple[int, ...] = ()
    seed: int = 20260808
    reps: int = 2000
    out: str = "out"
    svg: bool = False
    acvf_tol: float = 1e-10
    sim_method: str = CIRCULANT_EMBEDDING
    ma_cov_tol: float = 1e-6
    dump_paths: bool = False
    provided: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.kind not in ("frac_noise", "farima", "generic_ma", "arma", "white_noise"):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        for key, kinds in _KIND_KEYS.items():
            if key in self.provided and self.kind not in kinds:
                raise ConfigError(f"{key} is not a parameter of kind = {self.kind}")
        if self.kind in ("frac_noise", "farima") and not 0.0 < self.d < 0.5:
            raise ConfigError("d must lie strictly inside (0, 1/2)")
        if not 0.0 < self.noise_variance < math.inf:
            raise ConfigError("noise_variance must be positive and finite")
        if self.n < 0:
            raise ConfigError("n must be nonnegative")
        for name in ("k", "h", "h_max"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.reps < 30:
            raise ConfigError("reps must be >= 30 for meaningful standard errors")
        for name in ("acvf_tol", "ma_cov_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if self.sim_method not in (CIRCULANT_EMBEDDING, MA_TRUNCATION):
            raise ConfigError(f"unknown sim_method {self.sim_method!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")
        for dv in self.d_grid:
            if not 0.0 < dv < 0.5:
                raise ConfigError("d_grid values must lie strictly inside (0, 1/2)")
        for kv in self.k_grid:
            if kv < 1:
                raise ConfigError("k_grid values must be >= 1")
        for hv in self.h_grid:
            if hv < 1:
                raise ConfigError("h_grid values must be >= 1")

    def was_provided(self, key: str) -> bool:
        return key in self.provided

    def model(self) -> ProcessModel:
        """Build the configured process model."""
        try:
            if self.kind == "frac_noise":
                return ProcessModel.frac_noise(self.d, self.noise_variance)
            if self.kind == "farima":
                return ProcessModel.farima(self.d, self.ar, self.ma, self.noise_variance)
            if self.kind == "generic_ma":
                if not self.ma_coeffs:
                    raise ConfigError("generic_ma requires ma_coeffs")
                return ProcessModel.generic_ma(
                    self.ma_coeffs, noise_variance=self.noise_variance,
                    d=self.d if self.was_provided("d") else None)
            if self.kind == "arma":
                return ProcessModel.arma(self.ar, self.ma, self.noise_variance)
            return ProcessModel.white_noise(self.noise_variance)
        except ModelError as exc:
            raise ConfigError(str(exc)) from exc

    def out_dir(self) -> Path:
        path = Path(self.out)
        try:
            path.mkdir(parents=True, exist_ok=True)
            probe = path / ".write_probe"
            probe.write_text("", encoding="utf-8")
            probe.unlink()
        except OSError as exc:
            raise ConfigError(f"output directory {path} is not writable: {exc}") from exc
        return path


def parse_config_file(path: str | Path) -> dict[str, Any]:
    """Read a flat key = value file into parsed values."""
    out: dict[str, Any] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        try:
            out[key] = _PARSERS[key](value.strip())
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}:{ln}: bad value for {key}: {exc}") from exc
    return out


def load_config(config_path: str | Path | None = None,
                overrides: dict[str, Any] | None = None) -> RunConfig:
    """Defaults, then config-file values, then explicit overrides."""
    values: dict[str, Any] = {}
    if config_path is not None:
        values.update(parse_config_file(config_path))
    if overrides:
        unknown = set(overrides) - set(_PARSERS)
        if unknown:
            raise ConfigError(f"unknown config overrides: {sorted(unknown)}")
        values.update(overrides)
    values["provided"] = frozenset(values)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def with_values(cfg: RunConfig, **values: Any) -> RunConfig:
    """Copy of ``cfg`` with ``values`` applied and marked as provided."""
    return replace(cfg, provided=cfg.provided | frozenset(values), **values)
