"""Run configuration: flat key = value files plus command-line overrides.

The configuration format is one ``key = value`` pair per line; ``#`` starts
a comment.  A command's flags set the keys it reads and take precedence
over the file; a file may also set keys that only other commands read.
Documented keys:

    kind            frac_noise | farima | generic_ma | arma | white_noise
    d               memory parameter in (0, 1/2) (frac_noise / farima)
    noise_variance  innovation variance, > 0
    ar              comma-separated phi_1..phi_p   (farima / arma)
    ma              comma-separated theta_1..theta_q (farima / arma)
    ma_coeffs       comma-separated b_0..b_q, b_0 = 1 (generic_ma)
    n               dump length for the coeffs command
    k               predictor order
    h_max           largest horizon for the figure3 command
    d_grid          comma-separated memory parameters for grid commands
    k_grid          comma-separated orders for grid commands
    h_grid          comma-separated horizons for the montecarlo command (default 1)
                    (the values of each grid must be distinct)
    seed            64-bit RNG seed
    reps            Monte-Carlo replications
    out             output directory
    svg             true | false, also emit SVG charts
    acvf_tol        certified relative autocovariance accuracy of fits and MSEs
    sim_method      circulant_embedding | ma_truncation
    ma_cov_tol      MA sampler's covariance error bound (estimated for FARIMA/ARMA)
    dump_paths      true | false, dump simulated paths from montecarlo

Each key may appear once in a file.  ``_KINDS`` lists the model keys each
kind reads and the ``ProcessModel`` constructor arguments they fill; any
other model key set for that kind is an error.  The remaining keys are the
fields of :class:`RunConfig`, each parsed by its type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, get_type_hints

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


# each model kind, mapping the model keys it reads to the arguments of its
# ProcessModel constructor; setting a model key the kind does not read is an error
_KINDS = {
    "frac_noise": {"d": "d"},
    "farima": {"d": "d", "ar": "ar", "ma": "ma"},
    "generic_ma": {"ma_coeffs": "coeffs"},
    "arma": {"ar": "ar", "ma": "ma"},
    "white_noise": {},
}
_MODEL_KEYS = tuple(dict.fromkeys(key for keys in _KINDS.values() for key in keys))


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
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        for key in _MODEL_KEYS:
            if key in self.provided and key not in _KINDS[self.kind]:
                raise ConfigError(f"{key} is not a parameter of kind = {self.kind}")
        if "d" in _KINDS[self.kind] and not 0.0 < self.d < 0.5:
            raise ConfigError("d must lie strictly inside (0, 1/2)")
        if not 0.0 < self.noise_variance < math.inf:
            raise ConfigError("noise_variance must be positive and finite")
        if self.n < 0:
            raise ConfigError("n must be nonnegative")
        for name in ("k", "h_max"):
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
        for name, hi, want in (("d_grid", 0.5, "lie strictly inside (0, 1/2)"),
                               ("k_grid", math.inf, "be >= 1"), ("h_grid", math.inf, "be >= 1")):
            grid = getattr(self, name)
            if not all(0 < v < hi for v in grid):
                raise ConfigError(f"{name} values must {want}")
            if len(set(grid)) < len(grid):
                raise ConfigError(f"{name} values must be distinct")

    def model(self) -> ProcessModel:
        """Build the configured process model."""
        if self.kind == "generic_ma" and not self.ma_coeffs:
            raise ConfigError("generic_ma requires ma_coeffs")
        args = {arg: getattr(self, key) for key, arg in _KINDS[self.kind].items()}
        try:
            return getattr(ProcessModel, self.kind)(**args, noise_variance=self.noise_variance)
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


# every RunConfig field but ``provided`` is a config key, parsed by its type
_TYPE_PARSERS = {str: str, float: float, int: int, bool: _parse_bool,
                 tuple[float, ...]: _parse_floats, tuple[int, ...]: _parse_ints}
_PARSERS = {key: _TYPE_PARSERS[hint]
            for key, hint in get_type_hints(RunConfig).items() if key != "provided"}


def parse_config_file(path: str | Path) -> dict[str, Any]:
    """Read a flat key = value file into parsed values."""
    out: dict[str, Any] = {}
    lines: dict[str, int] = {}
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
        if key in lines:
            raise ConfigError(f"{path}:{ln}: {key} is already set on line {lines[key]}")
        lines[key] = ln
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
