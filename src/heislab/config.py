"""Experiment configuration: `key = value` lines, comments with `#`.

Every key has a default, so the empty document is a valid experiment
(n=1 isotropic, t=1, m=200000, seed=42).  Unknown keys are
errors — silent typos are worse than strictness — and parsing collects
every problem in the document before raising, not just the first.

The resolved configuration (defaults filled in, n inferred from weights)
is echoed into every artifact in a canonical form: sorted `key = value`
lines that parse back to an equal configuration.
"""

import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence, Tuple, Union, get_args, get_origin

import numpy as np

from .calculus import make_registry_function
from .diffusion import SPACE_FULL, SPACE_REDUCED
from .lsi import DEFAULT_C_REF, FORM_FAMILIES
from .model import SymplecticForm, make_isotropic_form, make_nonisotropic_form

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "canonical_text",
    "build_form",
    "format_value",
]

# Largest polygon segment count.  The distance solver's arrays hold K + 1
# nodes, so K = 10**8 asks for gigabytes; the cap keeps them to megabytes.
_K_MAX = 100_000


class ConfigError(ValueError):
    """All configuration problems found in one document."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    weights: Optional[Tuple[float, ...]] = None
    n: int = 1
    t: Tuple[float, ...] = (1.0,)
    N: int = 1000  # not read, as every subcommand samples the exact law; the benchmark sets it
    m: int = 200000
    seed: int = 42
    f: Tuple[str, ...] = ()  # empty means the subcommand's default selection
    c_ref: float = DEFAULT_C_REF
    space: str = SPACE_FULL
    K: int = 64
    lambdas: Tuple[float, ...] = (0.5, 1.0, 2.0)
    dims: Tuple[int, ...] = (1, 2, 3, 4)
    scan_forms: Tuple[str, ...] = ("isotropic", "ascending_weights")
    target_w: Tuple[float, ...] = (3.0, 4.0)
    target_c: float = 0.0


# every config key is an ExperimentConfig field of the same name
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _parse_scalar(kind, raw: str):
    if kind is int:
        return int(raw, 10)
    if kind is float:
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError("must be finite")
        return value
    return raw


def _parse_value(kind, raw: str):
    """Parse raw text as the field type: a scalar or a comma list of them."""
    if get_origin(kind) is Union:  # Optional[X]
        kind = get_args(kind)[0]
    if get_origin(kind) is not tuple:
        return _parse_scalar(kind, raw)
    items = [item.strip() for item in raw.split(",")]
    if "" in items:
        raise ValueError("empty list element")
    return tuple(_parse_scalar(get_args(kind)[0], item) for item in items)


def parse_config(text: str, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Parse and fully validate a configuration document.

    `overrides` are the command line's `--set` items, applied after the
    text; a message about one names the item instead of a line.  Raises
    ConfigError carrying one message per problem: unknown keys, malformed
    values, inconsistent n/weights, and out-of-range values.
    """
    errors = []
    raw: dict = {}
    explicit = set()
    lines = [(f"line {lineno}", line) for lineno, line in enumerate(text.splitlines(), start=1)]
    lines += [(f"--set {item!r}", line) for item in overrides for line in item.splitlines()]
    for where, line in lines:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"{where}: expected `key = value`, got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS:
            errors.append(f"{where}: unknown key {key!r}")
            continue
        field = _FIELDS[key]
        if value == "":
            # a key whose default is unset may be set back to it
            if field.default in (None, ()):
                raw[key] = field.default
                explicit.discard(key)
            else:
                errors.append(f"{where}: key {key!r} needs a value")
            continue
        try:
            raw[key] = _parse_value(field.type, value)
            explicit.add(key)
        except (ValueError, TypeError) as exc:
            errors.append(f"{where}: bad value for {key!r}: {exc}")

    cfg = ExperimentConfig(**raw)

    errors.extend(_validate(cfg, explicit))
    if errors:
        raise ConfigError(errors)

    # Re-freeze with the inferred dimension so the echo shows resolved values.
    if cfg.weights is not None and "n" not in explicit:
        cfg = replace(cfg, n=len(cfg.weights))
    return cfg


def _validate(cfg: ExperimentConfig, explicit) -> list:
    errors = []
    if cfg.weights is not None:
        if any(v <= 0 for v in cfg.weights):
            errors.append("weights must be positive")
        if "n" in explicit and cfg.n != len(cfg.weights):
            errors.append(
                f"n = {cfg.n} conflicts with {len(cfg.weights)} weights; drop one of the keys"
            )
    n_eff = len(cfg.weights) if (cfg.weights is not None and "n" not in explicit) else cfg.n
    if n_eff < 1:
        errors.append("n must be >= 1")
    if cfg.N < 1:
        errors.append("N must be >= 1")
    if cfg.m < 2:
        errors.append("m must be >= 2")
    if not (0 <= cfg.seed < 2 ** 64):
        errors.append("seed must fit in 64 bits")
    if any(t <= 0 for t in cfg.t):
        errors.append("t values must be positive")
    if cfg.c_ref <= 0:
        errors.append("c_ref must be positive")
    if cfg.K < 2:
        errors.append("K must be >= 2")
    elif cfg.K > _K_MAX:
        errors.append(f"K must be <= {_K_MAX}")
    if any(d < 1 for d in cfg.dims):
        errors.append("dims must be >= 1")
    if cfg.space not in (SPACE_FULL, SPACE_REDUCED):
        errors.append(f"space must be {SPACE_FULL} or {SPACE_REDUCED}, got {cfg.space!r}")
    for name in cfg.scan_forms:
        if name not in FORM_FAMILIES:
            errors.append(f"unknown form family {name!r}; expected one of {sorted(FORM_FAMILIES)}")
    for sel in cfg.f:
        try:
            make_registry_function(sel, 2 * max(n_eff, 1))
        except ValueError as exc:
            errors.append(f"bad f selector {sel!r}: {exc}")
    if not errors:
        try:
            build_form(cfg)
        except ValueError as exc:
            errors.append(f"cannot build form: {exc}")
        except MemoryError:  # the form holds its n weights
            key = "n" if cfg.weights is None else "weights"
            errors.append(f"cannot build form: {key} is too large to allocate")
    return errors


def build_form(cfg: ExperimentConfig) -> SymplecticForm:
    """Construct the SymplecticForm of a validated config: isotropic on n
    blocks when `weights` is unset, else the block form with those weights,
    which is the realified pairing Im<w, z>_Q of a trace-class Q with
    eigenvalues q.
    """
    if cfg.weights is None:
        return make_isotropic_form(cfg.n)
    return make_nonisotropic_form(cfg.weights)


def format_value(value) -> str:
    """Canonical text of one value in every artifact: None and non-finite
    floats are empty, as both are null in JSON; booleans are `true`/`false`,
    finite floats are their repr, tuples are comma-joined.

    Numpy scalars are cast to Python ones first; repr(np.float64(x)) would
    give `np.float64(x)`.
    """
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value)) if math.isfinite(value) else ""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ",".join(format_value(item) for item in value)
    raise TypeError(f"cannot format {value!r}")


def canonical_text(cfg: ExperimentConfig) -> str:
    """Sorted `key = value` lines; parses back to an equal config."""
    lines = [f"{key} = {format_value(getattr(cfg, key))}" for key in sorted(_FIELDS)]
    return "\n".join(lines) + "\n"
