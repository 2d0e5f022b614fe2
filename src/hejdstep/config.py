"""Flat key-value configuration files for model and contract parameters.

Format: one ``key = value`` pair per line, ``#`` starts a comment, arrays are
whitespace- or comma-separated.  Keys: r, delta, sigma, lambda, p, xi, q,
eta, K, L, rho_L, gamma_L (array keys also accepted with a [] suffix).
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError
from .model import DownOutStepSpec, HejdModel

__all__ = ["config_values", "parse_config", "parse_config_text"]

# each config key -> the model or contract field it sets, in the order of the single-value check
_MODEL_FIELDS = {"r": "r", "delta": "delta", "sigma": "sigma", "lambda": "lam",
                 "p": "up_weights", "xi": "up_rates", "q": "down_weights", "eta": "down_rates"}
_CONTRACT_FIELDS = {"K": "strike", "L": "barrier", "rho_L": "knock_rate", "gamma_L": "seasoning"}
_ARRAY_KEYS = ("p", "xi", "q", "eta")
_REQUIRED = ("r", "delta", "sigma", "lambda", "K")


def config_values(obj: HejdModel | DownOutStepSpec | None) -> dict:
    """The config keys of a model or contract with their values, arrays as
    lists; {} for None."""
    fields = {} if obj is None else _MODEL_FIELDS if isinstance(obj, HejdModel) else _CONTRACT_FIELDS
    return {key: list(getattr(obj, f)) if key in _ARRAY_KEYS else getattr(obj, f) for key, f in fields.items()}


def _parse_floats(raw: str) -> list[float]:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"cannot parse numeric value(s) from {raw!r}") from exc


def parse_config_text(text: str, origin: str = "<config>") -> tuple[HejdModel, DownOutStepSpec]:
    values: dict[str, list[float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip().removesuffix("[]")
        if key not in _MODEL_FIELDS and key not in _CONTRACT_FIELDS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_floats(raw)

    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"{origin}: missing required key {key!r}")
    for key in {**_MODEL_FIELDS, **_CONTRACT_FIELDS}:
        if key not in _ARRAY_KEYS and key in values and len(values[key]) != 1:
            raise ConfigError(f"{origin}: key {key!r} must hold a single value")
    values.setdefault("L", [0.0])
    fields = lambda keys: {f: values[k] if k in _ARRAY_KEYS else values[k][0] for k, f in keys.items() if k in values}
    try:
        model = HejdModel(**fields(_MODEL_FIELDS))
        spec = DownOutStepSpec(**fields(_CONTRACT_FIELDS))
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    return model, spec


def parse_config(path: str | Path) -> tuple[HejdModel, DownOutStepSpec]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, origin=str(path))

