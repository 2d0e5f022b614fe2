"""Flat key-value configuration files for model and contract parameters.

Format: one ``key = value`` pair per line, ``#`` starts a comment, arrays are
whitespace- or comma-separated.  Keys: r, delta, sigma, lambda, p, xi, q,
eta, K, L, rho_L, gamma_L (array keys also accepted with a [] suffix).
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError
from .model import DownOutStepSpec, HejdModel

__all__ = ["parse_config", "parse_config_text"]

_SCALAR_KEYS = ("r", "delta", "sigma", "lambda", "K", "L", "rho_L", "gamma_L")
_ARRAY_KEYS = ("p", "xi", "q", "eta")
_REQUIRED = ("r", "delta", "sigma", "lambda", "K")


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
        if key not in _SCALAR_KEYS + _ARRAY_KEYS:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_floats(raw)

    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"{origin}: missing required key {key!r}")
    for key in _SCALAR_KEYS:
        if key in values and len(values[key]) != 1:
            raise ConfigError(f"{origin}: key {key!r} must hold a single value")

    scalar = lambda key, default=None: values[key][0] if key in values else default
    try:
        model = HejdModel(
            r=scalar("r"),
            delta=scalar("delta"),
            sigma=scalar("sigma"),
            lam=scalar("lambda"),
            up_weights=values.get("p", ()),
            up_rates=values.get("xi", ()),
            down_weights=values.get("q", ()),
            down_rates=values.get("eta", ()),
        )
        spec = DownOutStepSpec(
            strike=scalar("K"),
            barrier=scalar("L", 0.0),
            knock_rate=scalar("rho_L", 0.0),
            seasoning=scalar("gamma_L", 0.0),
        )
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

