"""Model files: named Hamiltonians with options, strict about unknown keys."""

from __future__ import annotations

import json
from pathlib import Path
from .metric import HamiltonianSpec
from .scalars import as_exponent, as_fraction

_TOP_KEYS = {"name", "hamiltonian", "options"}
_OPTION_KEYS = {"order", "observables", "hbar", "numeric"}
_OBSERVABLES = {"p", "x", "N"}


class ModelError(ValueError):
    """A model file violated the schema."""


class Model:
    __slots__ = ("name", "spec", "order", "observables", "hbar", "numeric")

    def __init__(self, name, spec: HamiltonianSpec, order, observables, hbar, numeric):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "observables", observables)
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "numeric", numeric)

    def __setattr__(self, name, value):
        raise AttributeError("Model is immutable")


def model_from_obj(obj) -> Model:
    if not isinstance(obj, dict):
        raise ModelError("model file must hold a JSON object")
    extra = set(obj) - _TOP_KEYS
    if extra:
        raise ModelError(f"unknown model keys: {sorted(extra)}")
    if "name" not in obj or "hamiltonian" not in obj:
        raise ModelError("model needs 'name' and 'hamiltonian'")
    try:
        spec = HamiltonianSpec.from_json(obj["hamiltonian"])
    except ValueError as exc:
        raise ModelError(str(exc)) from exc
    options = obj.get("options", {})
    extra = set(options) - _OPTION_KEYS
    if extra:
        raise ModelError(f"unknown option keys: {sorted(extra)}")
    order = options.get("order")
    if order is not None:
        order = as_exponent(order)
        if order < 0:
            raise ModelError("order must be >= 0")
    observables = options.get("observables", [])
    bad = set(observables) - _OBSERVABLES
    if bad:
        raise ModelError(f"unknown observables: {sorted(bad)}")
    hbar = options.get("hbar")
    if hbar is not None:
        hbar = as_fraction(hbar)
    numeric = {k: as_fraction(v) for k, v in options.get("numeric", {}).items()}
    return Model(obj["name"], spec, order, observables, hbar, numeric)


def load_model(path: str | Path) -> Model:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return model_from_obj(obj)


def bundled_model_path(name: str) -> Path:
    return Path(__file__).parent / "models" / f"{name}.json"
