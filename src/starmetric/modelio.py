"""Model files: named Hamiltonians with options.  This is the one reader of
the format; every JSON object goes through `scalars.check_keys` and every
array through `scalars.check_list`, so any malformed file is a `ModelError`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional
from .metric import HamiltonianSpec
from .phasepoly import PhasePoly
from .scalars import (
    GaussianRational, ParamPoly, as_exponent, as_fraction, check_keys, check_list, check_name,
    check_names, read_powers,
)


_TERM_KEYS = {"x", "p", "hbar", "coeff", "params"}


class ModelError(ValueError):
    """A model file violated the schema."""


class Model(NamedTuple):
    name: object
    spec: HamiltonianSpec
    order: Optional[int]
    hbar: Optional[Fraction]
    numeric: dict


def _terms(entries, params, what: str) -> PhasePoly:
    """A term list; with declared ``params`` each coefficient becomes a
    ParamPoly, times the parameter monomial of the term's own ``params``."""

    def term(entry):
        check_keys(entry, _TERM_KEYS, "term", required=("coeff",))
        coeff = GaussianRational.from_json(entry["coeff"])
        if params:
            key = read_powers(entry.get("params", {}), params, "term params")
            coeff = ParamPoly(params, {key: coeff})
        elif "params" in entry:
            raise ValueError("term uses parameters but none are declared")
        return (entry.get("x", 0), entry.get("p", 0), entry.get("hbar", 0)), coeff

    return PhasePoly(map(term, check_list(entries, what)))


def _hamiltonian(obj) -> HamiltonianSpec:
    check_keys(obj, {"terms", "coupling", "params"}, "hamiltonian", required=("terms",))
    params = check_names(obj.get("params", []), "hamiltonian params")
    coupling = None
    if "coupling" in obj:
        cobj = obj["coupling"]
        check_keys(cobj, {"name", "V"}, "coupling", required=("name", "V"))
        coupling = (check_name(cobj["name"], "coupling name"), _terms(cobj["V"], params, "V"))
    return HamiltonianSpec(_terms(obj["terms"], params, "terms"), coupling)


def model_from_obj(obj) -> Model:
    try:
        check_keys(
            obj, {"name", "hamiltonian", "options"}, "model", required=("name", "hamiltonian")
        )
        spec = _hamiltonian(obj["hamiltonian"])
        options = obj.get("options", {})
        check_keys(options, {"order", "hbar", "numeric"}, "options")
        order = hbar = None
        if "order" in options:
            order = as_exponent(options["order"])
            if order < 0:
                raise ValueError("order must be >= 0")
        if "hbar" in options:
            hbar = as_fraction(options["hbar"])
            if hbar == 0:
                raise ValueError("hbar must be nonzero")
        numeric = options.get("numeric", {})
        check_keys(numeric, set(obj["hamiltonian"].get("params", [])), "numeric")
        numeric = {k: as_fraction(v) for k, v in numeric.items()}
    except ValueError as exc:
        raise ModelError(str(exc)) from exc
    return Model(obj["name"], spec, order, hbar, numeric)


def load_model(path: str | Path) -> Model:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return model_from_obj(obj)


def bundled_model_path(name: str) -> Path:
    return Path(__file__).parent / "models" / f"{name}.json"
