"""Shared test inputs: the bundled models, read from their files, and seeded
random generators for the exact property tests (not flaky)."""

import random
from fractions import Fraction
from pathlib import Path

import starmetric
from starmetric.modelio import Model, load_model
from starmetric.phasepoly import PhasePoly
from starmetric.scalars import GaussianRational, ParamPoly, RatFunc2

MODELS = Path(starmetric.__file__).parent / "models"


def model_path(name: str) -> str:
    """The file of the bundled model ``name``: ix3, shifted or quadratic."""
    return str(MODELS / f"{name}.json")


def bundled(name: str) -> Model:
    """The bundled model ``name``, read as the CLI reads it."""
    return load_model(model_path(name))


def quadratic():
    """The bundled quadratic model's spec, a p^2 + b x^2 + i c x p, and its
    symbolic parameters (a, b, c)."""
    return bundled("quadratic").spec, ParamPoly.generators("a", "b", "c")


def ratfunc_generators():
    """q1 and q2 as RatFunc2s."""
    return tuple(RatFunc2(q) for q in ParamPoly.generators(*RatFunc2.PARAMS))


def random_gr(rng: random.Random, span: int = 5) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
    )


def random_poly(
    rng: random.Random,
    max_terms: int = 4,
    max_x: int = 3,
    p_span: int = 2,
    h_span: int = 1,
    nonzero: bool = False,
) -> PhasePoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (
            rng.randint(0, max_x),
            rng.randint(-p_span, p_span),
            rng.randint(-h_span, h_span),
        )
        terms[key] = random_gr(rng)
    poly = PhasePoly(terms)
    if nonzero and poly.is_zero:
        return PhasePoly.one()
    return poly


def random_q_poly(rng: random.Random, max_terms: int = 3, deg: int = 2) -> ParamPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[(rng.randint(0, deg), rng.randint(0, deg))] = random_gr(rng, span=3)
    return ParamPoly(("q1", "q2"), terms)


def random_ratfunc(rng: random.Random) -> RatFunc2:
    num = random_q_poly(rng)
    den = random_q_poly(rng)
    if den.is_zero:
        den = ParamPoly.constant(("q1", "q2"), 1)
    return RatFunc2(num, den)
