"""Shared random generators for the exact property tests (seeded, not flaky)."""

import random
from fractions import Fraction

from starmetric.phasepoly import PhasePoly
from starmetric.scalars import GaussianRational, ParamPoly, RatFunc2


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
