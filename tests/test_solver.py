import json
from fractions import Fraction
from pathlib import Path

import pytest

from starmetric.metric import HamiltonianSpec, cubic_pt, metric_residual, solve_perturbative
from starmetric.phasepoly import CouplingSeries, PhasePoly
from starmetric.scalars import GaussianRational, I
from starmetric.star import star, star_log

GOLDENS = Path(__file__).parent / "goldens"


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def golden_series(name: str) -> CouplingSeries:
    with open(GOLDENS / name, encoding="utf-8") as fh:
        return CouplingSeries.from_json(json.load(fh))


def solved(order: int) -> CouplingSeries:
    spec = cubic_pt()
    return solve_perturbative(spec.h0, spec.v, order)


class TestPerturbativeSolver:
    def test_order_zero(self):
        assert solved(0) == CouplingSeries.one("g", 0)

    def test_first_order_printed(self):
        expected = PhasePoly(
            {
                (1, -4, 2): gr(0, Fraction(3, 4)),
                (2, -3, 1): gr(Fraction(-3, 4)),
                (3, -2, 0): gr(0, Fraction(-1, 2)),
                (4, -1, -1): gr(Fraction(1, 4)),
            }
        )
        assert solved(1).coeffs[1] == expected

    def test_order_three_matches_golden(self):
        assert solved(3) == golden_series("ix3_theta_order3.json")

    def test_residual_vanishes_to_order(self):
        spec = cubic_pt()
        for order in (1, 2, 3):
            theta = solve_perturbative(spec.h0, spec.v, order)
            assert metric_residual(spec, theta).is_zero

    def test_second_order_is_half_square_of_first(self):
        # the boundary choice makes the log's second order vanish, i.e.
        # theta_2 = (theta_1 * theta_1) / 2 under the star product
        theta = solved(2)
        assert theta.coeffs[2] == star(theta.coeffs[1], theta.coeffs[1]).scaled(Fraction(1, 2))

    def test_classical_limit_is_singular(self):
        # the top x power at every order carries a negative hbar degree
        theta = solved(3)
        for n in (1, 2, 3):
            coeff = theta.coeffs[n]
            top = max(k[0] for k in coeff.terms)
            hbar_degrees = [k[2] for k in coeff.terms if k[0] == top]
            assert all(h < 0 for h in hbar_degrees)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            solve_perturbative(PhasePoly.p(1), PhasePoly.x(3), 1)
        with pytest.raises(ValueError):
            solve_perturbative(PhasePoly.p(2), PhasePoly.p(1), 1)
        with pytest.raises(ValueError):
            solve_perturbative(PhasePoly.p(2), PhasePoly.x(3), -1)

    def test_other_cubic_potential(self):
        # the solver is not tied to the bundled potential; any x polynomial works
        v = PhasePoly.x(2) + PhasePoly.monomial(I, 1, 0, 0)
        spec = cubic_pt()
        theta = solve_perturbative(PhasePoly.p(2), v, 2)
        assert metric_residual(HamiltonianSpec(PhasePoly.p(2), ("g", v)), theta).is_zero


class TestStarLogOfSolution:
    def test_matches_golden(self):
        assert star_log(solved(3)) == golden_series("ix3_log_order3.json")

    def test_second_order_vanishes(self):
        assert star_log(solved(2)).coeffs[2].is_zero
