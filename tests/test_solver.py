import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from starmetric import metric
from starmetric.metric import (
    HamiltonianSpec,
    UnsolvableOrder,
    certify_metric,
    metric_residual,
    solve_perturbative,
)
from starmetric.phasepoly import CouplingSeries, PhasePoly
from starmetric.scalars import GaussianRational, I, ParamPoly
from starmetric.star import _numerators, is_hermitian, star, star_commutator, star_log

from _helpers import bundled, random_gr

IX3 = bundled("ix3").spec

GOLDENS = Path(__file__).parent / "goldens"


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def golden_series(name: str) -> CouplingSeries:
    with open(GOLDENS / name, encoding="utf-8") as fh:
        return CouplingSeries.from_json(json.load(fh))


def solved(order: int) -> CouplingSeries:
    return solve_perturbative(IX3.h0, IX3.v, order)


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
        spec = IX3
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

    def test_grading(self):
        # H = p^2 + i g x^3 is invariant under x -> s x, p -> t p,
        # hbar -> s t hbar, g -> (t^2/s^3) g, so every term of Theta_n has
        # x + hbar-degree 3n and p + hbar-degree -2n
        theta = solved(24)
        for n, c in enumerate(theta.coeffs):
            assert {(x - p, x + h) for x, p, h in c.terms} == {(5 * n, 3 * n)}

    def test_one_reduction_per_solved_term(self, monkeypatch):
        # a work count that does not drift with the host: the solver reduces
        # each solved term (x >= 1) once
        calls = []
        reduced = metric._reduced

        def counted(*args):
            calls.append(args)
            return reduced(*args)

        monkeypatch.setattr(metric, "_reduced", counted)
        theta = solved(12)
        assert len(calls) == sum(1 for c in theta.coeffs for key in c.terms if key[0] >= 1)
        assert len(calls) > 12

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
        theta = solve_perturbative(PhasePoly.p(2), v, 2)
        assert metric_residual(HamiltonianSpec(PhasePoly.p(2), ("g", v)), theta).is_zero


class TestSolutionCheck:
    @pytest.mark.parametrize(
        "v",
        [
            PhasePoly.monomial(I, 3, 0, 0),
            PhasePoly.monomial(ParamPoly(("a",), {(1,): I}), 3, 0, 0),
        ],
        ids=["gaussian", "param"],
    )
    @pytest.mark.parametrize("top", [True, False], ids=["double-top-term", "real-x-term"])
    def test_corrupted_solution_raises(self, monkeypatch, v, top):
        # the left side recomputed from a wrong Theta_n must not match the
        # right side; the x-free part of Theta_n is free, so an x term changes.
        # A real x^1 term changes only the imaginary part of the left side.
        solution = metric._exchange_solution

        def corrupted(*args):
            theta = solution(*args)
            key = max(theta.terms) if top else (1, 0, 0)
            assert key[0] > 0
            return theta + PhasePoly({key: theta.terms[key] if top else 1})

        assert solve_perturbative(PhasePoly.p(2), v, 2).order == 2
        monkeypatch.setattr(metric, "_exchange_solution", corrupted)
        with pytest.raises(UnsolvableOrder):
            solve_perturbative(PhasePoly.p(2), v, 2)

    @pytest.mark.parametrize("ring", ["gaussian", "param", "mixed"])
    def test_corrupted_random_solution_raises(self, monkeypatch, ring):
        # the check sums [Theta_n, p^2] from k = 1 only; doubling any term of
        # Theta_n with x >= 1 changes that sum, on the integer paths and on
        # the ring path that the mixed ring takes
        solution = metric._exchange_solution
        checked, ring_path = 0, 0
        for seed in range(40):
            v, functions = random_problem(seed, 2, ring, seed % 2)
            ring_path += _numerators(v)[1] is None
            theta = solve_perturbative(PhasePoly.p(2), v, 2, integration_functions=functions)
            if not any(key[0] for c in theta.coeffs for key in c.terms):
                continue

            def corrupted(*args, pick=seed % 3):
                theta_n = solution(*args)
                keys = sorted(key for key in theta_n.terms if key[0])
                if not keys:
                    return theta_n
                key = keys[pick % len(keys)]
                return theta_n + PhasePoly({key: theta_n.terms[key]})

            with monkeypatch.context() as patch:
                patch.setattr(metric, "_exchange_solution", corrupted)
                with pytest.raises(UnsolvableOrder):
                    solve_perturbative(PhasePoly.p(2), v, 2, integration_functions=functions)
            checked += 1
        assert checked >= 20
        assert bool(ring_path) == (ring == "mixed")


class TestStarLogOfSolution:
    def test_matches_golden(self):
        assert star_log(solved(3)) == golden_series("ix3_log_order3.json")

    def test_second_order_vanishes(self):
        assert star_log(solved(2)).coeffs[2].is_zero


def reference_solve(v: PhasePoly, order: int, integration_functions=None) -> CouplingSeries:
    """The exchange-equation recursion written with PhasePoly operations: one
    polynomial per x slice, added into Theta_n slice by slice."""
    integration_functions = integration_functions or {}
    v_conj = v.conjugate()
    thetas = [PhasePoly.one()]
    for n in range(1, order + 1):
        prev = thetas[n - 1]
        rhs = star(v, prev) - prev * v_conj
        slices = {}
        for (xd, pd, hd), c in rhs.terms.items():
            slices[xd] = slices.get(xd, PhasePoly.zero()) + PhasePoly.monomial(c, 0, pd, hd)
        theta_parts = {}
        for j in range(max(slices, default=-1), -1, -1):
            rho = slices.get(j, PhasePoly.zero())
            upper = theta_parts.get(j + 2, PhasePoly.zero())
            num = rho + upper * PhasePoly.hbar(2) * Fraction((j + 2) * (j + 1))
            # divide by 2 i hbar p (j + 1)
            inv = PhasePoly.monomial(-I * Fraction(1, 2 * (j + 1)), 0, -1, -1)
            theta_parts[j + 1] = num * inv
        theta_n = integration_functions.get(n, PhasePoly.zero())
        for j, part in theta_parts.items():
            theta_n = theta_n + part * PhasePoly.x(j)
        check = (
            theta_n.derivative("x") * PhasePoly.monomial(2 * I, 0, 1, 1)
            - theta_n.derivative("x").derivative("x") * PhasePoly.hbar(2)
        )
        if check != rhs:
            raise UnsolvableOrder(f"triangular system inconsistent at order {n}")
        thetas.append(theta_n)
    return CouplingSeries("g", thetas)


# the random problems of the solver's property tests: a seed, an order, the
# coefficient ring of V and whether integration functions are drawn
PROBLEMS = (
    st.integers(0, 2**32),
    st.integers(0, 4),
    st.sampled_from(["gaussian", "param", "mixed"]),
    st.booleans(),
)


def random_problem(seed, order, ring, with_functions):
    """V, a random polynomial in x and hbar over GaussianRational, over
    ParamPoly in one parameter a, or with both kinds of coefficient, and
    random x-free integration functions for some orders when asked."""
    rng = random.Random(seed)
    (a,) = ParamPoly.generators("a")
    terms = {}
    for _ in range(rng.randint(1, 3)):
        c = random_gr(rng)
        if ring == "param" or (ring == "mixed" and rng.random() < 0.5):
            c = a ** rng.randint(0, 2) * c
        terms[rng.randint(0, 3), 0, rng.randint(-1, 1)] = c
    v = PhasePoly(terms)
    functions = {}
    if with_functions:
        for n in range(1, order + 1):
            if rng.random() < 0.5:
                key = (0, rng.randint(-3, 2), rng.randint(-1, 2))
                functions[n] = PhasePoly({key: random_gr(rng)})
    return v, functions


def _pt_potential():
    """V = i (c1 x + c3 x^3) + c2 x^2, the form of a certify-ladder model."""
    return PhasePoly({(1, 0, 0): gr(0, Fraction(-3, 2)), (3, 0, 0): gr(0, Fraction(2, 3)),
                      (2, 0, 0): gr(Fraction(1, 4))})


class TestSolvedTermsAreNormal:
    """`metric._exchange_solution` builds each Theta_n from its terms
    without `accumulate`: they must already be in its normal form."""

    @staticmethod
    def check(theta: CouplingSeries):
        for c in theta.coeffs:
            assert c.terms == PhasePoly._of(c.terms.items()).terms
            assert not any(coeff.is_zero for coeff in c.terms.values())

    @pytest.mark.parametrize(
        "v, order",
        [
            (IX3.v, 6),
            (_pt_potential(), 3),
            (PhasePoly.monomial(ParamPoly(("a",), {(1,): I}), 3, 0, 0), 4),
        ],
        ids=["ix3", "pt", "param-ix3"],
    )
    def test_bundled_forms(self, v, order):
        self.check(solve_perturbative(PhasePoly.p(2), v, order))

    def test_with_integration_functions(self):
        functions = {1: PhasePoly({(0, -2, 1): gr(1, 2)}), 3: PhasePoly({(0, 1, 0): gr(-3)})}
        theta = solve_perturbative(
            PhasePoly.p(2), _pt_potential(), 3, integration_functions=functions
        )
        assert theta.coeffs[1].terms[0, -2, 1] == gr(1, 2)
        self.check(theta)

    @pytest.mark.parametrize("ring", ["gaussian", "param", "mixed"])
    def test_random_problems(self, ring):
        for seed in range(30):
            v, functions = random_problem(seed, 3, ring, seed % 2)
            self.check(solve_perturbative(PhasePoly.p(2), v, 3, integration_functions=functions))


def exchange(rhs: PhasePoly, free: PhasePoly = PhasePoly.zero()) -> PhasePoly:
    """`metric._exchange_solution` on the `_numerators` of rhs."""
    groups, den, params = _numerators(rhs)
    return metric._exchange_solution({e: dict(t) for e, t in groups.items()}, den, params, free)


# one chain, (x - p + 2, x + hbar-degree) = (-1, 5), whose x^2 term cancels
ONE_CHAIN = PhasePoly({(2, 5, 3): gr(1), (1, 4, 4): gr(0, 1), (0, 3, 5): gr(1)})


class TestExchangeSolution:
    """`metric._exchange_solution` called directly: Theta * p^2 - p^2 *
    Theta must give back the right side, and the terms must be normal."""

    @staticmethod
    def solves(theta: PhasePoly, rhs: PhasePoly):
        assert star_commutator(theta, PhasePoly.p(2)) == rhs
        TestSolvedTermsAreNormal.check(CouplingSeries("g", [PhasePoly.one(), theta]))

    def test_one_chain_through_zero(self):
        parts = {(2, 5, 3): (1, 0), (1, 4, 4): (0, 1), (0, 3, 5): (1, 0), (3, 0, 0): (0, 0)}
        theta = metric._exchange_solution({(): parts}, 1, None, PhasePoly.zero())
        # T_3 = -i/6, then T_2 = -i (i + 6 T_3)/4 = 0 and T_1 = -i (1 + 2 T_2)/2
        assert theta.terms == {(3, 4, 2): gr(0, Fraction(-1, 6)), (1, 2, 4): gr(0, Fraction(-1, 2))}
        self.solves(theta, ONE_CHAIN)

    def test_two_interleaved_chains(self):
        # (x - p + 2, x + h) = (-1, 5) and (0, 5), both at x = 0, 1, 2
        other = PhasePoly({(2, 4, 3): gr(0, 2), (1, 3, 4): gr(Fraction(3, 2)),
                           (0, 2, 5): gr(Fraction(-1, 7), 1)})
        theta = exchange(ONE_CHAIN + other)
        assert theta == exchange(ONE_CHAIN) + exchange(other)
        self.solves(theta, ONE_CHAIN + other)

    def test_ring_parts(self):
        # the same right side as ring parts (c, 0) over no denominator
        parts = {key: (c, 0) for key, c in ONE_CHAIN.terms.items()}
        theta = metric._exchange_solution({(): parts}, None, None, PhasePoly.zero())
        assert theta == exchange(ONE_CHAIN)
        self.solves(theta, ONE_CHAIN)

    def test_two_parameter_groups(self):
        (a,) = ParamPoly.generators("a")
        rhs = PhasePoly({(2, 5, 3): a * gr(Fraction(1, 3)), (1, 4, 4): a * a * gr(0, 1),
                         (0, 3, 5): a * gr(2, -1), (3, 2, 0): a * a * gr(Fraction(5, 2))})
        assert len(_numerators(rhs)[0]) == 2
        self.solves(exchange(rhs), rhs)

    def test_free_function(self):
        free = PhasePoly({(0, -2, 1): gr(1, 2), (0, 3, 0): gr(-3)})
        theta = exchange(ONE_CHAIN, free)
        assert theta == exchange(ONE_CHAIN) + free
        self.solves(theta, ONE_CHAIN)


class TestAgainstReference:
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(*PROBLEMS)
    def test_random_potential(self, seed, order, ring, with_functions):
        v, functions = random_problem(seed, order, ring, with_functions)
        got = solve_perturbative(PhasePoly.p(2), v, order, integration_functions=functions)
        assert got == reference_solve(v, order, functions)
        if order:
            assert metric_residual(HamiltonianSpec(PhasePoly.p(2), ("g", v)), got).is_zero


class TestSolvedCertificate:
    def test_x0_certificate_matches_the_full_test(self):
        # on solver outputs, certify_metric(solved=True) decides hermiticity
        # from the x^0 parts alone; it must agree with is_hermitian on every
        # coefficient, and the examples with x-dependent terms must produce
        # both verdicts
        verdicts = set()

        @settings(derandomize=True, max_examples=120, deadline=None, database=None)
        @given(*PROBLEMS)
        def check(seed, order, ring, with_functions):
            v, functions = random_problem(seed, order, ring, with_functions)
            theta = solve_perturbative(PhasePoly.p(2), v, order, integration_functions=functions)
            full = all(is_hermitian(c) for c in theta.coeffs)
            assert certify_metric(theta, solved=True).hermitian == full
            if any(key[0] for c in theta.coeffs for key in c.terms):
                verdicts.add(full)

        check()
        assert verdicts == {True, False}
