import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starmetric.metric import (
    DegenerateParams,
    HamiltonianSpec,
    certify_metric,
    expand_gaussian_in_coupling,
    gaussian_branch_identities,
    gaussian_exponent,
    log_linear_in_n_check,
    metric_residual,
    number_observable,
    observable_residual,
    pde_operator,
    quadratic_hamiltonian,
    solution_family_closure,
    solve_perturbative,
)
from starmetric.phasepoly import CouplingSeries, PhasePoly
from starmetric.scalars import GaussianRational, I, ParamPoly
from starmetric.star import ExpQuadForm, dagger, dagger_series, is_hermitian, star_log, star_series

from _helpers import bundled, quadratic, random_poly

x = PhasePoly.x()
p = PhasePoly.p()
IX3 = bundled("ix3").spec
SHIFTED = bundled("shifted").spec


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def quad_symbols():
    spec, (a, b, c) = quadratic()
    return spec, a, b, c


def family_residual(spec, r, s, t) -> PhasePoly:
    """The residual prefactor of exp(r p^2 + s p x + t x^2): zero iff (r, s, t)
    is in the quadratic model's solution family."""
    return metric_residual(spec, ExpQuadForm.pure_exponent(gaussian_exponent(r, s, t))).prefactor


def exp_r_p2(b, c):
    return ExpQuadForm.pure_exponent(PhasePoly.monomial(c / (b * 2), 0, 0, -1).scaled(-1) * p**2)


def exp_t_x2(a, c):
    return ExpQuadForm.pure_exponent(PhasePoly.monomial(c / (a * 2), 0, 0, -1) * x**2)


class TestPdeOperator:
    def test_quadratic_model_printed_coefficients(self):
        spec, a, b, c = quad_symbols()
        L = pde_operator(spec).normalized()
        expected = {
            (0, 0): PhasePoly.monomial(c, 0, 0, 1) + PhasePoly.monomial(c, 1, 1, 0).scaled(-2 * I),
            (0, 1): PhasePoly.monomial(c, 0, 1, 1) + PhasePoly.monomial(b, 1, 0, 1).scaled(-2 * I),
            (1, 0): PhasePoly.monomial(c, 1, 0, 1) + PhasePoly.monomial(a, 0, 1, 1).scaled(2 * I),
            (0, 2): PhasePoly.monomial(b, 0, 0, 2),
            (2, 0): -PhasePoly.monomial(a, 0, 0, 2),
        }
        assert set(L.coeffs) == set(expected)
        for key, value in expected.items():
            assert L.coeffs[key] == value

    def test_cubic_model_printed_coefficients(self):
        L = pde_operator(IX3).normalized()
        (g,) = ParamPoly.generators("g")
        one_g = ParamPoly.constant(("g",), 1)
        expected = {
            (0, 0): PhasePoly.monomial(g, 3, 0, 0).scaled(2 * I),
            (0, 1): PhasePoly.monomial(g, 2, 0, 1).scaled(-3),
            (0, 2): PhasePoly.monomial(g, 1, 0, 2).scaled(-3 * I),
            (0, 3): PhasePoly.monomial(g, 0, 0, 3),
            (1, 0): PhasePoly.monomial(one_g, 0, 1, 1).scaled(-2 * I),
            (2, 0): PhasePoly.monomial(one_g, 0, 0, 2),
        }
        assert set(L.coeffs) == set(expected)
        for key, value in expected.items():
            assert L.coeffs[key] == value

    def test_shifted_model_printed_coefficients(self):
        L = pde_operator(SHIFTED).subs_hbar(1).normalized()
        expected = {
            (0, 0): PhasePoly.monomial(2 * I, 1, 0, 0),
            (0, 1): PhasePoly.monomial(I, 1, 0, 0) - PhasePoly.one(),
            (0, 2): PhasePoly.const(gr(Fraction(-1, 2))),
            (1, 0): PhasePoly.monomial(-I, 0, 1, 0),
            (2, 0): PhasePoly.const(gr(Fraction(1, 2))),
        }
        assert set(L.coeffs) == set(expected)
        for key, value in expected.items():
            assert L.coeffs[key] == value

    def test_apply_matches_direct_residual(self):
        rng = random.Random(21)
        for spec in (quad_symbols()[0], IX3, SHIFTED):
            L = pde_operator(spec)
            for _ in range(17):
                theta = random_poly(rng, max_terms=3, max_x=3)
                assert L.apply(theta) == metric_residual(spec, theta)

    def test_mixed_exponential_conjugation_identity(self):
        # the similarity transform that proves hermiticity of solutions,
        # exp(-i hbar dx dp) L exp(i hbar dx dp) = -conj(L), says that
        # dagger(L(theta)) = -L(dagger(theta)) for every theta
        rng = random.Random(5)
        for spec in (quad_symbols()[0], IX3, SHIFTED):
            L = pde_operator(spec)
            for _ in range(15):
                theta = random_poly(rng)
                assert dagger(L.apply(theta)) == -L.apply(dagger(theta))


class TestMetricResidual:
    def test_hermitian_hamiltonian_identity_metric(self):
        spec = HamiltonianSpec(p**2 + x**2)
        assert metric_residual(spec, PhasePoly.one()).is_zero

    def test_quadratic_p_observable_gaussian(self):
        spec, a, b, c = quad_symbols()
        assert metric_residual(spec, exp_r_p2(b, c)).prefactor.is_zero

    def test_quadratic_x_observable_gaussian(self):
        spec, a, b, c = quad_symbols()
        assert metric_residual(spec, exp_t_x2(a, c)).prefactor.is_zero

    def test_x_observable_printed_value_fails(self):
        # regression guard: t = c/(2 b hbar) does not solve the residual
        # (only t = c/(2 a hbar) does, unless a = b)
        spec, a, b, c = quad_symbols()
        wrong = ExpQuadForm.pure_exponent(PhasePoly.monomial(c / (b * 2), 0, 0, -1) * x**2)
        assert not metric_residual(spec, wrong).prefactor.is_zero

    def test_shifted_oscillator_exponential(self):
        e = ExpQuadForm.pure_exponent(PhasePoly.monomial(-2, 0, 1, 0))
        res = metric_residual(SHIFTED, e)
        assert res.prefactor.subs_hbar(1).is_zero
        assert not res.prefactor.is_zero  # the solution is tied to hbar = 1

    def test_cubic_series_residual(self):
        theta = solve_perturbative(IX3.h0, IX3.v, 1)
        assert metric_residual(IX3, theta).is_zero

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_perturbed_series_residual_is_both_sides(self, n):
        # the one-pass residual of a wrong Theta equals the two series products
        coeffs = list(solve_perturbative(IX3.h0, IX3.v, 3).coeffs)
        coeffs[n] = coeffs[n] + PhasePoly.monomial(gr(Fraction(1, 3), 2), 2, -1, 0)
        theta = CouplingSeries("g", coeffs)
        h = IX3.as_exact_series("g", 3)
        expected = star_series(h, theta) - star_series(theta, dagger_series(h))
        residual = metric_residual(IX3, theta)
        assert not residual.is_zero
        assert residual.order == expected.order == 3
        for got, want in zip(residual.coeffs, expected.coeffs):
            assert got.terms == want.terms


class TestObservableResidual:
    def test_momentum_with_p_gaussian(self):
        _, a, b, c = quad_symbols()
        assert observable_residual(p, exp_r_p2(b, c)).prefactor.is_zero

    def test_position_with_x_gaussian(self):
        _, a, b, c = quad_symbols()
        assert observable_residual(x, exp_t_x2(a, c)).prefactor.is_zero

    def test_both_force_constant(self):
        theta = PhasePoly.const(7)
        assert observable_residual(x, theta).is_zero
        assert observable_residual(p, theta).is_zero
        # a non-constant candidate fails one of them
        assert not observable_residual(p, x**2).is_zero

    def test_momentum_reduces_to_x_derivative(self):
        rng = random.Random(22)
        for _ in range(10):
            theta = random_poly(rng)
            expected = theta.derivative("x") * PhasePoly.hbar() * -I
            assert observable_residual(p, theta) == expected


class TestGaussianFamily:
    def test_p_branch_in_family(self):
        spec, a, b, c = quad_symbols()
        r = PhasePoly.monomial(c / (b * 2), 0, 0, -1).scaled(-1)
        zero = PhasePoly.zero()
        assert family_residual(spec, r, zero, zero).is_zero
        assert all(i.is_zero for i in gaussian_branch_identities(a, b, c, r, zero, zero))

    def test_x_branch_in_family(self):
        spec, a, b, c = quad_symbols()
        t = PhasePoly.monomial(c / (a * 2), 0, 0, -1)
        zero = PhasePoly.zero()
        assert family_residual(spec, zero, zero, t).is_zero
        assert all(i.is_zero for i in gaussian_branch_identities(a, b, c, zero, zero, t))

    def test_generic_point_not_in_family(self):
        spec, a, b, c = quad_symbols()
        one = PhasePoly.one()
        assert not family_residual(spec, one, PhasePoly.zero(), one).is_zero

    def test_n_branch_identities_numeric(self):
        # r = t = c/(2 hbar (a-b)) with s the series root, checked at a
        # truncated order by substituting the series into the identities
        a, b = Fraction(3, 2), Fraction(1, 2)
        theta = expand_gaussian_in_coupling(a, b, 3)
        spec = HamiltonianSpec(
            PhasePoly.monomial(a, 0, 2, 0) + PhasePoly.monomial(b, 2, 0, 0),
            ("c", PhasePoly.monomial(I, 1, 1, 0)),
        )
        assert metric_residual(spec, theta).is_zero
        assert observable_residual(number_observable(), theta).is_zero


class TestExpansion:
    def test_order_zero_is_one(self):
        theta = expand_gaussian_in_coupling(Fraction(3, 2), Fraction(1, 2), 0)
        assert theta == CouplingSeries.one("c", 0)

    def test_order_one(self):
        theta = expand_gaussian_in_coupling(Fraction(3, 2), Fraction(1, 2), 1)
        expected = (p**2 + x**2) * PhasePoly.hbar(-1) * Fraction(1, 2)
        assert theta.coeffs[1] == expected

    def test_order_two_cross_term(self):
        theta = expand_gaussian_in_coupling(Fraction(3, 2), Fraction(1, 2), 2)
        assert theta.coeffs[2].coeff(1, 1, -1) == gr(0, Fraction(1, 2))

    def test_degenerate_params(self):
        with pytest.raises(DegenerateParams):
            expand_gaussian_in_coupling(1, 1, 2)


class TestCertify:
    def test_cubic_metric_certified(self):
        theta = solve_perturbative(IX3.h0, IX3.v, 3)
        report = certify_metric(theta)
        assert report.hermitian and report.positive and report.order == 3

    def test_quadratic_expansion_certified(self):
        report = certify_metric(expand_gaussian_in_coupling(Fraction(3, 2), Fraction(1, 2), 3))
        assert report.hermitian and report.positive

    @pytest.mark.parametrize("ring", ["gaussian", "param"])
    def test_hermitian_part_with_one_perturbed_term(self, ring):
        # a + dagger(a) is hermitian; adding i c to one of its coefficients,
        # c real and nonzero, is not
        rng = random.Random(ring)
        (q,) = ParamPoly.generators("q")
        for _ in range(10):
            a = random_poly(rng, max_terms=3, nonzero=True)
            if ring == "param":
                a = a.map_coeffs(lambda c: q * c + 1)
            h = a + dagger(a)
            assert is_hermitian(h)
            key = sorted(h.terms)[rng.randrange(len(h.terms))] if h.terms else (0, 0, 0)
            bump = gr(0, rng.choice([-2, 1, 3])) * (q if ring == "param" else 1)
            assert not is_hermitian(h + PhasePoly({key: bump}))

    @pytest.mark.parametrize("ring", ["gaussian", "param"])
    @pytest.mark.parametrize("order", [1, 4])
    def test_solved_certificate_on_ix3(self, ring, order):
        # the x^0 part of a solved Theta_n is its integration function: none
        # or a real one keeps the ix3 metric hermitian, an imaginary one does not
        (a,) = ParamPoly.generators("a")
        scale = a if ring == "param" else gr(1)
        v = IX3.v.map_coeffs(lambda c: scale * c)
        for free, hermitian in ((None, True), (gr(2), True), (I, False)):
            functions = {} if free is None else {order: PhasePoly.monomial(scale * free, 0, 2, -1)}
            theta = solve_perturbative(IX3.h0, v, order, integration_functions=functions)
            report = certify_metric(theta, solved=True)
            assert report == certify_metric(theta) and report.hermitian == hermitian

    def test_non_hermitian_candidate_flagged(self):
        bad = CouplingSeries("g", [PhasePoly.one(), PhasePoly.monomial(I, 1, 0, 0)])
        report = certify_metric(bad)
        assert not report.hermitian

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.integers(0, 2**32), st.lists(st.booleans(), min_size=1, max_size=4))
    def test_star_log_hermitian_iff_series_hermitian(self, seed, hermitian):
        # coefficient n is a random Laurent-in-p polynomial, or its hermitian part
        rng = random.Random(seed)
        coeffs = [PhasePoly.one()]
        for make_hermitian in hermitian:
            c = random_poly(rng, max_terms=3, max_x=2)
            coeffs.append((c + dagger(c)).scaled(Fraction(1, 2)) if make_hermitian else c)
        s = CouplingSeries("g", coeffs)
        by_log = all(is_hermitian(c) for c in star_log(s).coeffs)
        assert by_log == all(is_hermitian(c) for c in s.coeffs) == certify_metric(s).positive


class TestLogLinearInN:
    def test_printed_third_order_values(self):
        a, b = Fraction(3, 2), Fraction(1, 2)  # a - b = 1
        log = star_log(expand_gaussian_in_coupling(a, b, 3))
        assert log.coeffs[2] == PhasePoly.const(gr(Fraction(1, 4)))
        assert log.coeffs[1] == (p**2 + x**2) * PhasePoly.hbar(-1) * Fraction(1, 2)
        assert log.coeffs[3] == (p**2 + x**2) * PhasePoly.hbar(-1) * Fraction(1, 6)

    def test_holds_through_order_six(self):
        theta = expand_gaussian_in_coupling(Fraction(3, 2), Fraction(1, 2), 6)
        assert log_linear_in_n_check(theta)

    def test_order_zero(self):
        theta = expand_gaussian_in_coupling(Fraction(3, 2), Fraction(1, 2), 0)
        assert log_linear_in_n_check(theta)

    @pytest.mark.parametrize("quadratic", [p**2, x**2])
    def test_unpaired_quadratic_fails(self, quadratic):
        # log_*(1 + c A) = c A through order 1: p^2/hbar without x^2/hbar, and
        # the other way round
        theta = CouplingSeries("c", [PhasePoly.one(), quadratic * PhasePoly.hbar(-1)])
        assert not log_linear_in_n_check(theta)


class TestClosure:
    def test_trivial_closure_is_identity(self):
        theta = solve_perturbative(IX3.h0, IX3.v, 2)
        assert solution_family_closure(IX3, theta, [1], [1]) == theta

    def test_h_times_solution_still_solves(self):
        theta = solve_perturbative(IX3.h0, IX3.v, 2)
        moved = solution_family_closure(IX3, theta, [0, 1], [1])
        assert metric_residual(IX3, moved).is_zero

    def test_hermitian_variant_preserves_hermiticity(self):
        # with real coefficients, g(dagger(H)) = dagger(g(H))
        theta = solve_perturbative(IX3.h0, IX3.v, 2)
        coeffs = [1, Fraction(1, 3)]
        moved = solution_family_closure(IX3, theta, coeffs, coeffs)
        assert metric_residual(IX3, moved).is_zero
        assert all(is_hermitian(coeff) for coeff in moved.coeffs)


class TestBuilders:
    def test_quadratic_dagger_matches_printed(self):
        spec, a, b, c = quad_symbols()
        hd = dagger(spec.h0)
        expected = (
            PhasePoly.monomial(a, 0, 2, 0)
            + PhasePoly.monomial(b, 2, 0, 0)
            + PhasePoly.monomial(c, 1, 1, 0).scaled(-I)
            + PhasePoly.monomial(c, 0, 0, 1)
        )
        assert hd == expected

    def test_cubic_dagger_is_plain_conjugate(self):
        h = IX3.symbolic_total()
        assert dagger(h) == h.conjugate()

    def test_exponent_builder_rejects_phase_space_coeffs(self):
        with pytest.raises(ValueError):
            gaussian_exponent(x, PhasePoly.zero(), PhasePoly.zero())


class TestBoundaryChoices:
    def test_supplied_integration_function(self):
        # an explicit x-independent function of (p, hbar) added at order 1
        # still solves the equation to the requested order
        c2 = PhasePoly.monomial(Fraction(1, 3), 0, -2, 1)
        theta = solve_perturbative(IX3.h0, IX3.v, 2, integration_functions={1: c2})
        default = solve_perturbative(IX3.h0, IX3.v, 2)
        assert theta.coeffs[1] == default.coeffs[1] + c2
        assert metric_residual(IX3, theta).is_zero

    def test_integration_function_must_be_x_free(self):
        with pytest.raises(ValueError):
            solve_perturbative(IX3.h0, IX3.v, 1, integration_functions={1: PhasePoly.x()})

    @pytest.mark.parametrize(
        "order, message",
        [(-1, ">= 0"), (2.0, "an int"), ("2", "an int"), (None, "an int"), (True, "an int"),
         (False, "an int")],
        ids=repr,
    )
    def test_order_must_be_a_nonnegative_int(self, order, message):
        # 2.0, "2" and None raised TypeError, and True solved to order 1
        with pytest.raises(ValueError, match=message):
            solve_perturbative(IX3.h0, IX3.v, order)

    @pytest.mark.parametrize("n, func", [(0, p), (5, p**3), (-1, p)])
    def test_integration_function_order_must_be_solved(self, n, func):
        # order 0 is the normalization 1, and nothing above the order is solved
        with pytest.raises(ValueError, match="outside 1..3"):
            solve_perturbative(IX3.h0, IX3.v, 3, integration_functions={n: func})

    @pytest.mark.parametrize("n", [1.5, "1", None, True, False], ids=repr)
    def test_integration_function_order_must_be_an_int(self, n):
        # 1.5 passed the range test and was then never used; "1" and None
        # raised TypeError; a bool is not an order
        with pytest.raises(ValueError, match="outside 1..3"):
            solve_perturbative(IX3.h0, IX3.v, 3, integration_functions={n: p})

    @pytest.mark.parametrize("func", [5, Fraction(1, 3), None, "p"], ids=repr)
    def test_integration_function_must_be_a_phasepoly(self, func):
        # a plain number raised AttributeError
        with pytest.raises(ValueError, match="not an x-free PhasePoly"):
            solve_perturbative(IX3.h0, IX3.v, 3, integration_functions={1: func})

    def test_quadratic_from_model_params(self):
        # (a, b, c) of the oscillator constants (omega, alpha, beta) = (2, 1/4, 1/8)
        a, b, c = Fraction(13, 16), Fraction(19, 16), Fraction(1, 8)
        spec = quadratic_hamiltonian(a, b, c)
        r = PhasePoly.monomial(-c / (b * 2), 0, 0, -1)
        e = ExpQuadForm.pure_exponent(r * PhasePoly.p(2))
        assert metric_residual(spec, e).prefactor.is_zero
