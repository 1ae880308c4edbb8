import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from starmetric.metric import PDEOperator
from starmetric.phasepoly import CouplingMismatch, CouplingSeries, PhasePoly
from starmetric.scalars import GaussianRational, I, ParamPoly, RatFunc2
from starmetric.star import (
    BadConstantTerm,
    ExpQuadForm,
    NonTerminating,
    dagger,
    dagger_series,
    is_hermitian,
    moyal_coefficients,
    one_sided_slots,
    star,
    star_commutator,
    star_difference,
    star_exp,
    star_log,
    star_poly_expquad,
    star_series,
    star_series_difference,
    x0_hermitian,
)

from _helpers import random_gr, random_poly

x = PhasePoly.x()
p = PhasePoly.p()
hbar = PhasePoly.hbar()
ih = PhasePoly.monomial(I, 0, 0, 1)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def ring_poly(rng, ring: str) -> PhasePoly:
    """A random PhasePoly, zero 30% of the time, over Gaussian rationals
    ("gaussian"), ParamPoly in a ("param"), both in one polynomial
    ("mixed"), or RatFunc2 in (q1, q2) mixed with Gaussian rationals
    ("ratfunc")."""
    if rng.random() < 0.3:
        return PhasePoly.zero()
    poly = random_poly(rng, max_terms=3)
    if ring == "gaussian":
        return poly
    if ring == "ratfunc":
        q1, q2 = ParamPoly.generators(*RatFunc2.PARAMS)
        dens = (q2 + 2, q1 - q2 + 1)
        return poly.map_coeffs(
            lambda c: c if rng.random() < 0.4 else RatFunc2(q1 * c + 1, rng.choice(dens))
        )
    (a,) = ParamPoly.generators("a")
    keep = 0.5 if ring == "mixed" else 0
    return poly.map_coeffs(lambda c: c if rng.random() < keep else a ** rng.randint(0, 1) * c)


RINGS = ["gaussian", "param", "mixed", "ratfunc"]
RING_CASES = given(st.integers(0, 2**32), st.sampled_from(RINGS))


class TestStar:
    def test_canonical_pair(self):
        assert star(x, p) == x * p + ih
        assert star(p, x) == x * p
        assert star_commutator(x, p) == ih

    def test_pp_xx_commutator(self):
        # oracle: the operator identity [p^2, x^2] = -2 i hbar (xp + px),
        # whose symmetrized symbol is -4 i hbar xp, plus the second-order
        # star term +2 hbar^2 from d2x d2p
        expected = PhasePoly.monomial(gr(0, -4), 1, 1, 1) + PhasePoly.monomial(2, 0, 0, 2)
        assert star_commutator(p**2, x**2) == expected

    def test_self_commutator_vanishes(self):
        rng = random.Random(1)
        for _ in range(10):
            a = random_poly(rng)
            assert star_commutator(a, a).is_zero

    def test_associativity_random(self):
        rng = random.Random(2)
        for _ in range(60):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert star(star(a, b), c) == star(a, star(b, c))

    def test_pointwise_reduction(self):
        rng = random.Random(3)
        for _ in range(20):
            b = random_poly(rng)
            p_only = PhasePoly.monomial(gr(2, 1), 0, -2, 1) + PhasePoly.p(3)
            x_only = PhasePoly.monomial(gr(1, -1), 2, 0, 0) + PhasePoly.one()
            assert star(p_only, b) == p_only * b
            assert star(b, x_only) == b * x_only

    def test_jacobi(self):
        rng = random.Random(4)
        for _ in range(15):
            a, b, c = (random_poly(rng, max_terms=3, max_x=2) for _ in range(3))
            total = (
                star_commutator(star_commutator(a, b), c)
                + star_commutator(star_commutator(b, c), a)
                + star_commutator(star_commutator(c, a), b)
            )
            assert total.is_zero


class TestDagger:
    def test_quadratic_cross_term(self):
        (c,) = ParamPoly.generators("c")
        icpx = PhasePoly.monomial(c, 1, 1, 0).scaled(I)
        expected = PhasePoly.monomial(c, 1, 1, 0).scaled(-I) + PhasePoly.monomial(c, 0, 0, 1)
        assert dagger(icpx) == expected

    def test_real_momentum_functions_fixed(self):
        assert dagger(p**2) == p**2

    def test_cubic_term_conjugates(self):
        (g,) = ParamPoly.generators("g")
        igx3 = PhasePoly.monomial(g, 3, 0, 0).scaled(I)
        assert dagger(igx3) == -igx3

    def test_involution_and_antihomomorphism(self):
        rng = random.Random(5)
        for _ in range(40):
            a, b = random_poly(rng), random_poly(rng)
            assert dagger(dagger(a)) == a
            assert dagger(star(a, b)) == star(dagger(b), dagger(a))

    def test_a_star_adagger_hermitian(self):
        rng = random.Random(6)
        for _ in range(20):
            a = random_poly(rng)
            assert is_hermitian(star(a, dagger(a)))

    def test_hermitian_iff_selfadjoint(self):
        rng = random.Random(7)
        for _ in range(30):
            a = random_poly(rng)
            assert is_hermitian(a) == (dagger(a) == a)


class TestCoefficientPaths:
    def test_gaussian_and_parampoly_coefficients_agree(self):
        # the kernel sums integer numerators when every coefficient is a
        # GaussianRational and ring parts (c, 0) otherwise.  Lifting the
        # coefficients c to a^e c (e = 0 gives ParamPoly constants) on one or
        # both operands, or on some terms of one operand, must scale every
        # result by the matching power of a, a real parameter
        (pa,) = ParamPoly.generators("a")

        def lift(poly, e):
            return poly.map_coeffs(lambda c: pa**e * c)

        rng = random.Random(11)
        verdicts = []
        for _ in range(30):
            a = random_poly(rng, max_x=5)
            b = random_poly(rng, p_span=3, h_span=2)
            e, f = rng.randint(0, 1), rng.randint(0, 1)
            # Gaussian terms and ParamPoly terms a * rest in one operand
            part = PhasePoly({k: c for j, (k, c) in enumerate(a.terms.items()) if j % 2})
            rest = a - part
            mixed = part + lift(rest, 1)
            for op in (star, star_commutator):
                expected = op(a, b)
                assert op(lift(a, e), lift(b, f)) == lift(expected, e + f)
                assert op(a, lift(b, f)) == lift(expected, f)
                assert op(lift(a, e), b) == lift(expected, e)
                assert op(mixed, lift(b, f)) == lift(op(part, b), f) + lift(op(rest, b), 1 + f)
            assert dagger(lift(a, e)) == lift(dagger(a), e)
            assert dagger(mixed) == dagger(part) + lift(dagger(rest), 1)
            for test in (is_hermitian, x0_hermitian):
                for h in (a, a + dagger(a)):
                    verdicts.append(test(h))
                    assert test(lift(h, e)) == verdicts[-1]
                for h0, h1 in ((part, rest), (part + dagger(part), rest + dagger(rest))):
                    assert test(h0 + lift(h1, 1)) == (test(h0) and test(h1))
        assert any(verdicts) and not all(verdicts)

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @RING_CASES
    def test_adjoint_and_hermiticity_by_value(self, seed, ring):
        # RatFunc2 has no canonical form, so results are compared by value:
        # RatFunc2 equality cross-multiplies
        rng = random.Random(seed)
        a, b = ring_poly(rng, ring), ring_poly(rng, ring)
        adjoint = dagger(a)
        assert dagger(adjoint) == a
        assert dagger(star(a, b)) == star(dagger(b), adjoint)
        x0 = lambda poly: {k: c for k, c in poly.terms.items() if not k[0]}
        for h in (a, a + adjoint):
            assert is_hermitian(h) == (dagger(h) == h)
            assert x0_hermitian(h) == (x0(dagger(h)) == x0(h))
        assert is_hermitian(a + adjoint) and x0_hermitian(a + adjoint)


def param_phase_poly(rng, params) -> PhasePoly:
    """A random PhasePoly with negative p powers whose coefficients are
    Laurent ParamPolys over params, or Gaussian rationals 20% of the time."""
    if rng.random() < 0.2:
        return random_poly(rng, max_terms=3, p_span=2)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = (rng.randint(0, 3), rng.randint(-2, 2), rng.randint(-1, 1))
        monos = {
            tuple(rng.randint(-2, 2) for _ in params): random_gr(rng)
            for _ in range(rng.randint(1, 3))
        }
        terms[key] = ParamPoly(params, monos)
    return PhasePoly(terms)


class TestParameterMonomials:
    """The parameters of ParamPoly coefficients are spectators of the Moyal
    sum: d/dx and d/dp do not touch them."""

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.integers(0, 2**32), st.integers(1, 3))
    def test_substitution_commutes_with_the_products(self, seed, n):
        rng = random.Random(seed)
        params = ("a", "b", "c")[:n]
        values = {
            name: Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
            for name in params
        }

        def subs(poly):
            return poly.map_coeffs(lambda c: c.eval(values) if isinstance(c, ParamPoly) else c)

        a, b, c, d = (param_phase_poly(rng, params) for _ in range(4))
        for result, expected in (
            (star(a, b), star(subs(a), subs(b))),
            (star_commutator(a, b), star_commutator(subs(a), subs(b))),
            (star_difference(a, b, c, d), star_difference(subs(a), subs(b), subs(c), subs(d))),
        ):
            assert subs(result) == expected
        left = CouplingSeries("g", [param_phase_poly(rng, params) for _ in range(3)])
        right = CouplingSeries("g", [param_phase_poly(rng, params) for _ in range(3)])
        assert star_series(left, right).map_coeffs(subs) == star_series(
            left.map_coeffs(subs), right.map_coeffs(subs)
        )

    def test_parameter_operands_make_no_ring_arithmetic(self, monkeypatch):
        # the products of two all-ParamPoly operands are summed in integers,
        # one parameter monomial at a time
        rng = random.Random(5)
        params = ("a", "b")
        polys = []
        while len(polys) < 4:
            poly = param_phase_poly(rng, params)
            if poly.terms and all(isinstance(c, ParamPoly) for c in poly.terms.values()):
                polys.append(poly)
        a, b, c, d = polys
        series = CouplingSeries("g", [PhasePoly.one(), c, d])
        calls = []
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):

            def counted(self, other, _original=ParamPoly.__dict__[name]):
                calls.append(_original.__name__)
                return _original(self, other)

            monkeypatch.setattr(ParamPoly, name, counted)
        results = [star(a, b), star_commutator(a, b), star_series(series, series)]
        assert calls == []
        assert not star_commutator(a, b).is_zero and all(results)

    def test_other_rings_keep_their_coefficient_types(self):
        # only operands whose ParamPoly coefficients share one parameter
        # tuple are summed per monomial; elsewhere a key's coefficient type
        # shows which products reached it
        (pa,) = ParamPoly.generators("a")
        (pb,) = ParamPoly.generators("b")
        ax, bp = PhasePoly.monomial(pa, 1, 0, 0), PhasePoly.monomial(pb, 0, 1, 0)
        # a mixed operand: x alone gives Gaussian coefficients
        mixed = star(x + PhasePoly.monomial(pa, 0, 1, 0), p)
        assert mixed == x * p + ih + PhasePoly.monomial(pa, 0, 2, 0)
        assert type(mixed.terms[(1, 1, 0)]) is GaussianRational
        assert type(mixed.terms[(0, 0, 1)]) is GaussianRational
        assert type(mixed.terms[(0, 2, 0)]) is ParamPoly
        # a Gaussian pair beside a ParamPoly pair
        fused = star_difference(ax, x, p, p)
        assert type(fused.terms[(2, 0, 0)]) is ParamPoly
        assert type(fused.terms[(0, 2, 0)]) is GaussianRational
        assert fused.terms[(0, 2, 0)] == gr(-1)
        # different parameter tuples: apart their keys keep their own
        # tuples, and at one key they cannot be added
        apart = star_difference(ax, x, bp, p)
        assert apart.terms[(2, 0, 0)].params == ("a",)
        assert apart.terms[(0, 2, 0)].params == ("b",)
        with pytest.raises(ValueError, match="parameter lists differ"):
            star(ax, bp)
        # RatFunc2 coefficients stay RatFunc2
        q1, q2 = ParamPoly.generators(*RatFunc2.PARAMS)
        r = RatFunc2(q1, q2 + 2)
        out = star(PhasePoly.monomial(r, 1, 0, 0), p)
        assert set(out.terms) == {(1, 1, 0), (0, 0, 1)}
        assert all(type(c) is RatFunc2 for c in out.terms.values())
        assert out.terms[(0, 0, 1)] == r * I


class TestHermiticity:
    def test_examples(self):
        assert is_hermitian(p**2 + x**2)
        assert not is_hermitian(PhasePoly.monomial(I, 3, 0, 0))
        # symmetrized xp: px + i hbar / 2
        assert is_hermitian(x * p + PhasePoly.monomial(gr(0, Fraction(1, 2)), 0, 0, 1))


class TestSeriesStar:
    def test_lifted_canonical_pair(self):
        zero = PhasePoly.zero()
        gx = CouplingSeries("g", [zero, x, zero])
        gp = CouplingSeries("g", [zero, p, zero])
        assert star_series(gx, gp) == CouplingSeries("g", [zero, zero, x * p + ih])

    def test_one_is_identity(self):
        s = CouplingSeries("g", [PhasePoly.one(), x * p, p**2])
        assert star_series(CouplingSeries.one("g", 2), s) == s

    def test_first_order_inverse(self):
        a1 = x * p + x**2
        plus = CouplingSeries("g", [PhasePoly.one(), a1])
        minus = CouplingSeries("g", [PhasePoly.one(), -a1])
        assert star_series(plus, minus) == CouplingSeries.one("g", 1)


    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(
        st.integers(0, 2**32),
        st.integers(0, 4),
        st.integers(0, 4),
        st.sampled_from(RINGS),
    )
    def test_equals_sum_of_pairwise_stars(self, seed, order_a, order_b, ring):
        # zero coefficients, denominators that differ from one coefficient to
        # the next, ParamPoly coefficients, and both kinds in one polynomial
        rng = random.Random(seed)
        left = CouplingSeries("g", [ring_poly(rng, ring) for _ in range(order_a + 1)])
        right = CouplingSeries("g", [ring_poly(rng, ring) for _ in range(order_b + 1)])
        expected = [
            sum((star(left.coeffs[j], right.coeffs[n - j]) for j in range(n + 1)), PhasePoly.zero())
            for n in range(min(order_a, order_b) + 1)
        ]
        assert star_series(left, right) == CouplingSeries("g", expected)
        assert star_series_difference(left, right, right, left) == star_series(
            left, right
        ) - star_series(right, left)

    @pytest.mark.parametrize("coeff", [1, ParamPoly.generators("a")[0]])
    def test_couplings_must_match(self, coeff):
        s = CouplingSeries("g", [PhasePoly.one(), PhasePoly.const(coeff)])
        with pytest.raises(CouplingMismatch):
            star_series(s, CouplingSeries("h", [PhasePoly.one(), x]))


class TestFusedDifference:
    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @RING_CASES
    def test_equals_difference_of_two_stars(self, seed, ring):
        rng = random.Random(seed)
        a, b, c, d = (ring_poly(rng, ring) for _ in range(4))
        assert star_difference(a, b, c, d) == star(a, b) - star(c, d)
        assert star_difference(a, b, a, b).is_zero
        assert star_commutator(a, b) == star(a, b) - star(b, a)

    @pytest.mark.parametrize("ring", RINGS)
    def test_most_differences_are_nonzero(self, ring):
        # the property above is not carried by results that cancel to zero
        rng = random.Random(ring)
        results = []
        for _ in range(40):
            a, b, c, d = (ring_poly(rng, ring) for _ in range(4))
            fused, commutator = star_difference(a, b, c, d), star_commutator(a, b)
            assert fused == star(a, b) - star(c, d)
            assert commutator == star(a, b) - star(b, a)
            results += [fused, commutator]
        assert sum(not r.is_zero for r in results) > len(results) // 3

    def test_commutator_skips_only_commuting_pairs(self):
        # x^2 and p^2 do not commute, though each pair of x-only or p-only
        # terms does
        a = x**2 + gr(3) * x + p.scaled(gr(0, 2))
        b = p**2 + x * gr(5)
        assert star_commutator(a, b) == star(a, b) - star(b, a)
        assert star_commutator(x, p) == ih
        assert star_commutator(x**3, x).is_zero and star_commutator(PhasePoly.p(-2), p).is_zero


class TestStarLogExp:
    def test_log_of_one(self):
        assert star_log(CouplingSeries.one("g", 3)).is_zero

    def test_exp_of_zero(self):
        zero = CouplingSeries.constant("g", PhasePoly.zero(), 3)
        assert star_exp(zero) == CouplingSeries.one("g", 3)

    def test_exp_of_x_only(self):
        zero = PhasePoly.zero()
        s = CouplingSeries("g", [zero, x, zero])
        expected = CouplingSeries("g", [PhasePoly.one(), x, (x * x).scaled(Fraction(1, 2))])
        assert star_exp(s) == expected

    def test_round_trip_random(self):
        rng = random.Random(8)
        for _ in range(10):
            coeffs = [PhasePoly.one()] + [
                random_poly(rng, max_terms=2, max_x=2) for _ in range(4)
            ]
            s = CouplingSeries("g", coeffs)
            assert star_exp(star_log(s)) == s

    def test_third_order_log_formula(self):
        # log(1 + c a1 + c^2 a2 + c^3 a3) expanded through the star product
        rng = random.Random(9)
        half, third = Fraction(1, 2), Fraction(1, 3)
        for _ in range(5):
            a1, a2, a3 = (random_poly(rng, max_terms=2, max_x=2) for _ in range(3))
            s = CouplingSeries("c", [PhasePoly.one(), a1, a2, a3])
            log = star_log(s)
            assert log.coeffs[1] == a1
            assert log.coeffs[2] == a2 - star(a1, a1).scaled(half)
            expected3 = (
                a3
                + star(a1, star(a1, a1)).scaled(third)
                - (star(a1, a2) + star(a2, a1)).scaled(half)
            )
            assert log.coeffs[3] == expected3

    def test_constant_term_guards(self):
        with pytest.raises(BadConstantTerm):
            star_log(CouplingSeries("g", [x, x]))
        with pytest.raises(BadConstantTerm):
            star_exp(CouplingSeries.one("g", 1))


class TestExpQuadForm:
    def test_left_with_x_independent_operand(self):
        e = ExpQuadForm.pure_exponent(PhasePoly.monomial(-2, 0, 1, 0))
        out = star_poly_expquad(p**2, e, "left")
        assert out == ExpQuadForm(p**2, e.exponent)

    def test_left_pulls_down_exponent_derivative(self):
        (r,) = ParamPoly.generators("r")
        e = ExpQuadForm.pure_exponent(PhasePoly.monomial(r, 0, 2, 0))
        out = star_poly_expquad(x, e, "left")
        expected = x + PhasePoly.monomial(r, 0, 1, 1).scaled(2 * I)
        assert out.prefactor == expected

    def test_right_with_exponent_x_derivative(self):
        (t,) = ParamPoly.generators("t")
        e = ExpQuadForm.pure_exponent(PhasePoly.monomial(t, 2, 0, 0))
        out = star_poly_expquad(p, e, "right")
        expected = p + PhasePoly.monomial(t, 1, 0, 1).scaled(2 * I)
        assert out.prefactor == expected

    def test_right_rejects_laurent_p(self):
        e = ExpQuadForm.pure_exponent(PhasePoly.monomial(-2, 0, 1, 0))
        with pytest.raises(NonTerminating):
            star_poly_expquad(PhasePoly.p(-1), e, "right")

    def test_rejects_an_unknown_side(self):
        e = ExpQuadForm.pure_exponent(PhasePoly.monomial(-2, 0, 1, 0))
        with pytest.raises(ValueError, match="side"):
            star_poly_expquad(p, e, "both")

    def test_zero_exponent_matches_star(self):
        # with exponent 0, E is its prefactor P, so the one-sided sums must
        # give the two-sided star product; the two kernels share no code
        (r,) = ParamPoly.generators("r")
        zero = PhasePoly.zero()
        rng = random.Random(12)
        laurent = 0
        for _ in range(30):
            a = random_poly(rng, max_x=4)
            pre = random_poly(rng, p_span=3, h_span=2).map_coeffs(lambda c: r * c + c)
            laurent += any(k[1] < 0 for k in pre.terms)
            e = ExpQuadForm(pre, zero)
            assert star_poly_expquad(a, e, "left") == ExpQuadForm(star(a, pre), zero)
            b = a * p**2  # p powers >= 0, as the right side needs
            assert star_poly_expquad(b, e, "right") == ExpQuadForm(star(pre, b), zero)
        assert laurent

    def test_moyal_coefficients_follow_their_definition(self):
        # (i hbar)^k / k! d^k a / dv^k, by repeated derivatives
        rng = random.Random(13)
        for _ in range(20):
            a = random_poly(rng, max_x=4)
            for var, b in (("x", a), ("p", a * p**2)):
                d, expected = b, []
                while not d.is_zero:
                    k = len(expected)
                    expected.append(d * PhasePoly.hbar(k) * (I**k * Fraction(1, factorial(k))))
                    d = d.derivative(var)
                assert moyal_coefficients(b, var) == expected
        with pytest.raises(NonTerminating):
            moyal_coefficients(PhasePoly.p(-1), "p")

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @RING_CASES
    def test_difference_equals_the_two_sided_form(self, seed, ring):
        # L(E) for the operator L = A * . - . * D of `one_sided_slots`, its
        # two sides summed in one accumulation, against the two one-sided
        # products subtracted; D = dagger(A) is the metric residual's case
        rng = random.Random(seed)
        a, d = (ring_poly(rng, ring) * p**2 for _ in range(2))  # p powers >= 0
        exponent = PhasePoly(
            {(i, j, rng.randint(-1, 0)): random_gr(rng)
             for i in range(3) for j in range(3 - i) if rng.random() < 0.5}
        )
        e = ExpQuadForm(random_poly(rng, p_span=2, h_span=1), exponent)
        for right in (d, dagger(a)):
            left_side = star_poly_expquad(a, e, "left").prefactor
            right_side = star_poly_expquad(right, e, "right").prefactor
            expected = ExpQuadForm(left_side - right_side, exponent)
            assert PDEOperator(one_sided_slots(a, right)).apply(e) == expected

    def test_exponent_degree_guard(self):
        with pytest.raises(ValueError):
            ExpQuadForm.pure_exponent(PhasePoly.x(3))

    def test_json_round_trip(self):
        e = ExpQuadForm(p, PhasePoly.monomial(-2, 0, 1, 0))
        assert ExpQuadForm.from_json(e.to_json()) == e


def test_dagger_series_termwise():
    s = CouplingSeries("g", [PhasePoly.one(), PhasePoly.monomial(I, 3, 0, 0)])
    d = dagger_series(s)
    assert d.coeffs[1] == PhasePoly.monomial(-I, 3, 0, 0)
