import random
from fractions import Fraction

import pytest

from starmetric.phasepoly import CouplingMismatch, CouplingSeries, PhasePoly
from starmetric.scalars import GaussianRational, I, ParamPoly

from _helpers import random_poly

x = PhasePoly.x()
p = PhasePoly.p()
hbar = PhasePoly.hbar()


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


class TestPhasePoly:
    def test_mul_examples(self):
        assert x * p == PhasePoly({(1, 1, 0): 1})
        assert PhasePoly.monomial(1, 0, -1, 1) * PhasePoly.monomial(1, 0, 1, -1) == PhasePoly.one()
        one_plus_ix = PhasePoly.one() + PhasePoly.monomial(I, 1, 0, 0)
        one_minus_ix = PhasePoly.one() - PhasePoly.monomial(I, 1, 0, 0)
        assert one_plus_ix * one_minus_ix == PhasePoly.one() + x * x

    def test_derivative_examples(self):
        assert PhasePoly.p(-1).derivative("p") == PhasePoly.monomial(-1, 0, -2, 0)
        assert (x**3).derivative("x") == PhasePoly.monomial(3, 2, 0, 0)
        assert (p**2).derivative("x").is_zero

    def test_conjugate_examples(self):
        assert PhasePoly.monomial(I, 3, 0, 0).conjugate() == PhasePoly.monomial(-I, 3, 0, 0)
        real = p**2 + x**2
        assert real.conjugate() == real
        mixed = PhasePoly.monomial(gr(1, 1), 1, 1, 0)
        assert mixed.conjugate() == PhasePoly.monomial(gr(1, -1), 1, 1, 0)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            PhasePoly({(-1, 0, 0): 1})

    @pytest.mark.parametrize(
        "name, key",
        [("x", (3, 0, 0)), ("x", (0, 0, 0)), ("p", (0, 2, 0)), ("p", (0, -2, 0)),
         ("hbar", (0, 0, 1)), ("hbar", (0, 0, -3))],
    )
    def test_named_constructors_match_the_public_one(self, name, key):
        got = getattr(PhasePoly, name)(sum(key))
        assert got == PhasePoly({key: 1}) and got.terms == {key: gr(1)}

    def test_zero_and_one(self):
        assert PhasePoly.zero() == PhasePoly() and PhasePoly.zero().terms == {}
        assert PhasePoly.one() == PhasePoly.const(1) and PhasePoly.one().terms == {(0, 0, 0): gr(1)}

    @pytest.mark.parametrize("power", [2.0, "2"], ids=repr)
    def test_named_constructors_read_an_integral_power(self, power):
        assert PhasePoly.x(power) == x * x and PhasePoly.p(power) == p * p
        assert PhasePoly.hbar(power) == hbar * hbar

    @pytest.mark.parametrize(
        "name, power",
        [("x", -1), ("x", True), ("p", 1.5), ("p", False), ("hbar", "h"), ("hbar", True)],
    )
    def test_named_constructors_reject_a_bad_power(self, name, power):
        with pytest.raises(ValueError):
            getattr(PhasePoly, name)(power)

    def test_ring_axioms_random(self):
        rng = random.Random(3)
        for _ in range(40):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a

    def test_mixed_partials_commute(self):
        rng = random.Random(4)
        for _ in range(30):
            a = random_poly(rng)
            assert a.derivative("x").derivative("p") == a.derivative("p").derivative("x")

    def test_conjugate_is_involutive_homomorphism(self):
        rng = random.Random(6)
        for _ in range(30):
            a, b = random_poly(rng), random_poly(rng)
            assert a.conjugate().conjugate() == a
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()

    def test_canonical_order_is_lex(self):
        poly = x * p + hbar + x**2
        keys = [key for key, _ in poly.canonical_terms()]
        assert keys == sorted(keys)

    def test_subs_hbar(self):
        poly = PhasePoly.monomial(2, 1, 0, 2) + PhasePoly.monomial(3, 1, 0, -1)
        assert poly.subs_hbar(1) == PhasePoly.monomial(5, 1, 0, 0)
        assert poly.subs_hbar(Fraction(1, 2)) == PhasePoly.monomial(Fraction(13, 2), 1, 0, 0)

    def test_json_round_trip(self):
        rng = random.Random(7)
        for _ in range(10):
            a = random_poly(rng)
            assert PhasePoly.from_json(a.to_json()) == a

    def test_json_round_trip_param_coeffs(self):
        (g,) = ParamPoly.generators("g")
        poly = PhasePoly({(3, 0, 0): g * I, (0, 2, 0): ParamPoly.constant(("g",), 1)})
        assert PhasePoly.from_json(poly.to_json()) == poly

    def test_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            PhasePoly.from_json([{"x": 1, "p": 0, "hbar": 0, "coeff": {"re": "1", "im": "0"}, "momentum": 2}])


class TestCouplingSeries:
    def test_truncation_to_min_order(self):
        one = CouplingSeries.one("g", 1)
        long = CouplingSeries("g", [PhasePoly.one()] * 4)
        assert one + long == CouplingSeries("g", [PhasePoly.const(2), PhasePoly.one()])

    def test_coupling_mismatch(self):
        with pytest.raises(CouplingMismatch):
            CouplingSeries.one("g", 1) + CouplingSeries.one("c", 1)

    def test_json_round_trip(self):
        s = CouplingSeries("c", [PhasePoly.one(), x * p])
        assert CouplingSeries.from_json(s.to_json()) == s
        with pytest.raises(ValueError):
            CouplingSeries.from_json({"coupling": "c", "order": 5, "coeffs": [[]]})

