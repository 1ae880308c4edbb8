import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from starmetric.scalars import (
    GaussianRational,
    MAX_DECIMAL_EXPONENT,
    ONE,
    ParamPoly,
    PoleAtPoint,
    RatFunc2,
    ZeroDenominator,
    as_fraction,
    fraction_str,
    int_str,
    primitive_real_poly,
    ratio_str,
)

from starmetric.latexout import gr_latex, param_poly_latex, poly_latex
from starmetric.phasepoly import PhasePoly

from _helpers import random_ratfunc, ratfunc_generators

SRC = Path(__file__).resolve().parents[1] / "src"


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


small_fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


class TestGaussianRational:
    def test_conj_examples(self):
        assert gr(Fraction(3, 2), Fraction(1, 4)).conjugate() == gr(Fraction(3, 2), Fraction(-1, 4))
        assert gr(0).conjugate() == gr(0)
        assert gr(0, 1).conjugate() == gr(0, -1)

    @given(gaussians, gaussians, gaussians)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if not a.is_zero:
            assert a * a.inverse() == ONE

    @given(gaussians, gaussians)
    def test_conj_homomorphism(self, a, b):
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    def test_division_and_pow(self):
        z = gr(1, 2)
        assert z / z == ONE
        assert z**3 == z * z * z
        assert z**-2 == ONE / (z * z)
        with pytest.raises(ZeroDivisionError):
            gr(0).inverse()

    def test_int_fraction_coercion(self):
        assert gr(3) == 3
        assert gr(Fraction(1, 2)) + Fraction(1, 2) == 1
        assert 2 * gr(0, 1) == gr(0, 2)

    def test_serialization(self):
        z = gr(Fraction(-3, 7), Fraction(2))
        assert z.to_json() == {"re": "-3/7", "im": "2"}
        assert GaussianRational.from_json(z.to_json()) == z
        assert fraction_str(Fraction(5)) == "5"
        with pytest.raises(ValueError):
            GaussianRational.from_json({"re": "1", "imag": "2"})

    @given(st.integers(-10**30, 10**30), st.one_of(st.just(1), st.integers(1, 10**30)))
    def test_ratio_str_matches_fraction_str(self, num, den):
        assert ratio_str(num, den) == fraction_str(Fraction(num, den))
        assert ratio_str(0, den) == "0"

    @given(st.integers(-10**20, 10**20), st.integers(-10**20, 10**20), st.integers(1, 10**20))
    def test_to_json_matches_fraction_parts(self, a, b, d):
        z = GaussianRational(Fraction(a, d), Fraction(b, d))
        assert z.to_json() == {"re": fraction_str(Fraction(a, d)), "im": fraction_str(Fraction(b, d))}


def _with_ref(drawn):
    """An operand drawn as a pair (re, im) of Fractions, an int or a Fraction,
    and its reference pair."""
    if isinstance(drawn, tuple):
        return GaussianRational(*drawn), drawn
    return drawn, (Fraction(drawn), Fraction(0))


def _ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_inverse(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return x[0] / norm, -x[1] / norm


def _ref_pow(x, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = _ref_mul(out, x)
    return _ref_inverse(out) if n < 0 else out


def assert_matches(z, ref):
    """z is the canonical triple of the value ``ref`` = (re, im)."""
    assert type(z) is GaussianRational
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1
    for part, want in ((z.re, ref[0]), (z.im, ref[1])):
        assert type(part) is Fraction and part == want
        assert part.denominator > 0 and gcd(part.numerator, part.denominator) == 1
    re, im = ref
    if im:
        assert z != re and re != z
    else:
        assert z == re and re == z
        if re.denominator == 1:
            assert z == int(re) and int(re) == z


wide_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
wide_pairs = st.tuples(wide_fractions, wide_fractions)
operands = st.one_of(wide_pairs, st.integers(-30, 30), wide_fractions)


class TestGaussianRationalAgainstFractionPairs:
    @given(wide_pairs, operands)
    def test_ring_operations(self, x, w):
        (z, x), (w, y) = _with_ref(x), _with_ref(w)
        assert_matches(z, x)
        assert_matches(z + w, (x[0] + y[0], x[1] + y[1]))
        assert_matches(w + z, (x[0] + y[0], x[1] + y[1]))
        assert_matches(z - w, (x[0] - y[0], x[1] - y[1]))
        assert_matches(w - z, (y[0] - x[0], y[1] - x[1]))
        assert_matches(-z, (-x[0], -x[1]))
        assert_matches(z * w, _ref_mul(x, y))
        assert_matches(w * z, _ref_mul(x, y))
        assert_matches(z.conjugate(), (x[0], -x[1]))

    @given(wide_pairs, operands)
    def test_division_and_inverse(self, x, w):
        (z, x), (w, y) = _with_ref(x), _with_ref(w)
        if any(y):
            assert_matches(z / w, _ref_mul(x, _ref_inverse(y)))
        if any(x):
            assert_matches(z.inverse(), _ref_inverse(x))
            assert_matches(w / z, _ref_mul(y, _ref_inverse(x)))
        else:
            with pytest.raises(ZeroDivisionError):
                z.inverse()

    @given(wide_pairs, st.integers(-5, 6))
    def test_power(self, x, n):
        z, x = _with_ref(x)
        if n < 0 and not any(x):
            with pytest.raises(ZeroDivisionError):
                z**n
        else:
            assert_matches(z**n, _ref_pow(x, n))

    def test_constructor_reduces(self):
        z = GaussianRational(Fraction(2, 6), Fraction(-4, 6))
        assert (z.a, z.b, z.d) == (1, -2, 3)
        zero = GaussianRational()
        assert (zero.a, zero.b, zero.d) == (0, 0, 1)
        assert_matches(GaussianRational("3/4", "-5/6"), (Fraction(3, 4), Fraction(-5, 6)))


class TestRatFunc2:
    def setup_method(self):
        self.q1, self.q2 = ratfunc_generators()
        self.delta = self.q1 * 4 + self.q2 * self.q2

    def test_eval_examples(self):
        f = RatFunc2(1) / self.delta
        assert f.eval(1, 1) == gr(Fraction(1, 5))
        with pytest.raises(PoleAtPoint):
            f.eval(Fraction(-1, 4), 1)
        g = self.q2 / self.delta
        assert g.eval(0, 2) == gr(Fraction(1, 2))

    def test_partial_examples(self):
        assert (self.q1 * self.q1).partial(1) == self.q1 * 2
        f = RatFunc2(1) / self.delta
        assert f.partial(2) == -(self.q2 * 2) / (self.delta * self.delta)
        assert RatFunc2(7).partial(1).is_zero

    def test_partials_commute(self):
        rng = random.Random(11)
        for _ in range(25):
            f = random_ratfunc(rng)
            assert f.partial(1).partial(2) == f.partial(2).partial(1)

    def test_zero_denominator_is_construction_error(self):
        with pytest.raises(ZeroDenominator):
            RatFunc2(1, ParamPoly(("q1", "q2"), {}))

    def test_cross_multiplied_equality(self):
        lhs = self.q1 / self.q2
        rhs = (self.q1 * self.q1) / (self.q1 * self.q2)
        assert lhs == rhs

    def test_denominator_normalization(self):
        f = RatFunc2(ParamPoly.constant(("q1", "q2"), 1), (self.delta * -3).num)
        lead = f.den.terms[max(f.den.terms)]
        assert not lead.sign_is_negative()

    def test_field_ops(self):
        rng = random.Random(5)
        for _ in range(15):
            a, b = random_ratfunc(rng), random_ratfunc(rng)
            assert a + b - b == a
            if not b.is_zero:
                assert (a / b) * b == a
            assert a.conjugate().conjugate() == a

    def test_json_round_trip(self):
        f = (self.q2 + 3) / self.delta
        assert RatFunc2.from_json(f.to_json()) == f

    def test_equal_denominators_that_cancel_a_monomial_reduce(self):
        f = (self.q1 + 1) / self.q1 + RatFunc2(-1) / self.q1
        assert f.num == ParamPoly.constant(Q_PARAMS, 1) and f.den == f.num


Q_PARAMS = ("q1", "q2")
q_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), gaussians, max_size=3
).map(lambda terms: ParamPoly(Q_PARAMS, terms))
q_scalars = st.one_of(st.just(0), st.integers(-6, 6), small_fractions, gaussians)


def assert_canonical(f):
    """A monic denominator, no shared monomial content, and 1 under zero."""
    if f.is_zero:
        assert f.den == ParamPoly.constant(Q_PARAMS, 1)
        return
    assert f.den.terms[max(f.den.terms)] == ONE
    keys = list(f.num.terms) + list(f.den.terms)
    assert all(min(key[i] for key in keys) == 0 for i in range(2))


def assert_same_function(f, num, den):
    """f == num/den, decided by cross multiplication of the ParamPolys."""
    assert f.num * den == num * f.den


class TestRatFunc2AgainstCrossMultiplication:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(q_polys, q_polys, q_polys, q_polys, st.booleans())
    def test_add_and_equality(self, n1, d1, n2, d2, shared):
        d1 = d1 if not d1.is_zero else ParamPoly.constant(Q_PARAMS, 1)
        f = RatFunc2(n1, d1)
        g = RatFunc2(n2, f.den if shared or d2.is_zero else d2)
        for total in (f + g, g + f):
            assert_same_function(total, f.num * g.den + g.num * f.den, f.den * g.den)
            assert_canonical(total)
        difference = f - g
        assert_same_function(difference, f.num * g.den - g.num * f.den, f.den * g.den)
        assert_canonical(difference)
        assert (f == g) is (f.num * g.den == g.num * f.den)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(q_polys, q_polys, q_scalars)
    def test_scalar_product_and_conjugate(self, num, den, c):
        f = RatFunc2(num, den if not den.is_zero else ParamPoly.constant(Q_PARAMS, 1))
        for product in (f * c, c * f):
            assert isinstance(product, RatFunc2)
            assert_same_function(product, f.num * c, f.den)
            assert_canonical(product)
        assert_same_function(f.conjugate(), f.num.conjugate(), f.den.conjugate())
        assert_canonical(f.conjugate())


class TestParamPoly:
    def test_generators_and_laurent(self):
        a, b, c = ParamPoly.generators("a", "b", "c")
        expr = c / (b * 2)
        assert expr * b * 2 == c
        assert (b**-2) * b**2 == 1

    def test_monomial_inverse_rejects_sums(self):
        a, b, _ = ParamPoly.generators("a", "b", "c")
        with pytest.raises(ValueError):
            (a + b).monomial_inverse()

    def test_eval_and_derivative(self):
        a, b, c = ParamPoly.generators("a", "b", "c")
        expr = a * b * 2 + c**2
        vals = {"a": gr(2), "b": gr(3), "c": gr(1)}
        assert expr.eval(vals) == gr(13)
        assert expr.derivative("a") == b * 2
        assert expr.derivative("c") == c * 2

    def test_mismatched_params_rejected(self):
        (a,) = ParamPoly.generators("a")
        (q,) = ParamPoly.generators("q")
        with pytest.raises(ValueError):
            a + q

    def test_primitive_normalization(self):
        q1, q2 = ParamPoly.generators("q1", "q2")
        poly = (q1 + q2 * q2 * Fraction(1, 4)) * Fraction(-2, 3)
        norm = primitive_real_poly(poly)
        assert norm == q1 * 4 + q2 * q2


class TestFromJson:
    def test_parampoly_sums_entries_with_equal_powers(self):
        obj = {
            "params": ["a"],
            "terms": [
                {"powers": {"a": 1}, "coeff": {"re": "1", "im": "0"}},
                {"powers": {"a": 1}, "coeff": {"re": "2", "im": "0"}},
            ],
        }
        (a,) = ParamPoly.generators("a")
        assert ParamPoly.from_json(obj) == a * 3

    @pytest.mark.parametrize(
        "obj",
        [
            {"params": ["a"], "terms": [], "bogus": 1},
            {"params": ["a"], "terms": [{"powers": {"a": 1}, "coeff": {"re": "1"}, "bogus": 1}]},
        ],
    )
    def test_parampoly_rejects_unknown_keys(self, obj):
        with pytest.raises(ValueError, match="bogus"):
            ParamPoly.from_json(obj)

    def test_ratfunc2_rejects_unknown_keys(self):
        q1, _ = ratfunc_generators()
        obj = dict(q1.to_json(), bogus=1)
        with pytest.raises(ValueError, match="bogus"):
            RatFunc2.from_json(obj)


class TestAsFractionExponent:
    """A decimal exponent past the int -> str digit limit is rejected before
    Fraction builds its power of ten, in every form Fraction accepts."""

    @pytest.mark.parametrize(
        "text",
        ["1e4301", "1E4301", "1e+4301", "1e-4301", "-1.5e4301", "1e4_301", " 1e4301\n", "1e100000"],
    )
    def test_exponent_past_the_limit_is_rejected(self, text):
        with pytest.raises(ValueError, match="exponent"):
            as_fraction(text)

    @pytest.mark.parametrize("text", ["1e4300", "1E-4300", "+1e4_300", " 1e0004300 ", "0.5e4300"])
    def test_exponent_at_the_limit_is_exact(self, text):
        assert as_fraction(text) == Fraction(text)

    def test_limit_is_the_int_to_str_digit_limit(self):
        assert MAX_DECIMAL_EXPONENT == sys.int_info.default_max_str_digits == 4300

    def test_huge_exponent_fails_fast(self):
        # Fraction("1e100000000") alone would build 10^(10^8) for minutes
        code = (
            "from starmetric.scalars import as_fraction\n"
            "try:\n    as_fraction('1e100000000')\n"
            "except ValueError as exc:\n    print(exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=10,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 0, proc.stderr
        assert "exponent" in proc.stdout


class TestAsFractionDigits:
    """A run of more digits than int reads (4300 by default) is rejected
    before Fraction parses it, with an error naming the input limit."""

    @pytest.mark.parametrize(
        "text",
        [
            "1" * 4301,
            "-" + "0" * 4301,
            "1_" * 4300 + "1",
            "1." + "1" * 4301,
            "1/" + "1" * 4301,
            " " + "9" * 4400 + "e-3 ",
        ],
        ids=["integer", "zeros", "separated", "decimals", "denominator", "exponent-form"],
    )
    def test_past_the_limit_names_it(self, text):
        with pytest.raises(ValueError, match="input limit of 4300 digits") as info:
            as_fraction(text)
        assert "set_int_max_str_digits" not in str(info.value)

    @pytest.mark.parametrize(
        "text",
        ["1" * 4300, "1" * 4300 + "/" + "7" * 4300, "1_" * 2200 + "1", "0." + "5" * 4300],
        ids=["integer", "fraction", "separated", "decimals"],
    )
    def test_at_the_limit_is_exact(self, text):
        assert as_fraction(text) == Fraction(text)


class TestShortCoefficientStrings:
    """GaussianRational reads a short ASCII "n" or "n/d" straight into
    integers; every string must still give as_fraction's value, or its
    error with the same message."""

    @pytest.mark.parametrize(
        "text",
        [
            "0", "7", "-7", "007", "-0", "12/18", "-3/4", "0/5", "1" * 17 + "/3",
            "1" * 19 + "/3", "3/0", "3/00", "-3/0", "+1", " 1", "1 ", "1_0", "1e3", "1.5", "-", "", "/2", "3/",
            "1/-2", "--1", "3/4/5", "\u0661\u0662", "\u00b2", "1" * 25, "9" * 4301,
            "1/" + "1" * 4301,
        ],
    )
    def test_same_value_or_error_as_as_fraction(self, text):
        try:
            value = as_fraction(text)
        except ValueError as exc:
            for args in ((text,), (0, text)):
                with pytest.raises(ValueError) as info:
                    GaussianRational(*args)
                assert str(info.value) == str(exc)
        else:
            z, want = GaussianRational(text, text), GaussianRational(value, value)
            assert (z.a, z.b, z.d) == (want.a, want.b, want.d)


class TestOutputDigitLimit:
    """An exact integer longer than the int -> str digit limit cannot be
    printed: every conversion to text raises a ValueError naming the limit."""

    HUGE = 10**4300  # 4301 digits

    def test_at_the_limit_prints(self):
        assert int_str(10**4299 - 1) == "9" * 4299
        assert len(int_str(-(10**4299))) == 4301

    @pytest.mark.parametrize(
        "convert",
        [
            int_str,
            lambda n: fraction_str(Fraction(n)),
            lambda n: fraction_str(Fraction(1, n)),
            lambda n: ratio_str(n, 3),
            lambda n: ratio_str(1, n),
            lambda n: repr(GaussianRational(0, Fraction(1, n))),
            lambda n: GaussianRational(Fraction(n, 7)).to_json(),
            lambda n: gr_latex(GaussianRational(Fraction(n, 7))),
            lambda n: gr_latex(GaussianRational(Fraction(7, n))),
            lambda n: poly_latex(PhasePoly.const(Fraction(n, 7))),
            lambda n: poly_latex(PhasePoly.const(Fraction(7, n))),
            lambda n: param_poly_latex(ParamPoly.generators("a")[0] * Fraction(1, n)),
        ],
    )
    def test_past_the_limit_names_it(self, convert):
        with pytest.raises(ValueError, match="output limit of 4300 digits"):
            convert(self.HUGE)
