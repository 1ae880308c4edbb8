"""Exact scalar arithmetic: Gaussian rationals, Laurent polynomials in named
real parameters, and rational functions of two real parameters.

Everything in this module is immutable and exact; no floating point enters
at this layer.  A `GaussianRational` is three integers (a, b, d) meaning
(a + b i)/d, kept canonical (d > 0, gcd(a, b, d) == 1): each ring operation
is integer arithmetic plus one gcd, and no `Fraction` is built on the way.

Every sparse container of the package (`ParamPoly` here, `PhasePoly` and
`PDEOperator` above) has one normal form, built by `accumulate`: a dict from
key to nonzero coefficient, with the coefficients of equal keys summed.
Inputs are checked once, by the public constructors (key shape and
coefficient type); results of arithmetic on valid terms go straight to
`accumulate`.  `power` is the one repeated-squaring loop behind every
``__pow__`` and the `--theta` parser's budgeted powers.

`Frozen` is the one immutability policy of the package: every value class
derives from it, and only its constructors set slots, past its
`__setattr__`.  Plain records are `NamedTuple`s.
"""

from __future__ import annotations

import operator
import re
import sys
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Tuple, Union

RatLike = Union[int, Fraction, str]


class PoleAtPoint(ArithmeticError):
    """An evaluation point lies on the zero set of a denominator."""


class ZeroDenominator(ValueError):
    """A rational function was built with an identically zero denominator."""


# the largest decimal exponent of a numeric string: past it Fraction would
# build a power of ten with more digits than int -> str may print, and each
# further exponent digit costs about 20 times the time
MAX_DECIMAL_EXPONENT = sys.int_info.default_max_str_digits
# the exponent of Fraction's decimal form, with its sign and _ separators
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def as_fraction(value: RatLike) -> Fraction:
    """An exact rational: a Fraction, an int or a numeric string.  A float, a
    bool, a zero denominator, a decimal exponent past MAX_DECIMAL_EXPONENT
    in magnitude or a run of more digits than int reads (Python's int <- str
    digit limit, 4300 by default) is a ValueError, so no JSON number but an
    integer reaches the exact layer, no string makes Fraction build a huge
    power of ten, and the digit limit is named as ours."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        if isinstance(value, str):
            _check_size(value)
        try:
            return Fraction(value)
        except ZeroDivisionError:
            msg = f"cannot interpret {value!r} as an exact rational: zero denominator"
            raise ValueError(msg) from None
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


def _ratio(value: RatLike) -> tuple:
    """(n, d), d > 0, with n/d the value of `as_fraction`; a short ASCII "n"
    or "n/d" string, n with an optional "-", is read straight into ints."""
    if type(value) is str and len(value) < 20 and value.isascii():
        num, slash, den = value.partition("/")
        d = int(den) if den.isdigit() else 0 if slash else 1
        if d and num.removeprefix("-").isdigit():
            return int(num), d
    f = as_fraction(value)
    return f.numerator, f.denominator


def _check_size(text: str):
    """Raise as_fraction's ValueError for a numeric string too large to
    read: a decimal exponent past MAX_DECIMAL_EXPONENT or a run of more
    digits than int reads."""
    exponent = _EXPONENT.search(text)
    if exponent and _past_limit(exponent[1]):
        msg = f"decimal exponent past the limit of {MAX_DECIMAL_EXPONENT}"
        raise ValueError(f"cannot interpret {text!r} as an exact rational: {msg}")
    limit = sys.get_int_max_str_digits()
    if not limit or len(text) <= limit:  # no run of digits can be past the limit
        return
    # each run of digits, with its _ separators, is one int to Fraction; the
    # pattern is compiled here, on the rare long string, and not at import
    runs = re.findall(r"\d+(?:_\d+)*", text)
    longest = max((len(run) - run.count("_") for run in runs), default=0)
    if longest > limit:
        raise ValueError(
            f"cannot interpret a number of {longest} digits as an exact rational:"
            f" past the input limit of {limit} digits"
        )


def _past_limit(exponent: str) -> bool:
    """Whether a decimal exponent is past MAX_DECIMAL_EXPONENT in magnitude;
    one with more digits than int reads is."""
    try:
        return abs(int(exponent)) > MAX_DECIMAL_EXPONENT
    except ValueError:
        return True


def as_exponent(value) -> int:
    """An exponent read from input: an int, or a number or numeric string
    with an integral value; anything else, a bool included, is a ValueError."""
    if isinstance(value, bool):
        raise ValueError(f"exponent must be an integer: {value!r}")
    try:
        e = int(value)
        integral = isinstance(value, str) or e == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"exponent must be an integer: {value!r}")
    return e


def check_keys(obj, allowed, what: str, required=()):
    """Reject JSON input that is not an object, has keys outside ``allowed``
    (None allows any key) or lacks one of the ``required`` keys."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{what} must be an object: {obj!r}")
    extra = () if allowed is None else obj.keys() - allowed
    if extra:
        raise ValueError(f"unknown keys in {what}: {sorted(extra)}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{what} needs the key {key!r}")


def check_list(obj, what: str) -> list:
    """Reject JSON input that is not an array; a string is not one."""
    if not isinstance(obj, list):
        raise ValueError(f"{what} must be a list: {obj!r}")
    return obj


def check_name(obj, what: str) -> str:
    """Reject JSON input that is not a string."""
    if not isinstance(obj, str):
        raise ValueError(f"{what} must be a string: {obj!r}")
    return obj


def check_names(obj, what: str) -> Tuple[str, ...]:
    """A JSON array of distinct strings, as a tuple."""
    names = tuple(check_list(obj, what))
    if not all(isinstance(name, str) for name in names) or len(set(names)) < len(names):
        raise ValueError(f"{what} must be distinct strings: {obj!r}")
    return names


def read_powers(powers, params: Tuple[str, ...], what: str) -> Tuple[int, ...]:
    """The exponent tuple over ``params`` of a ``{name: power}`` JSON map."""
    check_keys(powers, set(params), what)
    return tuple(as_exponent(powers.get(name, 0)) for name in params)


def accumulate(pairs) -> dict:
    """Sum the coefficients of equal keys in ``(key, coefficient)`` pairs and
    drop the keys whose sum is zero: the one normal form of sparse terms."""
    out: dict = {}
    for key, coeff in pairs:
        prev = out.get(key)
        out[key] = coeff if prev is None else prev + coeff
    return {key: coeff for key, coeff in out.items() if not coeff.is_zero}


def power(base, n: int, one, times=operator.mul):
    """base**n for an integer n >= 0 by repeated squaring; ``one`` is base**0
    and ``times(a, b)`` is a * b, through which every product is taken."""
    if not isinstance(n, int):
        raise TypeError("exponent must be an integer")
    if n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    out = one
    while n:
        if n & 1:
            out = times(out, base)
        n >>= 1
        if n:
            base = times(base, base)
    return out


def int_str(n: int) -> str:
    """str(n), the one conversion of an exact integer to text.  An integer
    longer than Python's int -> str digit limit (4300 digits by default) is a
    ValueError naming that output limit.  The limit is not lifted: exact
    outputs grow with the series order."""
    try:
        return str(n)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(
            f"an exact result has an integer past the output limit of {limit} digits"
        ) from None


def fraction_str(value: Fraction) -> str:
    """Serialize a rational as ``"num/den"``, omitting ``/den`` when den == 1."""
    if value.denominator == 1:
        return int_str(value.numerator)
    return f"{int_str(value.numerator)}/{int_str(value.denominator)}"


def ratio_str(num: int, den: int) -> str:
    """``fraction_str(Fraction(num, den))`` for den > 0, reduced with one gcd."""
    if not num:
        return "0"
    g = gcd(num, den)
    num, den = num // g, den // g
    return int_str(num) if den == 1 else f"{int_str(num)}/{int_str(den)}"


class Frozen:
    """Base of the immutable value types: attribute assignment raises.
    Constructors set their slots with ``object.__setattr__`` or a slot
    descriptor's ``__set__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class GaussianRational(Frozen):
    """Exact complex number (a + b i)/d stored as three integers.

    The triple is canonical: d > 0 and gcd(a, b, d) == 1, so equality is
    structural.  Ring operations work on integers only and reduce their
    result with one gcd; `re` and `im` give the parts as reduced `Fraction`s.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re: RatLike = 0, im: RatLike = 0):
        (n, d), (m, e) = _ratio(re), _ratio(im)
        return _reduced(n * e, m * d, d * e)

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        z = _operand(value)
        if z is None:
            raise TypeError(f"cannot coerce {value!r} to GaussianRational")
        return z

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    @property
    def is_real(self) -> bool:
        return not self.b

    def sign_is_negative(self) -> bool:
        """Canonical sign: negative when re < 0, or re == 0 and im < 0."""
        if self.a:
            return self.a < 0
        return self.b < 0

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        d, f = self.d, other.d
        if d == f:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * f + other.a * d, self.b * f + other.b * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        d, f = self.d, other.d
        if d == f:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * f - other.a * d, self.b * f - other.b * d, d * f)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "GaussianRational":
        # d/(a + b i) = d (a - b i)/(a^2 + b^2)
        a, b, d = self.a, self.b, self.d
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("inverse of zero GaussianRational")
        return _reduced(a * d, -b * d, norm)

    def __pow__(self, n: int):
        return power(self.inverse(), -n, ONE) if n < 0 else power(self, n, ONE)

    def conjugate(self) -> "GaussianRational":
        return _new(self.a, -self.b, self.d)

    # -- equality / hashing ---------------------------------------------

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals
        return hash((self.re, self.im)) if self.b else hash(self.re)

    def __bool__(self):
        return not self.is_zero

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"re": ratio_str(self.a, self.d), "im": ratio_str(self.b, self.d)}

    @classmethod
    def from_json(cls, obj) -> "GaussianRational":
        check_keys(obj, {"re", "im"}, "GaussianRational JSON")
        return cls(obj.get("re", "0"), obj.get("im", "0"))

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return fraction_str(re)
        if not re:
            return f"{fraction_str(im)}*i"
        return f"({fraction_str(re)}{'+' if im > 0 else '-'}{fraction_str(abs(im))}*i)"


_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__


def _new(a: int, b: int, d: int) -> GaussianRational:
    """The GaussianRational of a triple that is already canonical."""
    z = object.__new__(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The GaussianRational (a + b i)/d for integers a, b and d > 0."""
    g = gcd(a, b, d)
    if g == 1:
        return _new(a, b, d)
    return _new(a // g, b // g, d // g)


def _operand(value):
    """``value`` as a GaussianRational, or None for a type other than
    GaussianRational, int and Fraction."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        return _new(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _new(value.numerator, 0, value.denominator)
    return None


ONE = GaussianRational(1)
ZERO = GaussianRational(0)
I = GaussianRational(0, 1)


class ParamPoly(Frozen):
    """Sparse Laurent polynomial in named real parameters over GaussianRational.

    Used to keep model coefficients (a, b, c, a coupling, ...) symbolic while
    remaining in exact rational arithmetic.  Exponents may be negative; the
    parameters are treated as real under conjugation.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: Iterable[str], terms):
        """``terms`` maps exponent tuples to coefficients, or lists such pairs."""
        params = tuple(params)

        def checked(key, coeff):
            key = tuple(key)
            if len(key) != len(params):
                raise ValueError("exponent tuple does not match parameter list")
            return key, GaussianRational.coerce(coeff)

        pairs = terms.items() if isinstance(terms, Mapping) else terms
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "terms", accumulate(checked(*pair) for pair in pairs))

    @classmethod
    def _of(cls, params: Tuple[str, ...], pairs) -> "ParamPoly":
        """The ParamPoly of pairs that are already valid terms."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "params", params)
        object.__setattr__(poly, "terms", accumulate(pairs))
        return poly

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, params: Iterable[str], value) -> "ParamPoly":
        params = tuple(params)
        return cls(params, {(0,) * len(params): GaussianRational.coerce(value)})

    @classmethod
    def generators(cls, *names: str) -> Tuple["ParamPoly", ...]:
        gens = []
        for k in range(len(names)):
            key = tuple(1 if j == k else 0 for j in range(len(names)))
            gens.append(cls(names, {key: ONE}))
        return tuple(gens)

    def const_like(self, value) -> "ParamPoly":
        return ParamPoly.constant(self.params, value)

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * len(self.params)}

    def constant_value(self) -> GaussianRational:
        if not self.is_constant:
            raise ValueError("not a constant ParamPoly")
        return self.terms.get((0,) * len(self.params), ZERO)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def sign_is_negative(self) -> bool:
        if self.is_zero:
            return False
        lead = self.terms[min(self.terms)]
        return lead.sign_is_negative()

    # -- coercion helper --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            if other.params != self.params:
                raise ValueError("parameter lists differ")
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.const_like(other)
        return None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ParamPoly._of(self.params, chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._of(self.params, ((k, -c) for k, c in self.terms.items()))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            # a scalar scales each coefficient; no constant ParamPoly is built
            return ParamPoly._of(self.params, ((k, c * other) for k, c in self.terms.items()))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ParamPoly._of(
            self.params,
            (
                (tuple(a + b for a, b in zip(k1, k2)), c1 * c2)
                for k1, c1 in self.terms.items()
                for k2, c2 in other.terms.items()
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * GaussianRational.coerce(other).inverse()
        if isinstance(other, ParamPoly):
            return self * other.monomial_inverse()
        return NotImplemented

    def monomial_inverse(self) -> "ParamPoly":
        if len(self.terms) != 1:
            raise ValueError("only monomial ParamPoly values are invertible")
        ((key, coeff),) = self.terms.items()
        return ParamPoly(self.params, {tuple(-e for e in key): coeff.inverse()})

    def __pow__(self, n: int):
        one = self.const_like(1)
        return power(self.monomial_inverse(), -n, one) if n < 0 else power(self, n, one)

    def conjugate(self) -> "ParamPoly":
        return ParamPoly._of(self.params, ((k, c.conjugate()) for k, c in self.terms.items()))

    def derivative(self, name: str) -> "ParamPoly":
        i = self.params.index(name)
        return ParamPoly._of(
            self.params,
            (
                (key[:i] + (key[i] - 1,) + key[i + 1 :], coeff * key[i])
                for key, coeff in self.terms.items()
                if key[i]
            ),
        )

    def eval(self, values: Mapping[str, GaussianRational]) -> GaussianRational:
        missing = set(self.params) - set(values)
        if missing:
            raise ValueError(f"missing parameter values: {sorted(missing)}")
        total = ZERO
        for key, coeff in self.terms.items():
            val = coeff
            for name, e in zip(self.params, key):
                if e:
                    val = val * GaussianRational.coerce(values[name]) ** e
            total = total + val
        return total

    # -- equality ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = self.const_like(other)
        if isinstance(other, ParamPoly):
            return self.params == other.params and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        # a constant hashes as the scalar it equals
        if self.is_constant:
            return hash(self.constant_value())
        return hash((self.params, frozenset(self.terms.items())))

    def canonical_terms(self):
        return sorted(self.terms.items())

    def to_json(self) -> dict:
        return {
            "params": list(self.params),
            "terms": [
                {"powers": {n: e for n, e in zip(self.params, key) if e}, "coeff": c.to_json()}
                for key, c in self.canonical_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "ParamPoly":
        check_keys(obj, {"params", "terms"}, "ParamPoly JSON", required=("params", "terms"))
        params = check_names(obj["params"], "ParamPoly params")

        def term(entry):
            check_keys(entry, {"powers", "coeff"}, "ParamPoly term", required=("coeff",))
            key = read_powers(entry.get("powers", {}), params, "ParamPoly powers")
            return key, GaussianRational.from_json(entry["coeff"])

        return cls(params, map(term, check_list(obj["terms"], "ParamPoly terms")))

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for key, coeff in self.canonical_terms():
            mono = "*".join(
                f"{n}^{e}" if e != 1 else n for n, e in zip(self.params, key) if e
            )
            bits.append(f"{coeff!r}*{mono}" if mono else repr(coeff))
        return " + ".join(bits)


class RatFunc2(Frozen):
    """Rational function in the two real parameters (q1, q2).

    The denominator is normalized to be monic in the lexicographically
    leading monomial (so its leading coefficient has positive real part).
    Numerator and denominator are reduced only by monomial/numeric content,
    never by a polynomial gcd, so equality is decided by cross multiplication.
    Two functions over the same denominator add and compare over it, so sums
    of terms that share a denominator keep it instead of squaring it.  A
    product with an int, Fraction or GaussianRational scales the numerator
    and keeps the denominator; a zero product is the canonical zero, 0/1.
    """

    PARAMS = ("q1", "q2")
    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = self._as_poly(num)
        den = self._as_poly(den)
        if den.is_zero:
            raise ZeroDenominator("denominator is identically zero")
        if num.is_zero:
            den = ParamPoly.constant(self.PARAMS, 1)
        else:
            # joint per-variable minimum exponent over num and den; shifting it
            # to zero clears Laurent exponents and strips shared monomial content
            mins = [None, None]
            for terms in (num.terms, den.terms):
                for key in terms:
                    for i, e in enumerate(key):
                        mins[i] = e if mins[i] is None else min(mins[i], e)
            if any(mins):
                mono = ParamPoly(self.PARAMS, {tuple(-m for m in mins): ONE})
                num = num * mono
                den = den * mono
            lead = den.terms[max(den.terms)]
            if lead != ONE:
                num = num / lead
                den = den / lead
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, num: ParamPoly, den: ParamPoly) -> "RatFunc2":
        """The RatFunc2 of a numerator and denominator already in canonical form."""
        f = object.__new__(cls)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", den)
        return f

    @classmethod
    def _as_poly(cls, value) -> ParamPoly:
        if isinstance(value, ParamPoly):
            if value.params != cls.PARAMS:
                raise ValueError("RatFunc2 components must use parameters (q1, q2)")
            return value
        if isinstance(value, (int, Fraction, GaussianRational)):
            return ParamPoly.constant(cls.PARAMS, value)
        raise TypeError(f"cannot interpret {value!r} as a (q1, q2) polynomial")

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return bool(self.num.terms)

    def sign_is_negative(self) -> bool:
        return self.num.sign_is_negative()

    # -- arithmetic ------------------------------------------------------

    def _coerce_op(self, other):
        if isinstance(other, RatFunc2):
            return other
        if isinstance(other, (int, Fraction, GaussianRational, ParamPoly)):
            return RatFunc2(other)
        return None

    def __add__(self, other):
        other = self._coerce_op(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RatFunc2(self.num + other.num, self.den)
        return RatFunc2(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc2._of(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce_op(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            # scaling keeps the numerator's support, so the form stays canonical
            return RatFunc2._of(self.num * other, self.den) if other else RatFunc2(0)
        other = self._coerce_op(other)
        if other is None:
            return NotImplemented
        return RatFunc2(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce_op(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc2(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce_op(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        one = RatFunc2(1)
        return power(one / self, -n, one) if n < 0 else power(self, n, one)

    def conjugate(self) -> "RatFunc2":
        return RatFunc2._of(self.num.conjugate(), self.den.conjugate())

    def partial(self, which: int) -> "RatFunc2":
        """Exact quotient-rule derivative with respect to q1 (which=1) or q2."""
        if which not in (1, 2):
            raise ValueError("which must be 1 or 2")
        name = self.PARAMS[which - 1]
        return RatFunc2(
            self.num.derivative(name) * self.den - self.num * self.den.derivative(name),
            self.den * self.den,
        )

    def eval(self, q1, q2) -> GaussianRational:
        values = {"q1": GaussianRational.coerce(q1), "q2": GaussianRational.coerce(q2)}
        dval = self.den.eval(values)
        if dval.is_zero:
            raise PoleAtPoint(f"denominator vanishes at (q1, q2) = ({q1!r}, {q2!r})")
        return self.num.eval(values) / dval

    # -- equality ---------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce_op(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return (self.num * other.den) == (other.num * self.den)

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, obj) -> "RatFunc2":
        check_keys(obj, {"num", "den"}, "RatFunc2 JSON", required=("num", "den"))
        return cls(ParamPoly.from_json(obj["num"]), ParamPoly.from_json(obj["den"]))

    def __repr__(self):
        if self.den.is_constant and self.den.constant_value() == ONE:
            return f"({self.num!r})"
        return f"({self.num!r})/({self.den!r})"


def primitive_real_poly(poly: ParamPoly) -> ParamPoly:
    """Scale a polynomial with rational coefficients to primitive integer form.

    Clears denominators, divides by the integer content, and fixes the sign so
    the lexicographically greatest monomial has a positive leading value.
    Used to present canonical loci such as 4*q1 + q2^2.
    """
    if poly.is_zero:
        return poly
    # a coefficient's d is the lcm of the denominators of its re and im parts
    coeffs = poly.terms.values()
    denlcm = lcm(*(c.d for c in coeffs))
    scale = Fraction(denlcm, gcd(*(n * (denlcm // c.d) for c in coeffs for n in (c.a, c.b))))
    out = poly * scale
    if out.terms[max(out.terms)].sign_is_negative():
        out = -out
    return out
