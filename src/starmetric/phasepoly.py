"""Sparse Laurent polynomials on phase space, and truncated coupling series.

A `PhasePoly` stores terms as a sparse map from exponent triples
``(x_deg, p_deg, hbar_deg)`` to exact coefficients.  The x exponent is
always nonnegative; p and hbar exponents may be any integer.  Keeping hbar
as a Laurent variable makes statements such as "the metric is singular as
hbar -> 0" checkable facts about negative hbar degrees.

Coefficients are `GaussianRational` by default.  The same container also
works over `ParamPoly` (symbolic model parameters) and `RatFunc2`
(connection coefficients); the coefficient ring is duck-typed and constants
coerce automatically through the numeric protocol.

The terms are always in the one normal form of `scalars.accumulate`.  The
public constructor (and so `from_json`) checks its input once: three
integer exponents with x >= 0 and a coefficient of one of `COEFF_TYPES`.
Ring operations, whose terms are valid by construction, go through
`PhasePoly._of`, which only calls `accumulate`; the solver, whose terms are
already in that form, hands them over as they are (`PhasePoly._of_terms`),
and so do `zero`, `one`, `x`, `p` and `hbar` at a plain int power (x >= 0);
any other power goes through the public constructor and its checks.

The JSON term layout lives here alone: `to_json` builds the tree, and
`write_json` writes its ``json.dumps(indent=2)`` text straight from the
sorted terms, for the CLI's writer.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Tuple, Union

from .scalars import (
    Frozen,
    GaussianRational,
    ParamPoly,
    RatFunc2,
    ONE,
    ZERO,
    accumulate,
    as_exponent,
    as_fraction,
    check_keys,
    check_list,
    check_name,
    power,
    ratio_str,
)

Key = Tuple[int, int, int]
# the types a scalar operand of PhasePoly arithmetic may have
COEFF_TYPES = (int, Fraction, GaussianRational, ParamPoly, RatFunc2)
CoeffLike = Union[COEFF_TYPES]


class CouplingMismatch(ValueError):
    """Two series over different formal couplings were combined."""


def _coerce_coeff(value):
    if isinstance(value, (GaussianRational, ParamPoly, RatFunc2)):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational.coerce(value)
    raise TypeError(f"cannot use {value!r} as a PhasePoly coefficient")


def _checked(key, coeff) -> Tuple[Key, object]:
    """A term given to the public constructor, checked and coerced."""
    xd, pd, hd = map(as_exponent, key)
    if xd < 0:
        raise ValueError("x degree must be nonnegative")
    return (xd, pd, hd), _coerce_coeff(coeff)


class PhasePoly(Frozen):
    """Phase-space function: sparse Laurent polynomial in (x, p, hbar)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, CoeffLike] | Iterable | None = None):
        """``terms`` maps (x, p, hbar) degrees to coefficients, or lists such pairs."""
        pairs = terms.items() if isinstance(terms, Mapping) else terms or ()
        object.__setattr__(self, "terms", accumulate(_checked(*pair) for pair in pairs))

    @classmethod
    def _of(cls, pairs) -> "PhasePoly":
        """The PhasePoly of pairs that are already valid terms."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", accumulate(pairs))
        return poly

    @classmethod
    def _of_terms(cls, terms: dict) -> "PhasePoly":
        """The PhasePoly whose terms are ``terms``, valid terms already in
        normal form: no coefficient is zero."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "PhasePoly":
        return cls._of_terms({})

    @classmethod
    def one(cls) -> "PhasePoly":
        return cls._of_terms({(0, 0, 0): ONE})

    @classmethod
    def const(cls, value: CoeffLike) -> "PhasePoly":
        return cls({(0, 0, 0): value})

    @classmethod
    def monomial(cls, coeff: CoeffLike, x: int = 0, p: int = 0, hbar: int = 0) -> "PhasePoly":
        return cls({(x, p, hbar): coeff})

    @classmethod
    def x(cls, power: int = 1) -> "PhasePoly":
        if type(power) is int and power >= 0:
            return cls._of_terms({(power, 0, 0): ONE})
        return cls({(power, 0, 0): ONE})

    @classmethod
    def p(cls, power: int = 1) -> "PhasePoly":
        if type(power) is int:
            return cls._of_terms({(0, power, 0): ONE})
        return cls({(0, power, 0): ONE})

    @classmethod
    def hbar(cls, power: int = 1) -> "PhasePoly":
        if type(power) is int:
            return cls._of_terms({(0, 0, power): ONE})
        return cls({(0, 0, power): ONE})

    # -- inspection ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, x: int = 0, p: int = 0, hbar: int = 0):
        return self.terms.get((x, p, hbar), ZERO)

    def canonical_terms(self):
        """Terms in lexicographic order on (x_deg, p_deg, hbar_deg)."""
        return sorted(self.terms.items())

    def total_xp_degree(self) -> int:
        return max((k[0] + k[1] for k in self.terms), default=0)

    def depends_on_x(self) -> bool:
        return any(k[0] for k in self.terms)

    def depends_on_p(self) -> bool:
        return any(k[1] for k in self.terms)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, PhasePoly):
            return PhasePoly._of(chain(self.terms.items(), other.terms.items()))
        if isinstance(other, COEFF_TYPES):
            return self + PhasePoly.const(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PhasePoly._of((k, -c) for k, c in self.terms.items())

    def __sub__(self, other):
        if isinstance(other, COEFF_TYPES):
            other = PhasePoly.const(other)
        if isinstance(other, PhasePoly):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    @staticmethod
    def _product_terms(a: "PhasePoly", b: "PhasePoly"):
        """The (monomial, coefficient) pairs of a * b, like terms unsummed."""
        return (
            ((x1 + x2, p1 + p2, h1 + h2), c1 * c2)
            for (x1, p1, h1), c1 in a.terms.items()
            for (x2, p2, h2), c2 in b.terms.items()
        )

    def __mul__(self, other):
        if isinstance(other, PhasePoly):
            return PhasePoly._of(PhasePoly._product_terms(self, other))
        if isinstance(other, COEFF_TYPES):
            return self.scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def scaled(self, scalar: CoeffLike) -> "PhasePoly":
        scalar = _coerce_coeff(scalar)
        return PhasePoly._of((k, c * scalar) for k, c in self.terms.items())

    def __pow__(self, n: int):
        return power(self, n, PhasePoly.one())

    # -- calculus ----------------------------------------------------------

    def derivative(self, var: str) -> "PhasePoly":
        """Exact partial derivative with respect to ``"x"`` or ``"p"``."""
        if var == "x":
            return PhasePoly._of(
                ((xd - 1, pd, hd), c * xd) for (xd, pd, hd), c in self.terms.items() if xd
            )
        if var == "p":
            return PhasePoly._of(
                ((xd, pd - 1, hd), c * pd) for (xd, pd, hd), c in self.terms.items() if pd
            )
        raise KeyError(var)

    def conjugate(self) -> "PhasePoly":
        """Coefficientwise complex conjugation; x, p and hbar are real."""
        return PhasePoly._of((k, c.conjugate()) for k, c in self.terms.items())

    def subs_hbar(self, value) -> "PhasePoly":
        """Evaluate the hbar degree at a fixed exact rational value."""
        if not isinstance(value, GaussianRational):
            value = GaussianRational.coerce(as_fraction(value))
        return PhasePoly._of(
            ((xd, pd, 0), c * value**hd) for (xd, pd, hd), c in self.terms.items()
        )

    def map_coeffs(self, fn) -> "PhasePoly":
        return PhasePoly({k: fn(c) for k, c in self.terms.items()})

    # -- equality -----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, COEFF_TYPES):
            other = PhasePoly.const(other)
        if isinstance(other, PhasePoly):
            return self.terms == other.terms
        return NotImplemented

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list:
        return [
            {"x": xd, "p": pd, "hbar": hd, "coeff": coeff.to_json()}
            for (xd, pd, hd), coeff in self.canonical_terms()
        ]

    def write_json(self, out: list, newline: str, write_tree) -> None:
        """Append to ``out`` the ``json.dumps(self.to_json(), indent=2)`` text,
        at the level whose line break and indent is ``newline``, straight from
        the sorted terms.  A Gaussian coefficient fills the term template of
        that level (`_term_templates`); any other is written as its
        ``to_json()`` tree by ``write_tree(out, tree, newline)``."""
        if not self.terms:
            out.append("[]")
            return
        item = newline + "  "
        gaussian, head = _term_templates(item)
        sep = "[" + item
        for (xd, pd, hd), coeff in self.canonical_terms():
            if type(coeff) is GaussianRational:
                re, im = ratio_str(coeff.a, coeff.d), ratio_str(coeff.b, coeff.d)
                out.append(sep + gaussian % (xd, pd, hd, re, im))
            else:
                out.append(sep + head % (xd, pd, hd))
                write_tree(out, coeff.to_json(), item + "  ")
                out.append(item + "}")
            sep = "," + item
        out.append(newline + "]")

    @classmethod
    def from_json(cls, obj) -> "PhasePoly":
        def term(entry):
            check_keys(entry, {"x", "p", "hbar", "coeff"}, "PhasePoly term", required=("coeff",))
            key = (entry.get("x", 0), entry.get("p", 0), entry.get("hbar", 0))
            return key, coeff_from_json(entry["coeff"])

        return cls(map(term, check_list(obj, "PhasePoly JSON")))

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for (xd, pd, hd), coeff in self.canonical_terms():
            mono = "*".join(
                f"{n}^{e}" if e != 1 else n
                for n, e in (("x", xd), ("p", pd), ("hbar", hd))
                if e
            )
            lead = f"({coeff!r})"
            bits.append(f"{lead}*{mono}" if mono else lead)
        return " + ".join(bits)


@lru_cache(maxsize=64)
def _term_templates(item: str):
    """The %-templates of one `PhasePoly.to_json` term whose dict sits at the
    line break and indent ``item``: the whole term with a Gaussian
    coefficient (x, p, hbar, re, im), and the term up to its "coeff" value
    (x, p, hbar).  re and im are `ratio_str` texts, which json quotes as
    they are."""
    field, part = item + "  ", item + "    "
    head = f'{{{field}"x": %d,{field}"p": %d,{field}"hbar": %d,{field}"coeff": '
    return f'{head}{{{part}"re": "%s",{part}"im": "%s"{field}}}{item}}}', head


def coeff_from_json(obj):
    """Dispatch a coefficient JSON object on its shape."""
    if isinstance(obj, Mapping):
        if "num" in obj:
            return RatFunc2.from_json(obj)
        if "params" in obj:
            return ParamPoly.from_json(obj)
        return GaussianRational.from_json(obj)
    raise ValueError(f"bad coefficient JSON: {obj!r}")


class CouplingSeries(Frozen):
    """Truncated power series in one formal coupling with PhasePoly coefficients.

    ``coeffs[k]`` is the coefficient of ``coupling**k``; the truncation order is
    ``len(coeffs) - 1``.  Sums truncate to the smaller order of the two
    operands, as does the one product of two series, `star.star_series`;
    nothing is ever padded.
    """

    __slots__ = ("coupling", "coeffs")

    def __init__(self, coupling: str, coeffs: Iterable[PhasePoly]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series carries at least its order-0 coefficient")
        if not all(isinstance(c, PhasePoly) for c in coeffs):
            raise TypeError("series coefficients must be PhasePoly values")
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, coupling: str, value: PhasePoly, order: int) -> "CouplingSeries":
        return cls(coupling, [value] + [PhasePoly.zero()] * order)

    @classmethod
    def one(cls, coupling: str, order: int) -> "CouplingSeries":
        return cls.constant(coupling, PhasePoly.one(), order)

    def _check(self, other: "CouplingSeries"):
        if self.coupling != other.coupling:
            raise CouplingMismatch(
                f"cannot combine series in {self.coupling!r} and {other.coupling!r}"
            )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CouplingSeries):
            return NotImplemented
        self._check(other)
        k = min(self.order, other.order)
        return CouplingSeries(
            self.coupling, [a + b for a, b in zip(self.coeffs[: k + 1], other.coeffs[: k + 1])]
        )

    def __neg__(self):
        return CouplingSeries(self.coupling, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, CouplingSeries):
            return NotImplemented
        return self + (-other)

    def scaled(self, scalar) -> "CouplingSeries":
        return CouplingSeries(self.coupling, [c.scaled(scalar) for c in self.coeffs])

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def map_coeffs(self, fn) -> "CouplingSeries":
        return CouplingSeries(self.coupling, [fn(c) for c in self.coeffs])

    def subs_hbar(self, value) -> "CouplingSeries":
        return self.map_coeffs(lambda c: c.subs_hbar(value))

    def __eq__(self, other):
        if not isinstance(other, CouplingSeries):
            return NotImplemented
        return (
            self.coupling == other.coupling
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def to_json(self) -> dict:
        return {
            "coupling": self.coupling,
            "order": self.order,
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    def write_json(self, out: list, newline: str, write_tree) -> None:
        """Append to ``out`` the ``json.dumps(self.to_json(), indent=2)`` text,
        at the level whose line break and indent is ``newline``: each
        coefficient by `PhasePoly.write_json`."""
        inner = newline + "  "
        item = inner + "  "
        out.append(
            f'{{{inner}"coupling": {_quote(self.coupling)},{inner}"order": {self.order:d},'
            f'{inner}"coeffs": '
        )
        sep = "[" + item
        for coeff in self.coeffs:
            out.append(sep)
            coeff.write_json(out, item, write_tree)
            sep = "," + item
        out.append(inner + "]" + newline + "}")

    @classmethod
    def from_json(cls, obj) -> "CouplingSeries":
        check_keys(
            obj, {"coupling", "order", "coeffs"}, "series JSON", required=("coupling", "coeffs")
        )
        coeffs = [PhasePoly.from_json(c) for c in check_list(obj["coeffs"], "series coeffs")]
        series = cls(check_name(obj["coupling"], "series coupling"), coeffs)
        if "order" in obj and as_exponent(obj["order"]) != series.order:
            raise ValueError("series order does not match coefficient count")
        return series

    def __repr__(self):
        bits = [f"({c!r})*{self.coupling}^{n}" for n, c in enumerate(self.coeffs)]
        return " + ".join(bits) + f" + O({self.coupling}^{self.order + 1})"

