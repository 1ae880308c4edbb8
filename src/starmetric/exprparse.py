"""Tiny expression parser for phase-space polynomials on the command line.

Grammar (whitespace insensitive):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/')? factor)*      adjacency is multiplication
    factor := primary ('^' ['-'] INT)?
    primary:= INT | 'i' | 'x' | 'p' | 'hbar' | '(' expr ')'

Division is exact and only by single-term (monomial) subexpressions with no
positive x power, e.g. "x^4/(4*hbar*p)".  This covers every printed formula;
anything richer belongs in a JSON model file.

Every product and power is bounded (`_Parser.times`, `_Parser.power`): one
whose result may have more than MAX_TERMS terms or an integer past the
int -> str output limit is an ExprError before it is taken.  So is every
multiply, a power's repeated squaring included, whose work, counted from its
real operands, brings the expression's so far past MAX_WORK.
"""

from __future__ import annotations

import re
import sys
from math import comb, inf, lcm, log10, prod
from typing import List, Tuple

from .modelio import read_json
from .phasepoly import CouplingSeries, PhasePoly
from .scalars import GaussianRational, I, _check_size, power
from .star import ExpQuadForm

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|\^|\*|/|\+|-|\(|\))")


class ExprError(ValueError):
    """Malformed polynomial expression."""


# the most terms a product or power may have: squaring a power of near this
# many terms with multi-hundred-digit coefficients already takes about a second
MAX_TERMS = 1000

# the most work the products and powers of one expression may take together:
# each product's term pairs times 1 + the digits of its coefficients.  At this
# limit a parse takes up to about two seconds.
MAX_WORK = 2 * 10**7


def _digits(poly: PhasePoly) -> float:
    """log10 of the larger of D, the lcm of the coefficient denominators, and
    sum |n_j| over the Gaussian integer numerators n_j = D c_j of a nonzero
    poly.  Every coefficient has modulus at most sum |n_j| over D, so its
    printed parts have at most about that many digits; a product's have at
    most the sum of its factors', and a power's exp times its base's."""
    coeffs = poly.terms.values()
    den = lcm(*[c.d for c in coeffs])
    logs = [0.5 * log10((c.a * c.a + c.b * c.b) * (den // c.d) ** 2) for c in coeffs]
    top = max(logs)
    return max(top + log10(sum([10 ** (v - top) for v in logs])), log10(den))


def _spans(poly: PhasePoly) -> list:
    """The x, p and hbar degree spans of a nonzero poly."""
    keys = poly.terms
    return [max(k[v] for k in keys) - min(k[v] for k in keys) for v in range(3)]


def _power_terms(t: int, spans, k: int) -> int:
    """A bound on the terms of base**k, for a base of t terms and the degree
    spans, or MAX_TERMS + 1 past the limit: the exponents each variable can
    reach, and the multisets of k of the t terms, comb(k + t - 1, t - 1),
    which is at least k + t - 1 for t >= 2."""
    n = k + t - 1
    by_count = comb(n, t - 1) if n <= MAX_TERMS else MAX_TERMS + 1
    return min(prod(k * span + 1 for span in spans), by_count)


def _tokenize(text: str) -> List[str]:
    text = text.rstrip()
    _check_size(text)
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExprError(f"bad character at position {pos}: {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: List[str]):
        self.tokens = tokens
        self.pos = 0
        # the work of the products and powers taken so far, as `charge` counts it
        self.work = 0.0

    def charge(self, what: str, terms: int, digits: float, work: float):
        """Raise ExprError if a product or power may have more than MAX_TERMS
        terms or an integer past the output limit, or if its work brings the
        expression's past MAX_WORK; else add its work to the expression's."""
        if terms > MAX_TERMS:
            raise ExprError(f"{what} may have more than the limit of {MAX_TERMS} terms")
        limit = sys.get_int_max_str_digits()
        if limit and digits >= limit:
            raise ExprError(
                f"{what} may have an integer of about {digits:.0f} digits, past the output "
                f"limit of {limit} digits"
            )
        self.work += work
        if self.work > MAX_WORK:
            raise ExprError(
                f"{what} brings the work of the expression to about {self.work:.2g} term "
                f"pairs times digits, past the work limit of {MAX_WORK:.0e}"
            )

    def times(self, a: PhasePoly, b: PhasePoly) -> PhasePoly:
        """a * b, unless `charge` refuses it: its terms are bounded by its
        term pairs, tightened by the degree spans, before it is taken."""
        ta, tb = len(a.terms), len(b.terms)
        terms = ta * tb
        if terms > MAX_TERMS:
            terms = min(terms, prod(x + y + 1 for x, y in zip(_spans(a), _spans(b))))
        return self.multiply(a, b, f"a product of a {ta}-term and a {tb}-term factor", terms)

    def multiply(self, a: PhasePoly, b: PhasePoly, what: str, terms: int = 0) -> PhasePoly:
        """a * b, unless `charge` refuses it: its digits are its operands'
        `_digits` summed, and its work its term pairs times 1 + those digits."""
        if a.terms and b.terms:
            digits = _digits(a) + _digits(b)
            self.charge(what, terms, digits, len(a.terms) * len(b.terms) * (1 + digits))
        return a * b

    def power(self, base: PhasePoly, exp: int) -> PhasePoly:
        """base**exp, exp >= 0, unless `charge` refuses it: its terms
        (`_power_terms`) and digits (exp times the base's `_digits`) are
        checked first, and bound every product of its repeated squaring
        (`scalars.power`) too; `multiply` charges each of those its work."""
        if exp < 2 or not base.terms:
            return base if exp else PhasePoly.one()
        t, digits = len(base.terms), _digits(base)
        if t == 1 and not digits:  # c x^a p^b hbar^h with c^4 = 1, at any exponent
            ((xd, pd, hd), c) = next(iter(base.terms.items()))
            return PhasePoly._of_terms({(exp * xd, exp * pd, exp * hd): c ** (exp % 4)})
        what = f"a power ^{exp} of a {t}-term base"
        digits = exp * digits if exp <= sys.float_info.max else inf
        self.charge(what, _power_terms(t, _spans(base), exp), digits, 0)
        return power(base, exp, PhasePoly.one(), lambda a, b: self.multiply(a, b, what))

    def divide(self, num: PhasePoly, den: PhasePoly) -> PhasePoly:
        if den.is_zero:
            raise ExprError("division by zero")
        if len(den.terms) != 1:
            raise ExprError("division only by monomial subexpressions")
        ((xd, pd, hd), coeff) = next(iter(den.terms.items()))
        if xd:
            raise ExprError("cannot divide by a positive power of x")
        return self.times(num, PhasePoly.monomial(coeff.inverse(), 0, -pd, -hd))

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> PhasePoly:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        elif self.peek() == "+":
            self.take()
        total = self.term().scaled(sign)
        while self.peek() in ("+", "-"):
            op = self.take()
            nxt = self.term()
            total = total + nxt if op == "+" else total - nxt
        return total

    def term(self) -> PhasePoly:
        total = self.factor()
        while True:
            tok = self.peek()
            if tok in ("*", "/"):
                self.take()
                rhs = self.factor()
                total = self.times(total, rhs) if tok == "*" else self.divide(total, rhs)
            elif tok is not None and tok not in ("+", "-", ")"):
                total = self.times(total, self.factor())
            else:
                return total

    def factor(self) -> PhasePoly:
        base = self.primary()
        if self.peek() == "^":
            self.take()
            negative = self.peek() == "-"
            if negative:
                self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ExprError("expected an integer exponent after '^'")
            out = self.power(base, int(tok))
            return self.divide(PhasePoly.one(), out) if negative else out
        return base

    def primary(self) -> PhasePoly:
        tok = self.take()
        if tok is None:
            raise ExprError("unexpected end of expression")
        if tok.isdigit():
            return PhasePoly.const(GaussianRational(int(tok)))
        if tok == "i":
            return PhasePoly.const(I)
        if tok == "x":
            return PhasePoly.x()
        if tok == "p":
            return PhasePoly.p()
        if tok == "hbar":
            return PhasePoly.hbar()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ExprError("missing closing parenthesis")
            return inner
        raise ExprError(f"unexpected token {tok!r}")


def parse_poly(text: str) -> PhasePoly:
    parser = _Parser(_tokenize(text))
    try:
        out = parser.expr()
    except RecursionError:
        raise ExprError("expression nested too deeply") from None
    if parser.peek() is not None:
        raise ExprError(f"trailing tokens: {parser.tokens[parser.pos:]}")
    return out


def parse_theta(spec: str) -> Tuple[str, object]:
    """Parse a --theta option into ("poly" | "expquad" | "series", value)."""
    if spec == "one":
        return "poly", PhasePoly.one()
    if spec.startswith("expquad:"):
        rest = spec[len("expquad:") :]
        if rest.endswith(".json"):
            return "expquad", ExpQuadForm.from_json(read_json(rest))
        m = re.fullmatch(r"exp\((.*)\)", rest)
        if not m:
            raise ExprError("expquad theta must look like expquad:exp(...) or expquad:FILE.json")
        return "expquad", ExpQuadForm.pure_exponent(parse_poly(m.group(1)))
    if spec.startswith("series:"):
        return "series", CouplingSeries.from_json(read_json(spec[len("series:") :]))
    return "poly", parse_poly(spec)
