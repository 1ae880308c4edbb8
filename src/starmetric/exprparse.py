"""Tiny expression parser for phase-space polynomials on the command line.

Grammar (whitespace insensitive):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/')? factor)*      adjacency is multiplication
    factor := primary ('^' ['-'] INT)?
    primary:= INT | 'i' | 'x' | 'p' | 'hbar' | '(' expr ')'

Division is exact and only by single-term (monomial) subexpressions with no
positive x power, e.g. "x^4/(4*hbar*p)".  This covers every printed formula;
anything richer belongs in a JSON model file.

Every product and power is bounded before it is taken (`_times`,
`_check_power`): one whose result may have more than MAX_TERMS terms, or
whose products may take more than MAX_WORK, or a power with an integer past
the int -> str output limit, is an ExprError.
"""

from __future__ import annotations

import re
import sys
from math import comb, inf, lcm, log10, prod
from typing import List, Tuple

from .modelio import read_json
from .phasepoly import CouplingSeries, PhasePoly
from .scalars import GaussianRational, I
from .star import ExpQuadForm

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|\^|\*|/|\+|-|\(|\))")


class ExprError(ValueError):
    """Malformed polynomial expression."""


# the most terms a product or power may have: squaring a power of near this
# many terms with multi-hundred-digit coefficients already takes about a second
MAX_TERMS = 1000

# the most work a product, or the products of a power, may take: its term
# pairs times 1 + the digits of its coefficients.  At this limit a product
# takes up to about a second.
MAX_WORK = 10**7


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


def _check_limits(what: str, terms: int, digits: float, work: float):
    """Raise ExprError if a product or power may have more than MAX_TERMS
    terms or an integer past the output limit, or take more than MAX_WORK."""
    if terms > MAX_TERMS:
        raise ExprError(f"{what} may have more than the limit of {MAX_TERMS} terms")
    limit = sys.get_int_max_str_digits()
    if limit and digits >= limit:
        raise ExprError(
            f"{what} may have an integer of about {digits:.0f} digits, past the output "
            f"limit of {limit} digits"
        )
    if work > MAX_WORK:
        raise ExprError(
            f"{what} may take about {work:.2g} term pairs times digits, past the work "
            f"limit of {MAX_WORK:.0e}"
        )


def _times(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    """a * b, unless `_check_limits` refuses it: its work is its term pairs
    times 1 + the `_digits` of its coefficients."""
    ta, tb = len(a.terms), len(b.terms)
    if ta and tb:
        terms = ta * tb
        if terms > MAX_TERMS:
            terms = min(terms, prod(x + y + 1 for x, y in zip(_spans(a), _spans(b))))
        digits = _digits(a) + _digits(b)
        what = f"a product of a {ta}-term and a {tb}-term factor"
        _check_limits(what, terms, digits, ta * tb * (1 + digits))
    return a * b


def _check_power(base: PhasePoly, exp: int):
    """Raise ExprError unless `_check_limits` passes base**exp, exp >= 2.

    The power is taken by repeated squaring (`scalars.power`), and each of
    its products is charged as `_times` charges it, from the bounds of its
    operands: `_power_terms` and k times the base's `_digits` for base**k.
    """
    if exp < 2 or not base.terms:
        return
    t, digits = len(base.terms), _digits(base)
    if t == 1 and not digits:
        return  # one term with a unit coefficient, at any exponent
    what, spans = f"a power ^{exp} of a {t}-term base", _spans(base)
    if exp >= 2**1000:
        # past the terms limit (t >= 2) or the digits one (at least
        # log10(2)/2 a factor), and past what a float bound holds
        _check_limits(what, _power_terms(t, spans, exp), inf, inf)
    work, done, k, n = 0, 0, 1, exp
    while n:
        if n & 1:
            pairs = _power_terms(t, spans, done) * _power_terms(t, spans, k)
            work += pairs * (1 + (done + k) * digits)
            done += k
        n >>= 1
        if n:
            work += _power_terms(t, spans, k) ** 2 * (1 + 2 * k * digits)
            k *= 2
    _check_limits(what, _power_terms(t, spans, exp), exp * digits, work)


def _tokenize(text: str) -> List[str]:
    text = text.rstrip()
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
                total = _times(total, rhs) if tok == "*" else _divide(total, rhs)
            elif tok is not None and tok not in ("+", "-", ")"):
                total = _times(total, self.factor())
            else:
                return total

    def factor(self) -> PhasePoly:
        base = self.primary()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ExprError("expected an integer exponent after '^'")
            exp = sign * int(tok)
            _check_power(base, abs(exp))
            if exp >= 0:
                return base**exp
            return _divide(PhasePoly.one(), base ** (-exp))
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


def _divide(num: PhasePoly, den: PhasePoly) -> PhasePoly:
    if den.is_zero:
        raise ExprError("division by zero")
    if len(den.terms) != 1:
        raise ExprError("division only by monomial subexpressions")
    ((xd, pd, hd), coeff) = next(iter(den.terms.items()))
    if xd:
        raise ExprError("cannot divide by a positive power of x")
    return _times(num, PhasePoly.monomial(coeff.inverse(), 0, -pd, -hd))


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
