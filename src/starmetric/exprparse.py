"""Tiny expression parser for phase-space polynomials on the command line.

Grammar (whitespace insensitive):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/')? factor)*      adjacency is multiplication
    factor := primary ('^' ['-'] INT)?
    primary:= INT | 'i' | 'x' | 'p' | 'hbar' | '(' expr ')'

Division is exact and only by single-term (monomial) subexpressions with no
positive x power, e.g. "x^4/(4*hbar*p)".  This covers every printed formula;
anything richer belongs in a JSON model file.

A power is bounded before it is taken (`_check_power`): one whose result may
have more than MAX_POWER_TERMS terms, or an integer past the int -> str
output limit, is an ExprError.
"""

from __future__ import annotations

import re
import sys
from math import comb, lcm, log10, prod
from typing import List, Tuple

from .modelio import read_json
from .phasepoly import CouplingSeries, PhasePoly
from .scalars import GaussianRational, I
from .star import ExpQuadForm

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|\^|\*|/|\+|-|\(|\))")


class ExprError(ValueError):
    """Malformed polynomial expression."""


# the most terms a power may have: squaring a power of near this many terms
# with multi-hundred-digit coefficients already takes about a second
MAX_POWER_TERMS = 1000


def _check_power(base: PhasePoly, exp: int):
    """Raise ExprError unless base**exp, exp >= 2, is sure to have at most
    MAX_POWER_TERMS terms and only integers within the output limit.

    The terms are bounded by the exponents each variable can reach, and by
    the multisets of exp of the base's t terms.  With D the lcm of the
    coefficient denominators and n_j = D c_j, every coefficient of the power
    is a Gaussian integer of modulus at most (sum |n_j|)^exp over D^exp, so
    its printed parts have at most as many digits as the larger of the two.
    """
    if exp < 2 or not base.terms:
        return
    keys, t = base.terms, len(base.terms)
    spans = [max(k[v] for k in keys) - min(k[v] for k in keys) for v in range(3)]
    by_degree = prod(exp * span + 1 for span in spans)
    # comb(exp + t - 1, t - 1) is at least exp + t - 1, for t >= 2
    n = exp + t - 1
    by_count = comb(n, t - 1) if n <= MAX_POWER_TERMS else n
    if min(by_degree, by_count) > MAX_POWER_TERMS:
        raise ExprError(
            f"a power ^{exp} of {t} terms may have more than the limit of "
            f"{MAX_POWER_TERMS} terms"
        )
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    coeffs = base.terms.values()
    den = lcm(*(c.d for c in coeffs))
    logs = [0.5 * log10((c.a * c.a + c.b * c.b) * (den // c.d) ** 2) for c in coeffs]
    top = max(logs)
    digits = exp * max(top + log10(sum(10 ** (v - top) for v in logs)), log10(den))
    if digits >= limit:
        raise ExprError(
            f"a power ^{exp} may have an integer of about {digits:.0f} digits, past "
            f"the output limit of {limit} digits"
        )


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
                total = total * rhs if tok == "*" else _divide(total, rhs)
            elif tok is not None and tok not in ("+", "-", ")"):
                total = total * self.factor()
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
    inv = PhasePoly.monomial(coeff.inverse(), 0, -pd, -hd)
    return num * inv


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
