"""Tiny expression parser for phase-space polynomials on the command line.

Grammar (whitespace insensitive):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/')? factor)*      adjacency is multiplication
    factor := primary ('^' ['-'] INT)?
    primary:= INT | 'i' | 'x' | 'p' | 'hbar' | '(' expr ')'

Division is exact and only by single-term (monomial) subexpressions with no
positive x power, e.g. "x^4/(4*hbar*p)".  This covers every printed formula;
anything richer belongs in a JSON model file.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .modelio import read_json
from .phasepoly import CouplingSeries, PhasePoly
from .scalars import GaussianRational, I
from .star import ExpQuadForm

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|\^|\*|/|\+|-|\(|\))")


class ExprError(ValueError):
    """Malformed polynomial expression."""


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
