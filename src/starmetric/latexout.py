"""One-way LaTeX rendering of phase-space polynomials and series.

Cosmetic output for reports; never parsed back.  Terms render in canonical
order with negative p/hbar powers placed in denominators, paper style:
the (1, -4, 2) term with coefficient 3i/4 becomes \\frac{3 i \\hbar^{2} x}{4 p^{4}}.
"""

from __future__ import annotations

from fractions import Fraction

from .phasepoly import CouplingSeries, PhasePoly
from .scalars import GaussianRational, ParamPoly, RatFunc2, int_str

_GREEK = {"hbar": r"\hbar", "alpha": r"\alpha", "beta": r"\beta", "omega": r"\omega"}


def _sym(name: str) -> str:
    if name in _GREEK:
        return _GREEK[name]
    if len(name) > 1 and name[-1].isdigit():
        return f"{name[:-1]}_{{{name[-1]}}}"
    return name


def _pow(sym: str, exp: int) -> str:
    return sym if exp == 1 else f"{sym}^{{{exp}}}"


def _gr_factors(c: GaussianRational):
    """(negative, numerator_parts, denominator_text) for a real or imaginary
    coefficient, the text "" for a denominator of 1; complex coefficients
    render as a parenthesized unit."""
    if c.is_real or not c.re:
        frac = c.re if c.is_real else c.im
        neg = frac < 0
        num = abs(frac.numerator)
        parts = []
        if num != 1:
            parts.append(int_str(num))
        if not c.is_real:
            parts.append("i")
        return neg, parts, "" if frac.denominator == 1 else int_str(frac.denominator)
    return False, [f"\\left({gr_latex(c)}\\right)"], ""


def gr_latex(c: GaussianRational) -> str:
    if c.is_real:
        return _frac_latex(c.re)
    if not c.re:
        im = c.im
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{_frac_latex(im)} i"
    sign = "+" if c.im > 0 else "-"
    return f"{_frac_latex(c.re)} {sign} {gr_latex(GaussianRational(0, abs(c.im)))}"


def _frac_latex(f: Fraction) -> str:
    if f.denominator == 1:
        return int_str(f.numerator)
    sign = "-" if f < 0 else ""
    return f"{sign}\\frac{{{int_str(abs(f.numerator))}}}{{{int_str(f.denominator)}}}"


def param_poly_latex(p: ParamPoly) -> str:
    if p.is_zero:
        return "0"
    bits = []
    for key, coeff in p.canonical_terms():
        neg, num, den = _gr_factors(coeff)
        for name, e in zip(p.params, key):
            if e > 0:
                num.append(_pow(_sym(name), e))
            elif e < 0:
                den += _pow(_sym(name), -e)
        body = " ".join(num) or "1"
        rendered = f"\\frac{{{body}}}{{{den}}}" if den else body
        bits.append(("-" if neg else "+", rendered))
    return _join_signed(bits)


def ratfunc_latex(r: RatFunc2) -> str:
    den = r.den
    if den.is_constant and den.constant_value() == GaussianRational(1):
        return param_poly_latex(r.num)
    return f"\\frac{{{param_poly_latex(r.num)}}}{{{param_poly_latex(den)}}}"


def _join_signed(bits) -> str:
    out = ""
    for k, (sign, body) in enumerate(bits):
        if k == 0:
            out = ("-" if sign == "-" else "") + body
        else:
            out += f" {sign} {body}"
    return out


def poly_latex(poly: PhasePoly) -> str:
    if poly.is_zero:
        return "0"
    bits = []
    for (xd, pd, hd), coeff in poly.canonical_terms():
        if isinstance(coeff, GaussianRational):
            neg, num, den = _gr_factors(coeff)
            den_parts = [den] if den else []
        elif isinstance(coeff, ParamPoly) and coeff.is_monomial():
            ((key, scalar),) = coeff.terms.items()
            neg, num, den = _gr_factors(scalar)
            den_parts = [den] if den else []
            for name, e in zip(coeff.params, key):
                if e > 0:
                    num.append(_pow(_sym(name), e))
                elif e < 0:
                    den_parts.append(_pow(_sym(name), -e))
        elif isinstance(coeff, RatFunc2):
            neg, num, den_parts = False, [ratfunc_latex(coeff)], []
        else:
            neg, num, den_parts = False, [f"\\left({param_poly_latex(coeff)}\\right)"], []
        if hd > 0:
            num.append(_pow(r"\hbar", hd))
        elif hd < 0:
            den_parts.append(_pow(r"\hbar", -hd))
        if xd:
            num.append(_pow("x", xd))
        if pd > 0:
            num.append(_pow("p", pd))
        elif pd < 0:
            den_parts.append(_pow("p", -pd))
        body = " ".join(num) or "1"
        if den_parts:
            body = f"\\frac{{{body}}}{{{' '.join(den_parts)}}}"
        bits.append(("-" if neg else "+", body))
    return _join_signed(bits)


def series_latex(series: CouplingSeries) -> str:
    g = _sym(series.coupling)
    bits = []
    for k, coeff in enumerate(series.coeffs):
        if coeff.is_zero:
            continue
        body = poly_latex(coeff)
        if k == 0:
            bits.append(body)
        else:
            wrapped = body if len(coeff.terms) == 1 and not body.startswith("-") else f"\\left( {body} \\right)"
            bits.append(f"{_pow(g, k)} {wrapped}")
    rendered = " + ".join(bits) if bits else "0"
    return f"{rendered} + O({_pow(g, series.order + 1)})"

