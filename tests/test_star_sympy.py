"""sympy as an independent oracle for the Moyal kernel.

Every expected value here is built from sympy derivatives of the operands
written out as sympy expressions: the star product and commutator, the
adjoint, the hermiticity criterion, star products against P exp(Q), the PDE
form of the metric residual on polynomials and on P exp(Q), the oscillator's
Berry connection equation and curvature, and the Gaussian metric's series in
the coupling.  Nothing but
the conversion of the operands to sympy touches starmetric code.
"""

import random
from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from starmetric.berry import moyal_connection_solve
from starmetric.metric import HamiltonianSpec, expand_gaussian_in_coupling, pde_operator
from starmetric.phasepoly import PhasePoly
from starmetric.scalars import GaussianRational, ParamPoly, RatFunc2
from starmetric.star import (
    ExpQuadForm,
    dagger,
    is_hermitian,
    star,
    star_commutator,
    star_poly_expquad,
)

from _helpers import bundled, random_gr, random_poly

X, P, HBAR = sp.symbols("x p hbar", real=True)


def _rat(f: Fraction):
    return sp.Rational(f.numerator, f.denominator)


def _coeff(c):
    if isinstance(c, GaussianRational):
        return _rat(c.re) + sp.I * _rat(c.im)
    if isinstance(c, ParamPoly):
        syms = [sp.Symbol(name, real=True) for name in c.params]
        return sp.Add(
            *[_coeff(v) * sp.Mul(*[s**e for s, e in zip(syms, key)]) for key, v in c.terms.items()]
        )
    if isinstance(c, RatFunc2):
        return _coeff(c.num) / _coeff(c.den)
    raise TypeError(f"no sympy image for {c!r}")


def to_sympy(poly: PhasePoly):
    return sp.Add(*[_coeff(c) * X**xd * P**pd * HBAR**hd for (xd, pd, hd), c in poly.terms.items()])


def same(a, b) -> bool:
    return sp.expand(a - b) == 0


def moyal(a, b):
    """sum_k (i hbar)^k / k! d^k a/dx^k d^k b/dp^k, until either derivative vanishes."""
    total, k = 0, 0
    while (da := sp.diff(a, X, k)) != 0 and (db := sp.diff(b, P, k)) != 0:
        total += (sp.I * HBAR) ** k / sp.factorial(k) * da * db
        k += 1
    return total


def exp_mixed(a, sign):
    """exp(sign i hbar dx dp) a."""
    total, k = 0, 0
    while (d := sp.diff(a, X, k, P, k)) != 0:
        total += (sign * sp.I * HBAR) ** k / sp.factorial(k) * d
        k += 1
    return total


def sym_dagger(a):
    return exp_mixed(sp.conjugate(a), +1)


def p_polynomial(rng) -> PhasePoly:
    poly = random_poly(rng, max_terms=3, max_x=2)
    return PhasePoly({(xd, abs(pd), hd): c for (xd, pd, hd), c in poly.terms.items()})


def random_exponent(rng) -> PhasePoly:
    slots = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    return PhasePoly(
        {(xd, pd, rng.randint(-1, 1)): random_gr(rng, span=2) for xd, pd in rng.sample(slots, 3)}
    )


def test_star_matches_sympy():
    rng = random.Random(41)
    for _ in range(15):
        a = random_poly(rng)
        b = random_poly(rng, p_span=3)  # negative p powers on the right operand
        assert same(to_sympy(star(a, b)), moyal(to_sympy(a), to_sympy(b)))


def test_dagger_matches_sympy():
    rng = random.Random(42)
    for _ in range(15):
        a = random_poly(rng)
        assert same(to_sympy(dagger(a)), sym_dagger(to_sympy(a)))


def test_is_hermitian_matches_sympy():
    rng = random.Random(43)
    verdicts = []
    for _ in range(10):
        b = random_poly(rng)
        for a in (b, b + dagger(b)):
            expr = to_sympy(a)
            expected = same(sp.conjugate(expr), exp_mixed(expr, -1))
            assert is_hermitian(a) == expected
            verdicts.append(expected)
    assert any(verdicts) and not all(verdicts)


def param_poly(rng, **kw) -> PhasePoly:
    """A random PhasePoly whose coefficients are Laurent polynomials in a, b."""
    poly = random_poly(rng, **kw)
    params = ("a", "b")

    def lift(c):
        key = (rng.randint(-1, 2), rng.randint(0, 1))
        return ParamPoly(params, {key: c, (0, 0): random_gr(rng, span=2)})

    return PhasePoly({k: lift(c) for k, c in poly.terms.items()})


# both coefficient paths of the kernel: all Gaussian rationals, all ParamPoly,
# and each mix; x degree up to 5 on the left, negative p and hbar powers on
# the right
OPERANDS = {
    "gr": lambda rng, **kw: random_poly(rng, **kw),
    "param": param_poly,
}


@pytest.mark.parametrize("left", sorted(OPERANDS))
@pytest.mark.parametrize("right", sorted(OPERANDS))
def test_star_matches_sympy_on_both_coefficient_paths(left, right):
    rng = random.Random(f"{left}-{right}")
    for _ in range(6):
        a = OPERANDS[left](rng, max_terms=3, max_x=5)
        b = OPERANDS[right](rng, max_terms=3, p_span=3, h_span=2)
        assert same(to_sympy(star(a, b)), moyal(to_sympy(a), to_sympy(b)))


@pytest.mark.parametrize("left", sorted(OPERANDS))
@pytest.mark.parametrize("right", sorted(OPERANDS))
def test_commutator_matches_sympy_on_both_coefficient_paths(left, right):
    rng = random.Random(f"commutator-{left}-{right}")
    for _ in range(6):
        a = OPERANDS[left](rng, max_terms=3, max_x=5)
        b = OPERANDS[right](rng, max_terms=3, max_x=5, p_span=3, h_span=2)
        sa, sb = to_sympy(a), to_sympy(b)
        assert same(to_sympy(star_commutator(a, b)), moyal(sa, sb) - moyal(sb, sa))


@pytest.mark.parametrize("kind", sorted(OPERANDS))
def test_adjoint_matches_sympy_on_both_coefficient_paths(kind):
    rng = random.Random(f"adjoint-{kind}")
    verdicts = []
    for _ in range(6):
        b = OPERANDS[kind](rng, max_terms=3, max_x=5, p_span=3, h_span=2)
        assert same(to_sympy(dagger(b)), sym_dagger(to_sympy(b)))
        for a in (b, b + dagger(b)):
            expr = to_sympy(a)
            expected = same(sp.conjugate(expr), exp_mixed(expr, -1))
            assert is_hermitian(a) == expected
            verdicts.append(expected)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("side", ["left", "right"])
def test_star_poly_expquad_matches_sympy(side):
    rng = random.Random(44 if side == "left" else 45)
    for _ in range(6):
        a = random_poly(rng, max_terms=3, max_x=2) if side == "left" else p_polynomial(rng)
        e = ExpQuadForm(random_poly(rng, max_terms=2, max_x=1), random_exponent(rng))
        out = star_poly_expquad(a, e, side)
        assert out.exponent == e.exponent
        q = to_sympy(e.exponent)
        full = to_sympy(e.prefactor) * sp.exp(q)
        if side == "left":
            expected = moyal(to_sympy(a), full)
        else:
            expected = moyal(full, to_sympy(a))
        assert same(to_sympy(out.prefactor), sp.expand(expected * sp.exp(-q)))


MODELS = ("ix3", "quadratic", "shifted", "random1", "random2")


@pytest.mark.parametrize("name", MODELS)
def test_pde_operator_matches_sympy_residual(name):
    rng = random.Random(MODELS.index(name))
    if name.startswith("random"):
        spec = HamiltonianSpec(p_polynomial(rng))
    else:
        spec = bundled(name).spec
    h = to_sympy(spec.symbolic_total())
    op = pde_operator(spec)
    for _ in range(4):
        theta = random_poly(rng)
        t = to_sympy(theta)
        residual = moyal(h, t) - moyal(t, sym_dagger(h))
        assert same(to_sympy(op.apply(theta)), residual)
    # the same operator on P exp(Q), the metric residual of a Gaussian
    for _ in range(2):
        e = ExpQuadForm(random_poly(rng, max_terms=2, max_x=1), random_exponent(rng))
        out = op.apply(e)
        assert out.exponent == e.exponent
        q = to_sympy(e.exponent)
        full = to_sympy(e.prefactor) * sp.exp(q)
        residual = moyal(h, full) - moyal(full, sym_dagger(h))
        assert same(to_sympy(out.prefactor), sp.expand(residual * sp.exp(-q)))


def test_berry_connection_matches_sympy():
    # H = p^2 + q1 x^2 + i q2 x p written out here, not taken from starmetric
    q1, q2 = sp.symbols("q1 q2", real=True)
    h = P**2 + q1 * X**2 + sp.I * q2 * X * P
    conn = moyal_connection_solve()
    a1, a2 = to_sympy(conn.a1()), to_sympy(conn.a2())

    def bracket(a, b):
        return moyal(a, b) - moyal(b, a)

    for a, q in ((a1, q1), (a2, q2)):
        assert sp.cancel(bracket(bracket(a, h), h) - bracket(sp.diff(h, q), h)) == 0
    assert sp.cancel(sp.diff(a1, q2) - sp.diff(a2, q1) + bracket(a1, a2)) == 0


def test_gaussian_series_matches_sympy():
    # exp(c/(2 hbar d) (x^2 + p^2) + (i/hbar)(1 - sqrt(1 - c^2/d^2)) x p), d = a - b,
    # expanded by sympy's own series in c
    a, b, order = Fraction(3, 2), Fraction(-1, 3), 6
    c = sp.Symbol("c")
    d = _rat(a - b)
    exponent = (
        c / (2 * HBAR * d) * (X**2 + P**2) + sp.I / HBAR * (1 - sp.sqrt(1 - c**2 / d**2)) * X * P
    )
    expected = sp.series(sp.exp(exponent), c, 0, order + 1).removeO()
    theta = expand_gaussian_in_coupling(a, b, order)
    assert theta.order == order
    assert same(sp.Add(*[to_sympy(t) * c**n for n, t in enumerate(theta.coeffs)]), expected)
