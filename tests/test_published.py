"""A published metric, checked against the exact kernel.

For H = p^2/2 + x^2/2 + i g x^3, Bender, Brody and Jones (Phys. Rev. D 70
(2004) 025001; the same Q by another route in Bender, Meisinger and Wang,
J. Phys. A 36 (2003) 1973) give C = exp(Q) P with Q = g Q1 + g^3 Q3 + ...,

    Q1 = -(4/3) p^3 - 2 S_{1,2},
    Q3 = (128/15) p^5 + (40/3) S_{3,2} + 8 S_{1,4} - 12 p,

where S_{m,n} is the totally symmetric product of m factors p and n factors
x, at hbar = 1.  exp(Q) H^dagger = H exp(Q), so Theta = exp(Q) solves
H * Theta = Theta * dagger(H).  With hbar restored Q is dimensionless: Q1
and the degree-5 part of Q3 carry 1/hbar, and the -12 p term carries hbar.

The Weyl symbol of S_{m,n} is p^m x^n.  This package's symbols order p to
the left of x (x * p = x p + i hbar), so a Weyl symbol W maps to
S(W) = exp(+i hbar/2 dx dp) W.  The test does that map itself, over dicts of
Fractions, without the package's star machinery.  Q is hermitian, so each
S(Q_n) is its own `dagger`.
"""

from fractions import Fraction
from math import comb, factorial

from starmetric.metric import HamiltonianSpec, metric_residual
from starmetric.phasepoly import CouplingSeries, PhasePoly
from starmetric.scalars import GaussianRational
from starmetric.star import dagger, is_hermitian, star_exp, star_log

# Weyl symbols as {(x, p, hbar): (re, im)} with Fraction parts
Q1 = {(0, 3, -1): (Fraction(-4, 3), 0), (2, 1, -1): (Fraction(-2), 0)}
Q3 = {
    (0, 5, -1): (Fraction(128, 15), 0),
    (2, 3, -1): (Fraction(40, 3), 0),
    (4, 1, -1): (Fraction(8), 0),
    (0, 1, 1): (Fraction(-12), 0),
}
H0 = PhasePoly({(0, 2, 0): Fraction(1, 2), (2, 0, 0): Fraction(1, 2)})
SPEC = HamiltonianSpec(H0, ("g", PhasePoly({(3, 0, 0): GaussianRational(0, 1)})))


def weyl_to_symbol(weyl: dict) -> PhasePoly:
    """exp(+i hbar/2 dx dp) W: a term c x^a p^b hbar^h gives, for each k,
    (i/2)^k C(a, k) C(b, k) k! c x^(a-k) p^(b-k) hbar^(h+k)."""
    out: dict = {}
    for (a, b, h), (re, im) in weyl.items():
        for k in range(min(a, b) + 1):
            w = Fraction(comb(a, k) * comb(b, k) * factorial(k), 2**k)
            ur, ui = ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]  # i^k
            key = (a - k, b - k, h + k)
            old = out.get(key, (0, 0))
            out[key] = (old[0] + w * (ur * re - ui * im), old[1] + w * (ur * im + ui * re))
    return PhasePoly({key: GaussianRational(re, im) for key, (re, im) in out.items()})


def q_series(sign: int) -> CouplingSeries:
    """sign (g S(Q1) + g^3 S(Q3)) through order 3."""
    q1, q3 = weyl_to_symbol(Q1).scaled(sign), weyl_to_symbol(Q3).scaled(sign)
    return CouplingSeries("g", [PhasePoly.zero(), q1, PhasePoly.zero(), q3])


def test_weyl_map_of_xp_is_the_symmetric_product():
    # (x p + p x)/2 = p x + i hbar/2, and p x has the symbol x p here
    assert weyl_to_symbol({(1, 1, 0): (Fraction(1), 0)}) == PhasePoly(
        {(1, 1, 0): 1, (0, 0, 1): GaussianRational(0, Fraction(1, 2))}
    )


def test_published_metric_solves_the_exchange_equation_through_order_3():
    assert metric_residual(SPEC, star_exp(q_series(+1))).is_zero


def test_opposite_sign_fails_at_order_1():
    residual = metric_residual(SPEC, star_exp(q_series(-1)))
    assert residual.coeffs[0].is_zero and not residual.coeffs[1].is_zero


def test_star_log_returns_q():
    q = q_series(+1)
    assert star_log(star_exp(q)) == q


def test_each_q_is_hermitian():
    for q in (weyl_to_symbol(Q1), weyl_to_symbol(Q3)):
        assert is_hermitian(q) and dagger(q) == q
