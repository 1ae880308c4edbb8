"""Berry connection and curvature, at two levels.

Matrix level: the 2x2 family H(q) = [[1, z], [z, -1]], z = q1 + i q2, with
its exceptional points at (0, +-1).  Computations here are double precision
with explicit tolerances; the interesting statements (residuals, vanishing
curvature, monodromy) are float checks.

Phase-space level: the quadratic oscillator H = p^2 + q1 x^2 + i q2 x p.
Here the connection is solved exactly over rational functions of (q1, q2)
and the curvature vanishes as a polynomial identity, not just numerically.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, sqrt
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .phasepoly import ModelParams, PhasePoly
from .scalars import (
    I,
    ParamPoly,
    PoleAtPoint,
    RatFunc2,
    primitive_real_poly,
)
from .star import star_commutator


class RankDeficient(ArithmeticError):
    """The double-commutator map is singular at this point (exceptional point
    or incompatible gauge)."""


# ---------------------------------------------------------------------------
# 2x2 model


def model_hamiltonian(q: Sequence[float]) -> np.ndarray:
    z = q[0] + 1j * q[1]
    return np.array([[1.0, z], [z, -1.0]], dtype=complex)


def model_partials(q: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    d1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    d2 = np.array([[0.0, 1j], [1j, 0.0]], dtype=complex)
    return d1, d2


def general_connection(
    q: Sequence[float], w1: complex = 0.5, y1: complex = 0.0, y2: complex = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """The two-parameter family of solutions of the double-commutator equation.

    The homogeneous part is arranged to give zero curvature.  Raises
    PoleAtPoint at z = 0 and 1 + z^2 = 0 where the written form is singular.
    """
    z = q[0] + 1j * q[1]
    den = 1.0 + z * z
    if abs(z) < 1e-13 or abs(den) < 1e-13:
        raise PoleAtPoint(f"general connection form is singular at q = {tuple(q)}")
    a1 = np.array(
        [
            [2.0 * w1 / z - 1.0 / (z * den) + y1, w1 - 1.0 / den],
            [w1, y1],
        ],
        dtype=complex,
    )
    a2 = np.array(
        [
            [2j * w1 / z - 1j / (z * den) + y2, 1j * w1 - 1j / den],
            [1j * w1, y2],
        ],
        dtype=complex,
    )
    return a1, a2


def gauge_fixed_connection(q: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """w1 = 1/2, y1 = y2 = 0; regular at the origin, A1 = -i A2."""
    z = q[0] + 1j * q[1]
    den = 1.0 + z * z
    if abs(den) < 1e-13:
        raise PoleAtPoint(f"exceptional point at q = {tuple(q)}")
    a1 = np.array([[z / den, 0.5 - 1.0 / den], [0.5, 0.0]], dtype=complex)
    return a1, 1j * a1


def verify_connection_matrix(
    h: np.ndarray,
    dh: Sequence[np.ndarray],
    a: Sequence[np.ndarray],
) -> float:
    """Max-norm residual of [dH_i, H] = [[A_i, H], H] over the components."""
    worst = 0.0
    for dhi, ai in zip(dh, a):
        lhs = _comm(dhi, h)
        rhs = _comm(_comm(ai, h), h)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def solve_connection_2x2(
    q: Sequence[float], w1: complex = 0.5, rank_tol: float = 1e-8
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve [[A_i, H], H] = [dH_i, H] with the gauge A_i[1][1] = 0 and
    A_i[1][0] = w1 * kappa_i (kappa = 1, i), unique away from exceptional points.
    """
    h = model_hamiltonian(q)
    dh = model_partials(q)
    m = np.zeros((4, 4), dtype=complex)
    for idx in range(4):
        basis = np.zeros(4, dtype=complex)
        basis[idx] = 1.0
        m[:, idx] = _comm(_comm(basis.reshape(2, 2), h), h).reshape(4)
    gauge = np.zeros((2, 4), dtype=complex)
    gauge[0, 3] = 1.0  # entry (1,1)
    gauge[1, 2] = 1.0  # entry (1,0)
    out = []
    for i, kappa in enumerate((1.0, 1j)):
        rhs = np.concatenate([_comm(dh[i], h).reshape(4), [0.0, w1 * kappa]])
        full = np.vstack([m, gauge])
        sol, _, rank, svals = np.linalg.lstsq(full, rhs, rcond=None)
        if rank < 4 or svals[-1] < rank_tol * svals[0]:
            raise RankDeficient(f"connection system singular at q = {tuple(q)}")
        if float(np.max(np.abs(full @ sol - rhs))) > 1e-8:
            raise RankDeficient(f"gauge incompatible at q = {tuple(q)}")
        out.append(sol.reshape(2, 2))
    return out[0], out[1]


ConnectionField = Callable[[Sequence[float]], Tuple[np.ndarray, np.ndarray]]


def field_partials(
    field: ConnectionField, q: Sequence[float], step: float = 1e-5
) -> List[List[np.ndarray]]:
    """d[i][j] = dA_i/dq_j by central differences at the given step."""
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            qp = list(q)
            qm = list(q)
            qp[j] += step
            qm[j] -= step
            row.append((field(qp)[i] - field(qm)[i]) / (2.0 * step))
        out.append(row)
    return out


def curvature_matrix(
    a1: np.ndarray, a2: np.ndarray, da1_dq2: np.ndarray, da2_dq1: np.ndarray
) -> np.ndarray:
    """F_12 = dA1/dq2 - dA2/dq1 + [A1, A2]."""
    return da1_dq2 - da2_dq1 + _comm(a1, a2)


def curvature_of_field(
    field: ConnectionField, q: Sequence[float], step: float = 1e-5
) -> np.ndarray:
    a1, a2 = field(q)
    d = field_partials(field, q, step)
    return curvature_matrix(a1, a2, d[0][1], d[1][0])


def gauge_transform_field(
    field: ConnectionField,
    s_func: Callable[[Sequence[float]], np.ndarray],
    lam_func: Callable[[Sequence[float]], np.ndarray],
    dlam_func: Callable[[Sequence[float], int], np.ndarray],
) -> ConnectionField:
    """A_i -> A_i + S (dLambda/dq_i) Lambda^{-1} S^{-1} for diagonal Lambda."""

    def transformed(q):
        a1, a2 = field(q)
        s = s_func(q)
        s_inv = np.linalg.inv(s)
        lam_inv = np.linalg.inv(lam_func(q))
        b1 = s @ dlam_func(q, 0) @ lam_inv @ s_inv
        b2 = s @ dlam_func(q, 1) @ lam_inv @ s_inv
        return a1 + b1, a2 + b2

    return transformed


def plaquette_transport(
    field: ConnectionField, q: Sequence[float], dq: float, step: float = 1e-5
) -> np.ndarray:
    """Compose the four second-order transport factors around a square plaquette.

    All connection values and derivatives are taken at the base corner; the
    product equals 1 + F_12 dq^2 up to O(dq^3).
    """
    a1, a2 = field(q)
    d = field_partials(field, q, step)
    one = np.eye(2, dtype=complex)
    f1 = one + a2 * dq + 0.5 * (d[1][1] + a2 @ a2) * dq**2
    f2 = one + a1 * dq + d[0][1] * dq**2 + 0.5 * (d[0][0] + a1 @ a1) * dq**2
    f3 = one - a2 * dq - d[1][0] * dq**2 + 0.5 * (a2 @ a2 - d[1][1]) * dq**2
    f4 = one - a1 * dq + 0.5 * (a1 @ a1 - d[0][0]) * dq**2
    return f4 @ f3 @ f2 @ f1


def plaquette_defect(field: ConnectionField, q: Sequence[float], dq: float) -> float:
    """Norm of transport - (1 + F dq^2); third order small in dq."""
    transport = plaquette_transport(field, q, dq)
    expected = np.eye(2, dtype=complex) + curvature_of_field(field, q) * dq**2
    return float(np.max(np.abs(transport - expected)))


# ---------------------------------------------------------------------------
# exceptional-point holonomy


AZIMUTHAL_LIMIT = np.array([[0.5j, -0.5], [0.0, 0.0]], dtype=complex)


def matrix_exp_taylor(m: np.ndarray, tol: float = 1e-30) -> np.ndarray:
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    k = 0
    while True:
        k += 1
        term = term @ m / k
        out = out + term
        if float(np.max(np.abs(term))) < tol or k > 200:
            return out


def holonomy_exceptional() -> np.ndarray:
    """Monodromy F = exp(2 pi A_phi) for one loop around the point (0, 1)."""
    return matrix_exp_taylor(2.0 * np.pi * AZIMUTHAL_LIMIT)


def holonomy_product_form(n: int) -> np.ndarray:
    """(1 + 2 pi A_phi / n)^n; converges to the exact monodromy as n grows."""
    step = np.eye(2, dtype=complex) + (2.0 * np.pi / n) * AZIMUTHAL_LIMIT
    return np.linalg.matrix_power(step, n)


def coalescing_eigenvectors(w: complex) -> Tuple[np.ndarray, np.ndarray]:
    """Leading-order eigenvectors near the exceptional point, w = r e^{i phi}.

    u_pm = (-i +- i sqrt(2 w), 1); the second component is 1 (the pair
    coalesces to (-i, 1), the null vector of the nilpotent Hamiltonian at the
    exceptional point).  The monodromy swaps them: F u_pm = u_mp.
    """
    root = np.sqrt(2.0 * w)
    up = np.array([-1j + 1j * root, 1.0], dtype=complex)
    um = np.array([-1j - 1j * root, 1.0], dtype=complex)
    return up, um


# ---------------------------------------------------------------------------
# Moyal-level connection for H = p^2 + q1 x^2 + i q2 x p


class MoyalConnection:
    """A_i = (s_i xp + t_i x^2) / hbar with exact RatFunc2 coefficients.

    The p^2 coefficients are gauged to zero.  All four coefficients share the
    denominator whose zero set is the singular locus.
    """

    __slots__ = ("s1", "t1", "s2", "t2")

    def __init__(self, s1: RatFunc2, t1: RatFunc2, s2: RatFunc2, t2: RatFunc2):
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "s2", s2)
        object.__setattr__(self, "t2", t2)

    def __setattr__(self, name, value):
        raise AttributeError("MoyalConnection is immutable")

    def a1(self) -> PhasePoly:
        return PhasePoly({(1, 1, -1): self.s1, (2, 0, -1): self.t1})

    def a2(self) -> PhasePoly:
        return PhasePoly({(1, 1, -1): self.s2, (2, 0, -1): self.t2})

    def components(self) -> Tuple[PhasePoly, PhasePoly]:
        return self.a1(), self.a2()

    def to_json(self) -> dict:
        return {
            "a1": {"xp": self.s1.to_json(), "xx": self.t1.to_json()},
            "a2": {"xp": self.s2.to_json(), "xx": self.t2.to_json()},
        }


def oscillator_hamiltonian() -> PhasePoly:
    """H = p^2 + q1 x^2 + i q2 x p over RatFunc2 coefficients."""
    q1, q2 = RatFunc2.generators()
    i = RatFunc2(I)
    return PhasePoly({(0, 2, 0): RatFunc2(1), (2, 0, 0): q1, (1, 1, 0): i * q2})


def oscillator_parameter_partials() -> Tuple[PhasePoly, PhasePoly]:
    """dH/dq1 = x^2, dH/dq2 = i x p."""
    one = RatFunc2(1)
    i = RatFunc2(I)
    return PhasePoly({(2, 0, 0): one}), PhasePoly({(1, 1, 0): i})


def _double_bracket(a: PhasePoly, h: PhasePoly) -> PhasePoly:
    return star_commutator(star_commutator(a, h), h)


def _solve_two_unknowns_exact(rows: List[Tuple[RatFunc2, RatFunc2, RatFunc2]]):
    """Exact Gaussian elimination for a (possibly overdetermined) 2-unknown
    system over the rational-function field; verifies full consistency."""
    pivot1 = next((r for r in rows if not r[0].is_zero), None)
    if pivot1 is None:
        raise RankDeficient("no equation determines the first unknown")
    c1, c2, rhs = pivot1
    reduced = []
    for row in rows:
        if row is pivot1:
            continue
        d1, d2, dr = row
        reduced.append((d2 - d1 * c2 / c1, dr - d1 * rhs / c1))
    pivot2 = next((r for r in reduced if not r[0].is_zero), None)
    if pivot2 is None:
        raise RankDeficient("no equation determines the second unknown")
    t = pivot2[1] / pivot2[0]
    s = (rhs - c2 * t) / c1
    for d2, dr in reduced:
        if not (d2 * t - dr).is_zero:
            raise RankDeficient("inconsistent connection system")
    return s, t


def moyal_connection_solve() -> MoyalConnection:
    """Exact connection for the oscillator model in the no-p^2 gauge.

    Matches phase-space monomial coefficients of
    [dH/dq_i, H]_star = [[A_i, H]_star, H]_star with A_i = (s_i xp + t_i x^2)/hbar
    and solves the resulting linear system over RatFunc2.
    """
    h = oscillator_hamiltonian()
    dh1, dh2 = oscillator_parameter_partials()
    one = RatFunc2(1)
    basis_s = PhasePoly({(1, 1, -1): one})
    basis_t = PhasePoly({(2, 0, -1): one})
    resp_s = _double_bracket(basis_s, h)
    resp_t = _double_bracket(basis_t, h)
    out = []
    for dh in (dh1, dh2):
        rhs = star_commutator(dh, h)
        keys = set(resp_s.terms) | set(resp_t.terms) | set(rhs.terms)
        zero = RatFunc2(0)
        rows = [
            (resp_s.terms.get(k, zero), resp_t.terms.get(k, zero), rhs.terms.get(k, zero))
            for k in sorted(keys)
        ]
        out.append(_solve_two_unknowns_exact(rows))
    (s1, t1), (s2, t2) = out
    return MoyalConnection(s1, t1, s2, t2)


def connection_residual(conn: MoyalConnection) -> Tuple[PhasePoly, PhasePoly]:
    """Exact residuals of the double-commutator equation; zero for a solution."""
    h = oscillator_hamiltonian()
    dh1, dh2 = oscillator_parameter_partials()
    a1, a2 = conn.components()
    return (
        _double_bracket(a1, h) - star_commutator(dh1, h),
        _double_bracket(a2, h) - star_commutator(dh2, h),
    )


def moyal_curvature(conn: MoyalConnection) -> PhasePoly:
    """F_12 = dA1/dq2 - dA2/dq1 + [A1, A2]_star, exactly."""
    a1, a2 = conn.components()
    d_a1 = a1.map_coeffs(lambda c: c.partial(2))
    d_a2 = a2.map_coeffs(lambda c: c.partial(1))
    return d_a1 - d_a2 + star_commutator(a1, a2)


def singular_locus(conn: MoyalConnection) -> ParamPoly:
    """The reduced common denominator of the connection coefficients."""
    dens = []
    for coeff in (conn.s1, conn.t1, conn.s2, conn.t2):
        if not coeff.is_zero:
            dens.append(coeff.den)
    if not dens:
        return ParamPoly.constant(RatFunc2.PARAMS, 1)
    locus = dens[0]
    for den in dens[1:]:
        if den != locus:
            locus = locus * den
    return primitive_real_poly(locus)


def oscillator_parameters(omega, alpha, beta) -> Tuple[Fraction, Fraction]:
    """(q1, q2) = (b/a, c/a) for the (a, b, c) of `ModelParams.from_oscillator`."""
    params = ModelParams.from_oscillator(*(Fraction(v) for v in (omega, alpha, beta)))
    if params.a.is_zero:
        raise ZeroDivisionError("omega - alpha - beta = 0: q-parameters undefined")
    return (params.b / params.a).re, (params.c / params.a).re


def locus_value(q1, q2) -> Fraction:
    q1, q2 = Fraction(q1), Fraction(q2)
    return 4 * q1 + q2 * q2


def locus_grid(q1s: Sequence[Fraction], q2s: Sequence[Fraction]):
    """4 q1 + q2^2 on the grid q1s x q2s, one row per q1, as integer numerators
    over one denominator l1 l2^2, where l1 and l2 are the lcms of each range's
    denominators: 4 q1 + q2^2 = (4 l2^2 (l1 q1) + l1 (l2 q2)^2) / (l1 l2^2)."""
    l1, l2 = (lcm(*(q.denominator for q in qs)) for qs in (q1s, q2s))
    lefts = [4 * l2 * l2 * (q.numerator * (l1 // q.denominator)) for q in q1s]
    rights = [l1 * (q.numerator * (l2 // q.denominator)) ** 2 for q in q2s]
    return [[left + right for right in rights] for left in lefts], l1 * l2 * l2


def locus_distance_from_origin(omega) -> float:
    """Distance in the (alpha, beta) plane from the origin to the singular
    curve alpha*beta = omega^2/4; attained at alpha = beta = omega/2."""
    return abs(float(omega)) / sqrt(2.0)
