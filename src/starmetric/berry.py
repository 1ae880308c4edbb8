"""Berry connection and curvature, at two levels.

Matrix level: the 2x2 family H(q) = [[1, z], [z, -1]], z = q1 + i q2, with
its exceptional points at (0, +-1).  Computations here are double precision
with explicit tolerances; the interesting statements (residuals, vanishing
curvature, monodromy) are float checks.

Phase-space level: the quadratic oscillator H = p^2 + q1 x^2 + i q2 x p.
Here the connection is solved exactly and the curvature vanishes as a
polynomial identity, not just numerically.  H, its parameter partials and
the brackets of the solve have polynomial (`ParamPoly`) coefficients in
(q1, q2); only the two pivot divisions of the solve make `RatFunc2`
coefficients.  The residual and curvature checks clear the denominators
first: with D the product of the connection's distinct denominators they
test D times the residual and D^2 times the curvature, again over
`ParamPoly`.

numpy is imported inside the float functions, so the exact commands
(`berry-osc`, `scan-locus`) never load it.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod, sqrt
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Sequence, Tuple

from .phasepoly import PhasePoly
from .scalars import (
    I,
    ParamPoly,
    PoleAtPoint,
    RatFunc2,
    primitive_real_poly,
)
from .star import star_commutator

if TYPE_CHECKING:
    import numpy as np


class RankDeficient(ArithmeticError):
    """The double-commutator map is singular at this point (exceptional point
    or incompatible gauge)."""


# ---------------------------------------------------------------------------
# 2x2 model
#
# model_hamiltonian, gauge_fixed_connection, solve_connection_stack,
# solve_connection_2x2 and verify_connection_matrix take one point
# q = (q1, q2) or a stack of points of shape (..., 2), and return one value
# per point: a single point is a stack with no leading axes.  Stacks of 2x2
# matrices are multiplied entry by entry with broadcast arithmetic
# (`_mul2x2`), not with numpy's matmul, whose fixed cost per call is larger
# than the arithmetic on a stack of 2x2 matrices; the connection system is
# solved with one SVD per stack (`solve_connection_stack`).

# Largest stack of random points that trial_errors samples and solves at once.
TRIAL_BLOCK = 128
# where the connection system is singular, as trial_errors checks
EXCEPTIONAL_POINTS = ((0.0, 1.0), (0.0, -1.0))


def _z(q) -> np.ndarray:
    import numpy as np

    q = np.asarray(q, dtype=float)
    return q[..., 0] + 1j * q[..., 1]


def _first_point(q, bad: np.ndarray) -> Tuple[float, ...]:
    """The first point of the stack q where bad holds, as a tuple of floats."""
    import numpy as np

    points = np.asarray(q, dtype=float).reshape(-1, 2)
    return tuple(float(v) for v in points[int(np.argmax(bad.reshape(-1)))])


def _matrices(entries) -> np.ndarray:
    """Stack [[a, b], [c, d]] of broadcastable complex arrays into shape
    (..., 2, 2)."""
    import numpy as np

    out = np.empty(np.broadcast(*entries).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = entries
    return out


def model_hamiltonian(q) -> np.ndarray:
    z = _z(q)
    return _matrices((1.0 + 0j, z, z, -1.0 + 0j))


def model_partials() -> Tuple[np.ndarray, np.ndarray]:
    """dH/dq1 and dH/dq2, the same at every point."""
    import numpy as np

    d1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    d2 = np.array([[0.0, 1j], [1j, 0.0]], dtype=complex)
    return d1, d2


def sample_regular_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """count points of the square |q_i| <= 1.5 with |1 + z^2| >= 0.1, as a
    (count, 2) array.

    The same points as drawing one uniform pair at a time and dropping the
    pairs near the exceptional points: each block draws only as many pairs as
    are still missing, so the generator is left where that loop leaves it.
    """
    import numpy as np

    blocks = [np.empty((0, 2))]
    missing = count
    while missing > 0:
        draw = rng.uniform(-1.5, 1.5, size=(missing, 2))
        z = _z(draw)
        kept = draw[np.abs(1 + z * z) >= 0.1]
        blocks.append(kept)
        missing -= len(kept)
    return np.concatenate(blocks)


def gauge_fixed_connection(q) -> Tuple[np.ndarray, np.ndarray]:
    """w1 = 1/2, y1 = y2 = 0; regular at the origin, A1 = -i A2."""
    import numpy as np

    z = _z(q)
    den = 1.0 + z * z
    pole = np.abs(den) < 1e-13
    if pole.any():
        raise PoleAtPoint(f"exceptional point at q = {_first_point(q, pole)}")
    a1 = _matrices((z / den, 0.5 - 1.0 / den, 0.5 + 0j, 0j))
    return a1, 1j * a1


def verify_connection_matrix(
    h: np.ndarray,
    dh: Sequence[np.ndarray],
    a: Sequence[np.ndarray],
):
    """Max-norm residual of [dH_i, H] = [[A_i, H], H] over the components,
    one per point of the stack."""
    import numpy as np

    return np.max(
        [
            np.max(np.abs(_comm(dhi, h) - _comm(_comm(ai, h), h)), axis=(-2, -1))
            for dhi, ai in zip(dh, a)
        ],
        axis=0,
    )


def _mul2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 2x2 matrices, broadcasting their leading axes:
    c[..., i, j] = a[..., i, 0] b[..., 0, j] + a[..., i, 1] b[..., 1, j]."""
    return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _mul2x2(a, b) - _mul2x2(b, a)


# A[1][1] = 0 and A[1][0] = W1 * kappa: rows picking entries 3 and 2 of vec(A)
_GAUGE_ROWS = ((0, 0, 0, 1), (0, 0, 1, 0))
# the gauge value of A_1[1][0], as in gauge_fixed_connection
W1 = 0.5
# a system whose smallest singular value is below this share of its largest
# is singular
RANK_TOL = 1e-8


class ConnectionStack(NamedTuple):
    """The connection solved at a stack of points, and per point why its
    solve failed: `singular` where the system is singular, `incompatible`
    where it is regular but the gauge rows cannot hold.  The connection is
    finite but meaningless where either mask is set."""

    a1: np.ndarray
    a2: np.ndarray
    singular: np.ndarray
    incompatible: np.ndarray


def solve_connection_stack(q) -> ConnectionStack:
    """Solve [[A_i, H], H] = [dH_i, H] with the gauge A_i[1][1] = 0 and
    A_i[1][0] = W1 * kappa_i (kappa = 1, i) at every point of the stack q,
    unique away from exceptional points; it never raises.

    Each point's 6x4 system is solved by least squares, the whole stack
    through one SVD call shared by both components.  A point's system is
    singular when its smallest singular value fails numpy.linalg.lstsq's
    rank rule or is below RANK_TOL times its largest, and incompatible when
    it is not singular and its least-squares residual exceeds 1e-8.  Each
    point's values do not depend on the other points of the stack.
    """
    import numpy as np

    h = model_hamiltonian(q)
    stack = h.shape[:-2]
    # vec(E_k) = e_k: the columns of the double-commutator map
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    m = _comm(_comm(units, h[..., None, :, :]), h[..., None, :, :])
    full = np.concatenate(
        [np.swapaxes(m.reshape(stack + (4, 4)), -1, -2),
         np.broadcast_to(np.array(_GAUGE_ROWS, dtype=complex), stack + (2, 4))],
        axis=-2,
    )
    rhs = np.zeros(stack + (6, 2), dtype=complex)
    for i, (dhi, kappa) in enumerate(zip(model_partials(), (1.0, 1j))):
        rhs[..., :4, i] = _comm(dhi, h).reshape(stack + (4,))
        rhs[..., 5, i] = W1 * kappa
    u, s, vh = np.linalg.svd(full, full_matrices=False)
    top, low = s[..., 0], s[..., -1]
    singular = (low <= np.finfo(float).eps * 6 * top) | (low < RANK_TOL * top)
    # unit singular values keep the solve finite at the singular points
    s = np.where(singular[..., None], 1.0, s)
    sol = np.conj(np.swapaxes(vh, -1, -2)) @ (
        (np.conj(np.swapaxes(u, -1, -2)) @ rhs) / s[..., None]
    )
    incompatible = ~singular & (np.max(np.abs(full @ sol - rhs), axis=(-2, -1)) > 1e-8)
    return ConnectionStack(
        sol[..., 0].reshape(stack + (2, 2)), sol[..., 1].reshape(stack + (2, 2)),
        singular, incompatible,
    )


def require_solved(q, singular: np.ndarray, incompatible: np.ndarray) -> None:
    """Raise RankDeficient naming the first point of the stack q where
    `singular` or `incompatible` (the masks of `solve_connection_stack`)
    holds, and why; return if there is none."""
    bad = singular | incompatible
    if bad.any():
        what = "connection system singular" if singular[bad][0] else "gauge incompatible"
        raise RankDeficient(f"{what} at q = {_first_point(q, bad)}")


def solve_connection_2x2(q) -> Tuple[np.ndarray, np.ndarray]:
    """(A_1, A_2) of `solve_connection_stack` at one point or a stack of
    points q; RankDeficient (`require_solved`) names the first point whose
    system is singular or gauge incompatible."""
    a1, a2, singular, incompatible = solve_connection_stack(q)
    require_solved(q, singular, incompatible)
    return a1, a2


def trial_errors(rng: np.random.Generator, trials: int) -> Tuple[float, float, List[List[float]]]:
    """berry2x2's (max connection mismatch, max equation residual, rank-deficient
    probes) over `trials` points of `sample_regular_points`, drawn and solved in
    blocks of up to TRIAL_BLOCK, one `solve_connection_stack` call each.  The
    first block, empty for no trials, carries the EXCEPTIONAL_POINTS as probes.
    The mismatch is the max-norm distance from `gauge_fixed_connection`, the
    residual that of `verify_connection_matrix`, each 0.0 for no trials;
    RankDeficient (`require_solved`) names the first trial point that fails."""
    import numpy as np

    mismatches, residuals, rank_deficient = [], [], []
    probes = EXCEPTIONAL_POINTS
    for done in range(0, max(trials, 1), TRIAL_BLOCK):
        q = sample_regular_points(rng, min(TRIAL_BLOCK, trials - done))
        n = len(q)
        a1, a2, singular, incompatible = solve_connection_stack(
            np.concatenate([q, probes]) if probes else q
        )
        require_solved(q, singular[:n], incompatible[:n])
        failed = singular[n:] | incompatible[n:]
        rank_deficient += [list(p) for p, bad in zip(probes, failed) if bad]
        probes = ()
        if n:
            a, a_ref = (a1[:n], a2[:n]), gauge_fixed_connection(q)
            mismatches.append(max(float(np.max(np.abs(s - r))) for s, r in zip(a, a_ref)))
            h = model_hamiltonian(q)
            residuals.append(float(np.max(verify_connection_matrix(h, model_partials(), a))))
    return max(mismatches, default=0.0), max(residuals, default=0.0), rank_deficient


ConnectionField = Callable[[Sequence[float]], Tuple["np.ndarray", "np.ndarray"]]

# the step of the central differences in field_partials
STEP = 1e-5


def field_partials(field: ConnectionField, q: Sequence[float]) -> List[List[np.ndarray]]:
    """d[i][j] = dA_i/dq_j by central differences at STEP, from one field
    call at each of the four shifted points."""
    out = [[None, None], [None, None]]
    for j in range(2):
        qp = list(q)
        qm = list(q)
        qp[j] += STEP
        qm[j] -= STEP
        ap, am = field(qp), field(qm)
        for i in range(2):
            out[i][j] = (ap[i] - am[i]) / (2.0 * STEP)
    return out


def curvature_matrix(
    a1: np.ndarray, a2: np.ndarray, da1_dq2: np.ndarray, da2_dq1: np.ndarray
) -> np.ndarray:
    """F_12 = dA1/dq2 - dA2/dq1 + [A1, A2]."""
    return da1_dq2 - da2_dq1 + _comm(a1, a2)


def curvature_of_field(field: ConnectionField, q: Sequence[float]) -> np.ndarray:
    a1, a2 = field(q)
    d = field_partials(field, q)
    return curvature_matrix(a1, a2, d[0][1], d[1][0])


def plaquette_transport(field: ConnectionField, q: Sequence[float], dq: float) -> np.ndarray:
    """Compose the four second-order transport factors around a square plaquette.

    All connection values and derivatives are taken at the base corner; the
    product equals 1 + F_12 dq^2 up to O(dq^3).
    """
    import numpy as np

    a1, a2 = field(q)
    d = field_partials(field, q)
    one = np.eye(2, dtype=complex)
    f1 = one + a2 * dq + 0.5 * (d[1][1] + a2 @ a2) * dq**2
    f2 = one + a1 * dq + d[0][1] * dq**2 + 0.5 * (d[0][0] + a1 @ a1) * dq**2
    f3 = one - a2 * dq - d[1][0] * dq**2 + 0.5 * (a2 @ a2 - d[1][1]) * dq**2
    f4 = one - a1 * dq + 0.5 * (a1 @ a1 - d[0][0]) * dq**2
    return f4 @ f3 @ f2 @ f1


def plaquette_defect(field: ConnectionField, q: Sequence[float], dq: float) -> float:
    """Norm of transport - (1 + F dq^2); third order small in dq."""
    import numpy as np

    transport = plaquette_transport(field, q, dq)
    expected = np.eye(2, dtype=complex) + curvature_of_field(field, q) * dq**2
    return float(np.max(np.abs(transport - expected)))


# ---------------------------------------------------------------------------
# exceptional-point holonomy


# the 2x2 matrix A_phi of the loop around (0, 1), row by row
AZIMUTHAL_LIMIT = ((0.5j, -0.5), (0.0, 0.0))
PRODUCT_FORM_STEPS = 100000


def matrix_exp_taylor(m: np.ndarray) -> np.ndarray:
    """exp(m) by its Taylor series, up to the first term below 1e-30 or 200 terms."""
    import numpy as np

    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    k = 0
    while True:
        k += 1
        term = term @ m / k
        out = out + term
        if np.abs(term).max() < 1e-30 or k >= 200:
            return out


def holonomy_exceptional() -> np.ndarray:
    """Monodromy F = exp(2 pi A_phi) for one loop around the point (0, 1)."""
    import numpy as np

    return matrix_exp_taylor(2.0 * np.pi * np.array(AZIMUTHAL_LIMIT, dtype=complex))


def holonomy_product_form() -> np.ndarray:
    """(1 + 2 pi A_phi / n)^n for n = PRODUCT_FORM_STEPS; converges to the
    exact monodromy as n grows."""
    import numpy as np

    n = PRODUCT_FORM_STEPS
    step = np.eye(2, dtype=complex) + (2.0 * np.pi / n) * np.array(AZIMUTHAL_LIMIT, dtype=complex)
    return np.linalg.matrix_power(step, n)


def coalescing_eigenvectors(w: complex) -> Tuple[np.ndarray, np.ndarray]:
    """Leading-order eigenvectors near the exceptional point, w = r e^{i phi}.

    u_pm = (-i +- i sqrt(2 w), 1); the second component is 1 (the pair
    coalesces to (-i, 1), the null vector of the nilpotent Hamiltonian at the
    exceptional point).  The monodromy swaps them: F u_pm = u_mp.
    """
    import numpy as np

    root = np.sqrt(2.0 * w)
    up = np.array([-1j + 1j * root, 1.0], dtype=complex)
    um = np.array([-1j - 1j * root, 1.0], dtype=complex)
    return up, um


# ---------------------------------------------------------------------------
# Moyal-level connection for H = p^2 + q1 x^2 + i q2 x p


def _xp_xx(s, t) -> PhasePoly:
    """(s xp + t x^2) / hbar."""
    return PhasePoly({(1, 1, -1): s, (2, 0, -1): t})


class MoyalConnection(NamedTuple):
    """A_i = (s_i xp + t_i x^2) / hbar with exact RatFunc2 coefficients.

    The p^2 coefficients are gauged to zero.  All four coefficients share the
    denominator whose zero set is the singular locus.
    """

    s1: RatFunc2
    t1: RatFunc2
    s2: RatFunc2
    t2: RatFunc2

    def a1(self) -> PhasePoly:
        return _xp_xx(self.s1, self.t1)

    def a2(self) -> PhasePoly:
        return _xp_xx(self.s2, self.t2)

    def to_json(self) -> dict:
        return {
            "a1": {"xp": self.s1.to_json(), "xx": self.t1.to_json()},
            "a2": {"xp": self.s2.to_json(), "xx": self.t2.to_json()},
        }


def oscillator_hamiltonian() -> PhasePoly:
    """H = p^2 + q1 x^2 + i q2 x p over ParamPoly coefficients in (q1, q2)."""
    q1, q2 = ParamPoly.generators(*RatFunc2.PARAMS)
    return PhasePoly({(0, 2, 0): q1.const_like(1), (2, 0, 0): q1, (1, 1, 0): q2 * I})


def oscillator_parameter_partials() -> Tuple[PhasePoly, PhasePoly]:
    """dH/dq1 = x^2, dH/dq2 = i x p, over ParamPoly coefficients in (q1, q2)."""
    one = ParamPoly.constant(RatFunc2.PARAMS, 1)
    return PhasePoly({(2, 0, 0): one}), PhasePoly({(1, 1, 0): one * I})


def _double_bracket(a: PhasePoly, h: PhasePoly) -> PhasePoly:
    return star_commutator(star_commutator(a, h), h)


def _solve_two_unknowns_exact(rows: List[Tuple[ParamPoly, ParamPoly, ParamPoly]]):
    """s and t with d1 s + d2 t = dr for every row (d1, d2, dr) of a
    (possibly overdetermined) system over polynomials in (q1, q2).

    The first row (c1, c2, rhs) with c1 != 0 and the first row (d1, d2, dr)
    independent of it, det = c1 d2 - d1 c2 != 0, are the pivots.  s and t
    are solved from them by Cramer's rule, s = (rhs d2 - c2 dr) / det and
    t = (c1 dr - d1 rhs) / det.  Every row is then checked fraction-free, as
    d1 num_s den_t + d2 num_t den_s - dr den_s den_t = 0.
    """
    pivot1 = next((r for r in rows if not r[0].is_zero), None)
    if pivot1 is None:
        raise RankDeficient("no equation determines the first unknown")
    c1, c2, rhs = pivot1
    for d1, d2, dr in rows:
        det = c1 * d2 - d1 * c2
        if not det.is_zero:
            break
    else:
        raise RankDeficient("no equation determines the second unknown")
    s = RatFunc2(rhs * d2 - c2 * dr, det)
    t = RatFunc2(c1 * dr - d1 * rhs, det)
    for d1, d2, dr in rows:
        if not (d1 * s.num * t.den + (d2 * t.num - dr * t.den) * s.den).is_zero:
            raise RankDeficient("inconsistent connection system")
    return s, t


def moyal_connection_solve() -> MoyalConnection:
    """Exact connection for the oscillator model in the no-p^2 gauge.

    Matches phase-space monomial coefficients of
    [dH/dq_i, H]_star = [[A_i, H]_star, H]_star with A_i = (s_i xp + t_i x^2)/hbar.
    H, dH/dq_i and the basis xp/hbar, x^2/hbar have polynomial coefficients,
    so the brackets are star commutators over ParamPoly and every equation is
    a row of polynomials; only the two pivot rows are divided, over RatFunc2.
    """
    h = oscillator_hamiltonian()
    one = ParamPoly.constant(RatFunc2.PARAMS, 1)
    zero = ParamPoly(RatFunc2.PARAMS, {})
    resp_s = _double_bracket(_xp_xx(one, zero), h)
    resp_t = _double_bracket(_xp_xx(zero, one), h)
    out = []
    for dh in oscillator_parameter_partials():
        rhs = star_commutator(dh, h)
        keys = set(resp_s.terms) | set(resp_t.terms) | set(rhs.terms)
        rows = [
            (resp_s.terms.get(k, zero), resp_t.terms.get(k, zero), rhs.terms.get(k, zero))
            for k in sorted(keys)
        ]
        out.append(_solve_two_unknowns_exact(rows))
    (s1, t1), (s2, t2) = out
    return MoyalConnection(s1, t1, s2, t2)


def _common_denominator(conn: MoyalConnection) -> Tuple[ParamPoly, List[ParamPoly]]:
    """D, the product of the distinct denominators of conn's nonzero
    coefficients, each taken once, and the list of those denominators.
    D = 1 when every coefficient is zero."""
    dens: List[ParamPoly] = []
    for coeff in conn:
        if not coeff.is_zero and coeff.den not in dens:
            dens.append(coeff.den)
    return prod(dens, start=ParamPoly.constant(RatFunc2.PARAMS, 1)), dens


def _cleared(conn: MoyalConnection) -> Tuple[ParamPoly, PhasePoly, PhasePoly]:
    """(D, N1, N2) with D from `_common_denominator` and N_i = D A_i, whose
    coefficients are polynomials: a coefficient's numerator times the
    distinct denominators other than its own."""
    d, dens = _common_denominator(conn)

    def cleared(coeff: RatFunc2) -> ParamPoly:
        return prod((e for e in dens if e != coeff.den), start=coeff.num)

    n1, n2 = (_xp_xx(cleared(s), cleared(t)) for s, t in ((conn.s1, conn.t1), (conn.s2, conn.t2)))
    return d, n1, n2


def connection_residual(conn: MoyalConnection) -> Tuple[PhasePoly, PhasePoly]:
    """Residuals of the double-commutator equation with the denominator
    cleared: [[N_i, H]_star, H]_star - D [dH/dq_i, H]_star, which is D times
    [[A_i, H], H] - [dH/dq_i, H] (D and N_i as in `_cleared`).  They are
    computed over ParamPoly and vanish exactly when the connection solves the
    equation, since D != 0."""
    h = oscillator_hamiltonian()
    d, n1, n2 = _cleared(conn)
    return tuple(
        _double_bracket(n, h) - star_commutator(dh, h) * d
        for n, dh in zip((n1, n2), oscillator_parameter_partials())
    )


def moyal_curvature(conn: MoyalConnection) -> PhasePoly:
    """D^2 F_12 with F_12 = dA1/dq2 - dA2/dq1 + [A1, A2]_star, computed over
    ParamPoly from D and N_i = D A_i (see `_cleared`) as
    D (dN1/dq2 - dN2/dq1) - N1 dD/dq2 + N2 dD/dq1 + [N1, N2]_star.
    It vanishes exactly when F_12 does, since D != 0."""
    d, n1, n2 = _cleared(conn)

    def partial(a: PhasePoly, name: str) -> PhasePoly:
        return a.map_coeffs(lambda c: c.derivative(name))

    return (
        (partial(n1, "q2") - partial(n2, "q1")) * d
        - n1 * d.derivative("q2")
        + n2 * d.derivative("q1")
        + star_commutator(n1, n2)
    )


def singular_locus(conn: MoyalConnection) -> ParamPoly:
    """The product of the distinct denominators of the connection
    coefficients (`_common_denominator`), in primitive integer form.  It is
    not gcd-reduced: denominators D and q1 D give q1 D^2."""
    return primitive_real_poly(_common_denominator(conn)[0])


def oscillator_parameters(omega, alpha, beta) -> Tuple[Fraction, Fraction]:
    """(q1, q2) = (b/a, c/a) for the quadratic model a p^2 + b x^2 + i c x p of
    the oscillator constants, a = (omega - alpha - beta)/2,
    b = (omega + alpha + beta)/2 and c = alpha - beta:
    q1 = (omega + alpha + beta)/(omega - alpha - beta) and
    q2 = 2 (alpha - beta)/(omega - alpha - beta).  omega = alpha + beta raises
    ZeroDivisionError, and an infinite float the OverflowError of Fraction."""
    omega, alpha, beta = (Fraction(v) for v in (omega, alpha, beta))
    twice_a = omega - alpha - beta
    if twice_a == 0:
        raise ZeroDivisionError("omega - alpha - beta = 0: q-parameters undefined")
    return (omega + alpha + beta) / twice_a, 2 * (alpha - beta) / twice_a


def locus_value(q1, q2) -> Fraction:
    q1, q2 = Fraction(q1), Fraction(q2)
    return 4 * q1 + q2 * q2


def locus_grid(q1s: Sequence[int], den1: int, q2s: Sequence[int], den2: int):
    """4 q1 + q2^2 on the grid of q1 = n1 / den1 for n1 in q1s by q2 = n2 / den2
    for n2 in q2s, one row per q1, as integer numerators over one denominator:
    4 q1 + q2^2 = (4 den2^2 n1 + den1 n2^2) / (den1 den2^2)."""
    scale = 4 * den2 * den2
    rights = [den1 * n * n for n in q2s]
    return [[scale * n + right for right in rights] for n in q1s], den1 * den2 * den2


def locus_distance_from_origin(omega) -> float:
    """Distance in the (alpha, beta) plane from the origin to the singular
    curve alpha*beta = omega^2/4; attained at alpha = beta = omega/2."""
    return abs(float(omega)) / sqrt(2.0)
