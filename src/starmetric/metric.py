"""Metric-operator machinery: the exchange equation H * Theta = Theta * H_dagger
as residuals, its finite-order PDE form, perturbative and Gaussian solutions,
and hermiticity/positivity certification.  Nothing here reads or writes
JSON; `modelio` is the one reader of model files.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .phasepoly import CouplingSeries, PhasePoly
from .scalars import Frozen, GaussianRational, I, ONE, ParamPoly, _reduced, accumulate
from .star import (
    BadConstantTerm,
    ExpQuadForm,
    _gathered,
    _joined,
    _numerators,
    _pair_sums,
    _poly,
    apply_slots,
    dagger,
    dagger_series,
    is_hermitian,
    one_sided_slots,
    power_sum,
    star_difference,
    star_log,
    star_series,
    star_series_difference,
    x0_hermitian,
)

ThetaLike = Union[PhasePoly, CouplingSeries, ExpQuadForm]


class DegenerateParams(ValueError):
    """a == b: the closed-form expressions divide by a - b."""


class UnsolvableOrder(ArithmeticError):
    """The triangular system for some x power is inconsistent."""


class HamiltonianSpec(Frozen):
    """A Hamiltonian phase-space function, optionally split as H0 + g*V."""

    __slots__ = ("h0", "coupling_name", "v")

    def __init__(self, h0: PhasePoly, coupling: Optional[Tuple[str, PhasePoly]] = None):
        name, v = (None, None) if coupling is None else coupling
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "coupling_name", name)
        object.__setattr__(self, "v", v)

    @property
    def has_coupling(self) -> bool:
        return self.coupling_name is not None

    def symbolic_total(self) -> PhasePoly:
        """The full Hamiltonian; a coupling becomes a symbolic real parameter,
        appended to the parameters of ParamPoly coefficients."""
        if not self.has_coupling:
            return self.h0
        g = self.coupling_name

        def lift(c, power):
            if isinstance(c, ParamPoly):
                return ParamPoly(c.params + (g,), ((k + (power,), v) for k, v in c.terms.items()))
            return ParamPoly((g,), {(power,): c})

        return self.h0.map_coeffs(lambda c: lift(c, 0)) + self.v.map_coeffs(lambda c: lift(c, 1))

    def as_exact_series(self, coupling: str, order: int) -> CouplingSeries:
        """The Hamiltonian as an exact series: [H0, V, 0, ...].

        This is not truncation padding: the Hamiltonian is exactly polynomial
        in its coupling, so higher coefficients are genuinely zero.  At order
        0 the truncation drops V.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs = [self.h0] + [PhasePoly.zero()] * order
        if self.has_coupling:
            if coupling != self.coupling_name:
                raise ValueError(
                    f"model coupling is {self.coupling_name!r}, requested {coupling!r}"
                )
            if order >= 1:
                coeffs[1] = self.v
        return CouplingSeries(coupling, coeffs)

    def __repr__(self):
        if self.has_coupling:
            return f"HamiltonianSpec({self.h0!r} + {self.coupling_name}*({self.v!r}))"
        return f"HamiltonianSpec({self.h0!r})"


# ---------------------------------------------------------------------------
# residuals


def metric_residual(spec: HamiltonianSpec, theta: ThetaLike) -> ThetaLike:
    """H * Theta - Theta * dagger(H); identically zero certifies Theta.

    The return value has the same kind as theta.  For a series, "zero" means
    zero through the truncation order.  Both sides of a series or PhasePoly
    residual are summed in one pass, so the terms that cancel are never built.
    """
    if isinstance(theta, CouplingSeries):
        h = spec.as_exact_series(theta.coupling, theta.order)
        return star_series_difference(h, theta, theta, dagger_series(h))
    return observable_residual(spec.symbolic_total(), theta)


def observable_residual(a: PhasePoly, theta: ThetaLike) -> ThetaLike:
    """A * Theta - Theta * dagger(A) for an additional observable A, of the
    kind of theta."""
    if isinstance(theta, PhasePoly):
        return star_difference(a, theta, theta, dagger(a))
    if isinstance(theta, ExpQuadForm):
        return PDEOperator(one_sided_slots(a, dagger(a))).apply(theta)
    if isinstance(theta, CouplingSeries):
        s = CouplingSeries.constant(theta.coupling, a, theta.order)
        return star_series_difference(s, theta, theta, dagger_series(s))
    raise TypeError(f"unsupported metric candidate {theta!r}")


# ---------------------------------------------------------------------------
# PDE extraction


class PDEOperator(Frozen):
    """Linear differential operator L = sum coeff_ij(x, p, hbar) dx^i dp^j.

    Built from `star.one_sided_slots(H, dagger(H))`, ``apply`` is the metric
    residual exactly: L(Theta) = H * Theta - Theta * dagger(H) for every
    Theta, a PhasePoly or an ExpQuadForm.
    ``normalized`` rescales by -1 when the canonical leading coefficient is
    negative, fixing the overall sign freedom of the homogeneous equation
    L(Theta) = 0 for display and golden comparison.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        """``coeffs`` maps (i, j) to the PhasePoly of dx^i dp^j, or lists such pairs."""
        pairs = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        object.__setattr__(self, "coeffs", accumulate(pairs))

    def apply(self, theta):
        """L(Theta) for a PhasePoly Theta; for an ExpQuadForm P e^Q, the
        ExpQuadForm whose prefactor is e^-Q L(P e^Q)."""
        if isinstance(theta, ExpQuadForm):
            prefactor = apply_slots(self.coeffs.items(), theta.prefactor, theta.exponent)
            return ExpQuadForm(prefactor, theta.exponent)
        return apply_slots(self.coeffs.items(), theta, PhasePoly.zero())

    def canonical_items(self):
        return sorted(self.coeffs.items())

    def normalized(self) -> "PDEOperator":
        if not self.coeffs:
            return self
        key = min(self.coeffs)
        poly = self.coeffs[key]
        lead = poly.terms[min(poly.terms)]
        if lead.sign_is_negative():
            return PDEOperator({k: -v for k, v in self.coeffs.items()})
        return self

    def __eq__(self, other):
        if not isinstance(other, PDEOperator):
            return NotImplemented
        return self.coeffs == other.coeffs

    def subs_hbar(self, value) -> "PDEOperator":
        return PDEOperator({k: v.subs_hbar(value) for k, v in self.coeffs.items()})

    def to_json(self) -> list:
        return [
            {"dx": i, "dp": j, "coeff": c.to_json()} for (i, j), c in self.canonical_items()
        ]

    def __repr__(self):
        bits = [f"({c!r})*dx^{i}*dp^{j}" for (i, j), c in self.canonical_items()]
        return " + ".join(bits) if bits else "0"


def pde_operator(spec: HamiltonianSpec) -> PDEOperator:
    """L with L(Theta) = H * Theta - Theta * dagger(H) for every Theta: the
    `star.one_sided_slots` of (H, dagger(H)), the operator whose ``apply`` is
    the residual of a Gaussian candidate.

    Both star sums truncate on the polynomial Hamiltonian:
    H * Theta contributes (i hbar)^k/k! dx^k H at slot (0, k) and
    Theta * dagger(H) contributes -(i hbar)^k/k! dp^k dagger(H) at slot
    (k, 0).  The second sum needs dagger(H) polynomial in p; negative p
    powers raise NonTerminating.
    """
    h = spec.symbolic_total()
    return PDEOperator(one_sided_slots(h, dagger(h)))


# ---------------------------------------------------------------------------
# Gaussian family for the quadratic model


def quadratic_hamiltonian(a, b, c) -> HamiltonianSpec:
    """H = a p^2 + b x^2 + i c p x with exact (possibly symbolic) a, b, c."""
    h = (
        PhasePoly.monomial(a, 0, 2, 0)
        + PhasePoly.monomial(b, 2, 0, 0)
        + PhasePoly.monomial(c, 1, 1, 0).scaled(I)
    )
    return HamiltonianSpec(h)


def gaussian_exponent(r, s, t) -> PhasePoly:
    """Q = r p^2 + s p x + t x^2 from hbar-Laurent scalar PhasePolys."""
    r, s, t = (_as_scalar_poly(v) for v in (r, s, t))
    return r * PhasePoly.p(2) + s * PhasePoly.x() * PhasePoly.p() + t * PhasePoly.x(2)


def _as_scalar_poly(v) -> PhasePoly:
    if isinstance(v, PhasePoly):
        if any(k[0] or k[1] for k in v.terms):
            raise ValueError("exponent coefficients must be hbar-Laurent scalars")
        return v
    return PhasePoly.const(v)


def gaussian_branch_identities(a, b, c, r, s, t) -> Tuple[PhasePoly, PhasePoly, PhasePoly]:
    """The polynomial certificates for family membership, avoiding square roots.

    With u = 4 b hbar r + c and v = 4 a hbar t - c and
    D = c^2 - 4 a b hbar s (2i - hbar s), membership is equivalent to
    u^2 - D = 0, v^2 - D = 0 and u - v = 0.  (The last is the sign linking:
    both closed-form branches take the same square root.)
    """
    hbar = PhasePoly.hbar()
    r, s, t = (_as_scalar_poly(v) for v in (r, s, t))
    a, b, c = (PhasePoly.const(v) for v in (a, b, c))
    u = hbar * r * b * 4 + c
    v = hbar * t * a * 4 - c
    d = c * c - a * b * hbar * s * (PhasePoly.const(2 * I) - hbar * s) * 4
    return (u * u - d, v * v - d, u - v)


def expand_gaussian_in_coupling(a, b, order: int) -> CouplingSeries:
    """Taylor series in the coupling c of the number-operator-fixed Gaussian metric.

    Branch data: r = t = c / (2 hbar (a - b)) and s the root of the family
    constraint with the correct c -> 0 limit, expanded through the binomial
    series of sqrt(1 - c^2/(a-b)^2); no algebraic numbers are materialized.
    The exponential is pointwise: the series represents the metric function
    itself, not a star exponential.  E = exp(q) with q_0 = 0 follows from
    E' = q' E as n E_n = sum_{k=1..n} k q_k E_{n-k} (Knuth, TAOCP vol. 2,
    4.7).
    """
    a = GaussianRational.coerce(a)
    b = GaussianRational.coerce(b)
    if not (a.is_real and b.is_real):
        raise ValueError("a and b must be real rationals")
    if a == b:
        raise DegenerateParams("a == b")
    if order < 0:
        raise ValueError("order must be >= 0")
    d = a - b
    zero = PhasePoly.zero()
    # r(c) = t(c): linear in c, coefficient 1/(2 hbar d)
    rho = [zero] * (order + 1)
    if order >= 1:
        rho[1] = PhasePoly.monomial(ONE / (d * 2), 0, 0, -1)
    # s(c) = (i/hbar) (1 - sqrt(1 - c^2/d^2)): even orders >= 2, with
    # sqrt(1-u) = sum_k C(1/2, k) (-u)^k and u = c^2/d^2
    s = [zero] * (order + 1)
    c_half = Fraction(1)
    dpow = GaussianRational.coerce(1)
    for k in range(1, order // 2 + 1):
        c_half = c_half * Fraction(3 - 2 * k, 2 * k)
        dpow = dpow * d * d
        delta = c_half * Fraction((-1) ** (k + 1))
        s[2 * k] = PhasePoly.monomial(I * delta / dpow, 0, 0, -1)
    n_poly = PhasePoly.p(2) + PhasePoly.x(2)
    xp = PhasePoly.x() * PhasePoly.p()
    dq = [(rho[k] * n_poly + s[k] * xp).scaled(k) for k in range(order + 1)]
    e = [PhasePoly.one()]
    for n in range(1, order + 1):
        terms = (PhasePoly._product_terms(dq[k], e[n - k]) for k in range(1, n + 1))
        e.append(PhasePoly._of(chain.from_iterable(terms)).scaled(Fraction(1, n)))
    return CouplingSeries("c", e)


# ---------------------------------------------------------------------------
# perturbative solver for H = p^2 + g V(x)


def solve_perturbative(
    h0: PhasePoly,
    v: PhasePoly,
    order: int,
    coupling: str = "g",
    integration_functions: Optional[Dict[int, PhasePoly]] = None,
) -> CouplingSeries:
    """Series metric for H = p^2 + g V(x).

    Order n is the exchange equation
        Theta_n * p^2 - p^2 * Theta_n = V * Theta_{n-1} - Theta_{n-1} * conj(V),
    that is 2 i hbar p dTheta_n/dx - hbar^2 d^2Theta_n/dx^2 on the left.
    Its right side is summed in one Moyal pass, the pointwise product
    Theta_{n-1} conj(V) = Theta_{n-1} * conj(V) (V has no p) entering with
    negated numerators; `_exchange_solution` solves its sums one parameter
    monomial and one grading chain at a time, without building a PhasePoly.
    The solution is checked by the order-n metric residual itself: the left
    side is summed with the Moyal kernel from k = 1 (its k = 0 terms cancel)
    and compared with the right side exactly (`_same_sums`); a mismatch
    raises UnsolvableOrder.  So every returned order has H * Theta - Theta *
    H^dagger exactly zero, and callers need not recompute the residual.  The
    normalization is 1, and the integration function (a free function of p)
    at order n is zero unless integration_functions[n], an x-free PhasePoly
    under an int key 1 <= n <= order, supplies one; any other raises ValueError.
    So does an order that is not an int (a bool included) or is negative.
    """
    if h0 != PhasePoly.p(2):
        raise ValueError("the perturbative solver requires H0 = p^2 exactly")
    if v.depends_on_p():
        raise ValueError("V must be a polynomial in x (and hbar) only")
    if not isinstance(order, int) or isinstance(order, bool):
        raise ValueError(f"order must be an int, not {order!r}")
    if order < 0:
        raise ValueError("order must be >= 0")
    integration_functions = integration_functions or {}
    for n, func in integration_functions.items():
        if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= order:
            raise ValueError(f"integration function at order {n!r} is outside 1..{order}")
        if not isinstance(func, PhasePoly) or func.depends_on_x():
            raise ValueError(f"integration function at order {n} is not an x-free PhasePoly")
    nh0, nv, nv_conj = _numerators(h0), _numerators(v), _numerators(v.conjugate())
    thetas: List[PhasePoly] = [PhasePoly.one()]
    nprev = _numerators(thetas[0])  # the numerators of each order serve the next
    for n in range(1, order + 1):
        rhs = _pair_sums([(nv, nprev, 1), (nprev, nv_conj, -1)])
        theta_n = _exchange_solution(*rhs, integration_functions.get(n, PhasePoly.zero()))
        nprev = _numerators(theta_n)
        if not _same_sums(_pair_sums([(nprev, nh0, 1), (nh0, nprev, -1)], k0=False), rhs):
            raise UnsolvableOrder(f"triangular system inconsistent at order {n}")
        thetas.append(theta_n)
    return CouplingSeries(coupling, thetas)


def _same_sums(a, b) -> bool:
    """Whether the `star._pair_sums` results a and b are the same terms:
    integer sums cross-multiplied by the two denominators, one parameter
    monomial at a time, and PhasePolys when a denominator is None, since ring
    parts (re, im) are not canonical, or when the parameters differ."""
    (ga, da, pa), (gb, db, pb) = a, b
    if da is None or db is None or pa != pb:
        return PhasePoly._of(_poly(*a)) == PhasePoly._of(_poly(*b))
    zero = (0, 0)
    for e in ga.keys() | gb.keys():
        sa, sb = ga.get(e, {}), gb.get(e, {})
        for key in sa.keys() | sb.keys():
            (ra, ma), (rb, mb) = sa.get(key, zero), sb.get(key, zero)
            if ra * db != rb * da or ma * db != mb * da:
                return False
    return True


def _exchange_solution(rhs, den, params, free: PhasePoly) -> PhasePoly:
    """Theta = free + T, T * p^2 - p^2 * T = rhs: the groups of a
    `star._pair_sums` result over den and params, each solved alone.  The left
    side keeps x - p - 2 and x + hbar-degree, so the nonzero rhs terms of a
    chain (A, B) = (x - p + 2, x + h) give T_X at (X, X - A, B - X) by
    T_X = -i (R_(X-1) + (X + 1) X T_(X+1)) / (2 X), from the top X down to 1,
    over a scale that restarts from each term's one `_reduced` (ring parts,
    den None, are divided by the product of the 2 X); zero terms are dropped."""
    solved = {}
    for e, parts in rhs.items():
        chains: dict = {}
        for (x, p, h), part in parts.items():
            if part[0] or part[1]:
                chains.setdefault((x - p + 2, x + h), {})[x] = (*part, den or 1)
        solved[e] = terms = []
        for (a, b), levels in chains.items():
            re, im, scale = 0, 0, 1  # T_(X+1) = (re + i im)/scale
            for x in range(max(levels) + 1, 0, -1):
                r, m, u = levels.get(x - 1, (0, 0, 1))  # R_(X-1) = (r + i m)/u
                w = (x + 1) * x * u
                re, im, scale = m * scale + im * w, -(r * scale + re * w), u * scale * 2 * x
                if den is None:
                    for key, c in _joined([((x, x - a, b - x), (re, im))], None):
                        terms.append((key, c * Fraction(1, scale)))
                elif re or im:
                    t = _reduced(re, im, scale)
                    terms.append(((x, x - a, b - x), t))
                    re, im, scale = t.a, t.b, t.d
    # the keys are distinct (solved terms have x >= 1, free ones x = 0) and
    # no coefficient is zero, so the terms are already in normal form
    return PhasePoly._of_terms(dict(chain(free.terms.items(), _gathered(solved, params))))


# ---------------------------------------------------------------------------
# certification


class CertReport(NamedTuple):
    """Outcome of hermiticity/positivity certification of a series metric.

    ``positive`` is the hermiticity of the star-logarithm, which for a
    series with constant term 1 always equals ``hermitian``; see
    `certify_metric`.
    """

    hermitian: bool
    positive: bool
    order: int

    def to_json(self) -> dict:
        return self._asdict()


def certify_metric(theta: CouplingSeries, solved: bool = False) -> CertReport:
    """Criterion-based hermiticity of the series and of its star-logarithm.

    The hermiticity criterion is linear, so a series is hermitian iff every
    coefficient is.  Positivity holds when the star-log coefficients are
    hermitian, and that is the same test: dagger is conjugate-linear and
    reverses star products, (A*B)^dagger = B^dagger * A^dagger (Zachos,
    Fairlie and Curtright, Quantum Mechanics in Phase Space, 2005), and the
    coefficients of star_log and star_exp are real.  So log_*(Theta) is
    hermitian exactly when Theta = exp_*(log_*(Theta)) is, order by order,
    and the log is never built.

    solved=True says that theta came from `solve_perturbative`: H0 = p^2 and
    the residual is exactly zero through the order.  Then the adjoint of
    H * Theta = Theta * H^dagger shows that D = Theta - Theta^dagger solves
    the same equation, whose order n reads [p^2, D_n]_* = -(V * D_{n-1} -
    D_{n-1} * V^dagger).  A function f of top x degree d >= 1 with x^d
    coefficient c has -2 i hbar d p c as the x^(d-1) part of [p^2, f]_*, so
    the kernel of ad_{p^2} is the x-free functions.  With D_0 = 0, by
    induction, D = 0 exactly when the x^0 part of every D_n is zero, and
    `x0_hermitian` tests that in one step per term.  Any other series takes
    the full `is_hermitian` test.
    """
    if theta.coeffs[0] != PhasePoly.one():
        raise BadConstantTerm("certification expects a series with constant term 1")
    test = x0_hermitian if solved else is_hermitian
    hermitian = all(test(c) for c in theta.coeffs)
    return CertReport(hermitian, hermitian, theta.order)


def solution_family_closure(
    spec: HamiltonianSpec,
    theta: CouplingSeries,
    f_coeffs: Sequence,
    g_coeffs: Sequence,
) -> CouplingSeries:
    """f(H) * Theta * g(dagger(H)) with star-polynomial f and g.

    Whenever Theta solves the metric equation to its order, so does the
    result (f(H) commutes with H under star, and likewise for g).
    """
    h = spec.as_exact_series(theta.coupling, theta.order)
    fh = power_sum(f_coeffs, h)
    ghd = power_sum(g_coeffs, dagger_series(h))
    return star_series(star_series(fh, theta), ghd)


def number_observable() -> PhasePoly:
    """N = (p^2 + x^2) / (2 hbar)."""
    half = Fraction(1, 2)
    return PhasePoly.monomial(half, 0, 2, -1) + PhasePoly.monomial(half, 2, 0, -1)


def log_linear_in_n_check(theta: CouplingSeries) -> bool:
    """True iff every star-log coefficient of theta has the shape
    alpha + beta (p^2 + x^2) with real hbar-Laurent alpha, beta."""
    for poly in star_log(theta).coeffs:
        for (xd, pd, hd), coeff in poly.terms.items():
            if (xd, pd) not in ((0, 0), (2, 0), (0, 2)) or not coeff.is_real:
                return False
            if poly.coeff(2, 0, hd) != poly.coeff(0, 2, hd):
                return False
    return True
