"""The noncommutative star product on phase-space functions.

Convention (fixed once, here): derivatives in the star exponential act with
x on the LEFT operand and p on the RIGHT operand,

    A * B = sum_k (i*hbar)^k / k! * (d^k A / dx^k) (d^k B / dp^k),

so that x * p = x p + i hbar and x * p - p * x = +i hbar.  This matches the
operator ordering exp(i t p_hat) exp(i s x_hat) used to expand operators
into functions.  Every sign in this module hangs off this choice; do not
"fix" one occurrence in isolation.

The star product and the adjoint work monomial by monomial.  For
A = c1 x^x1 p^p1 hbar^h1 and B = c2 x^x2 p^p2 hbar^h2 the k-th term of the
sum is

    i^k C(x1, k) ff(p2, k) c1 c2  x^(x1+x2-k) p^(p1+p2-k) hbar^(h1+h2+k),

where ff(p2, k) = p2 (p2 - 1) ... (p2 - k + 1) is an integer for negative p2
too.  The weight w_k = C(x1, k) ff(p2, k) is an integer: w_0 = 1 and
w_{k+1} = w_k (x1 - k)(p2 - k)/(k + 1), an exact division.  The sum stops
after k = x1, or when w reaches 0 (0 <= p2 < k); it always stops because the
x degree is finite by the PhasePoly type invariant.  The adjoint and the
hermiticity test use the same +i sign:

    A_dagger = exp(+i hbar dx dp) conj(A)
    A hermitian  iff  A_dagger = A

and exp(+i hbar dx dp)(x^a f(p, hbar)) is the star product x^a * f, so
A_dagger is the Moyal sum of the term pairs (x^a, conj f_a), conjugated
part by part.  `is_hermitian` sums A_dagger - A in one pass.

One kernel, `_moyal_sums`, runs this loop for every coefficient ring.  It
takes pairs of term lists, multiplies each term pair in its own loop and
sums (re, im) parts per output monomial, c = re + i im; a factor i maps
(re, im) to (-im, re).  `_numerators` gives every operand one form,
A = sum_e q^e A_e: groups e of parts over one denominator, q the
parameters.  A `GaussianRational` operand is the one group (), and one whose
coefficients are all `ParamPoly` over one tuple q is split by monomial e.
The parts are then Gaussian integer numerators over the lcm of the d's,
summed as plain integers, and each output coefficient is built with one
gcd (Knuth, TAOCP vol. 2, 4.6.1, content and primitive part).  The real
parameters are spectators, d/dx and d/dp do not touch them: A * B = sum
q^(e1 + e2) A_e1 * B_e2, and the adjoint and hermiticity act on each A_e
alone.  Any other operand (`RatFunc2`, or `GaussianRational` and
`ParamPoly` coefficients in one) is the one group of ring parts (c, 0) over
no denominator, and so is a sum of products whose pairs do not share one q:
its term products are ring products (c1 c2, 0), added in the ring.  Only
`_numerators` (in), `_pair_sums` (the form of a sum) and `_poly` (out) tell
the forms apart.

Differences are summed in one pass.  `star_difference(a, b, c, d)`, A * B -
C * D, is one Moyal pass over the term pairs of both products, over the lcm
of the two denominator products, C's numerators negated: terms that cancel
stay integer sums of zero and are never built as coefficients.  A
commutator, pairs (A, B) and (B, A) of opposite sign, is summed from k = 1:
the k = 0 terms c1 c2 and c2 c1 of a term pair meet at one monomial and
cancel in any commutative ring (Zachos, Fairlie and Curtright, Quantum
Mechanics in Phase Space, 2005).  `star_commutator` and the solver's check
of [Theta_n, p^2] are such sums.  `star_series`, the Cauchy product of two
series, and `star_series_difference` share one loop: one Moyal pass per
output order n over all (j, n - j) pairs of nonzero coefficients of every
product, over one denominator: no PhasePoly, gcd or addition per pair.

One-sided sums, where only one operand is differentiated, use
`moyal_coefficients`: the factors (i hbar)^k / k! d^k A / dv^k for v = x or
p, built term by term as i^k C(n, k) c v^(n-k) hbar^k for a term c v^n.
`one_sided_slots(a, d)` lays them out as the operator L(Theta) = A * Theta -
Theta * D = sum c dx^i dp^j Theta, which `metric.PDEOperator` holds, and
`apply_slots` is its one derivative walker: on E = P e^Q it gives the
prefactor sum c (dx + Q_x)^i (dp + Q_p)^j P.  `star_poly_expquad` applies
A's own left slots (A * E) or right slots (E * A), and the metric residual
of a Gaussian applies the whole operator, so it is the PDE that
`metric.pde_operator` gives.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, factorial, lcm, perm
from operator import add

from .phasepoly import CouplingSeries, PhasePoly
from .scalars import Frozen, GaussianRational, I, ParamPoly, _reduced, check_keys


class BadConstantTerm(ValueError):
    """A series has the wrong constant term: star_log and certification need
    1, star_exp needs 0."""


class NonTerminating(ValueError):
    """The requested star expansion would not terminate."""


def moyal_coefficients(a: PhasePoly, var: str) -> list:
    """[(i hbar)^k / k! d^k a / dvar^k for k = 0, 1, ...] up to the last
    nonzero one, for var "x" or "p".  A negative power of var would make the
    list infinite and raises NonTerminating.

    A term c v^n contributes i^k C(n, k) c v^(n-k) hbar^k to the k-th entry.
    For a fixed k distinct terms land on distinct keys, so entry k is nonzero
    for every k up to the degree of a in var.
    """
    pos = ("x", "p").index(var)
    out = [[] for _ in range(max((key[pos] for key in a.terms), default=-1) + 1)]
    for key, c in a.terms.items():
        n = key[pos]
        if n < 0:
            raise NonTerminating(f"negative {var} powers")
        for k in range(n + 1):
            shifted = list(key)
            shifted[pos] -= k
            shifted[2] += k
            out[k].append((tuple(shifted), c * (I**k * comb(n, k)) if k else c))
    return [PhasePoly._of(terms) for terms in out]


@lru_cache(maxsize=1024)
def _weights(x1: int, p2: int) -> tuple:
    """The steps (k, s C(x1, k) ff(p2, k)) for k = 1, 2, ... up to k = x1 or
    the first zero weight, where i^k = s i^(k mod 2): s = (-1)^(k // 2) is
    the sign i^k leaves once its odd i is taken out.

    w_{k+1} = w_k (x1 - k)(p2 - k)/(k + 1) is an exact division, since
    C(x1, k)(x1 - k) = C(x1, k + 1)(k + 1); w reaches 0 once k > p2 >= 0.
    """
    out, w = [], 1
    for k in range(1, x1 + 1):
        w = w * (x1 - k + 1) * (p2 - k + 1) // k
        if not w:
            break
        out.append((k, -w if k & 2 else w))
    return tuple(out)


def _moyal_sums(pairs, k0: bool = True, ring: bool = False) -> dict:
    """sum_k (i hbar)^k C(x1, k) ff(p2, k) c1 c2 x^(x-k) p^(p-k) hbar^(h+k)
    over the term pairs (c1 x^x1 p^p1 hbar^h1, c2 x^x2 p^p2 hbar^h2) of each
    (term list, term list) of ``pairs``, (x, p, h) the sum of the two keys,
    from k = 0, or from k = 1 when k0 is false; a dict (x, p, h) -> [re, im]
    of the summed parts, where a sum that cancels to zero is kept.

    A term is (key, (re, im)), c = re + i im: Gaussian integer numerators,
    or with ring set a ring part (c, 0), multiplied as (c1 c2, 0) and then
    only scaled by the integer weights of `_weights` and added.  The odd i
    of a step swaps the parts, (re, im) -> (-im, re), so a ring part's
    partner stays the int 0 until both parities of k meet at one monomial.
    """
    acc: dict = {}
    get = acc.get
    for ta, tb in pairs:
        for (x1, p1, h1), (r1, m1) in ta:
            if not (x1 or k0):
                continue
            for (x2, p2, h2), (r2, m2) in tb:
                steps = _weights(x1, p2) if x1 and p2 else ()
                if not (steps or k0):
                    continue
                if ring:
                    re, im = r1 * r2, 0
                else:
                    re, im = r1 * r2 - m1 * m2, r1 * m2 + m1 * r2
                x, p, h = x1 + x2, p1 + p2, h1 + h2
                if k0:
                    key = (x, p, h)
                    sums = get(key)
                    if sums is None:
                        acc[key] = [re, im]
                    else:
                        sums[0] += re
                        sums[1] += im
                for k, w in steps:
                    r, m = (im * -w, re * w) if k & 1 else (re * w, im * w)
                    key = (x - k, p - k, h + k)
                    sums = get(key)
                    if sums is None:
                        acc[key] = [r, m]
                    else:
                        sums[0] += r
                        sums[1] += m
    return acc


def _numerators(a: PhasePoly):
    """(groups, den, params): a = sum_e q^e sum (re + i im)/den x^x p^p hbar^h
    over the groups {e: [(key, (re, im))]}, q = params.  A Gaussian operand
    is the one group () with params None; one whose coefficients are all
    ParamPoly over one tuple q is split by monomial e.  Any other operand
    is the one group () of ring parts (c, 0), den and params None."""
    coeffs = a.terms.values()
    if all(type(c) is GaussianRational for c in coeffs):
        # a list, not a generator: a tuple unpacked from a generator is built
        # with ten slots and shrunk, which leaves one more tuple on CPython's
        # free list for its final size on every call
        den = lcm(*[c.d for c in coeffs])
        terms = [(key, (c.a * (den // c.d), c.b * (den // c.d))) for key, c in a.terms.items()]
        return {(): terms}, den, None
    params = getattr(next(iter(coeffs)), "params", None)
    if params is None or not all(type(c) is ParamPoly and c.params == params for c in coeffs):
        return {(): [(key, (c, 0)) for key, c in a.terms.items()]}, None, None
    den = lcm(*[g.d for c in coeffs for g in c.terms.values()])
    groups: dict = {}
    for key, c in a.terms.items():
        for e, g in c.terms.items():
            groups.setdefault(e, []).append((key, (g.a * (den // g.d), g.b * (den // g.d))))
    return groups, den, params


def _joined(parts, den) -> list:
    """The nonzero terms (key, (re + i im)/den) of the (key, (re, im)) parts,
    or of a dict key -> (re, im).  Over den = None a part is a ring value or
    the int 0, and only the parts that are not the int 0 are added; the pair
    is not canonical (re = -i im is zero), so the sum is tested."""
    if type(parts) is dict:
        parts = parts.items()
    if den is not None:
        return [(key, _reduced(re, im, den)) for key, (re, im) in parts if re or im]
    joined = ((key, re if type(im) is int else im * I if type(re) is int else re + im * I)
              for key, (re, im) in parts)
    return [(key, c) for key, c in joined if c]


def _poly(sums, den, params) -> list:
    """The nonzero terms of the groups {e: parts} of sums over den, parts
    as `_joined` takes them: the inverse of `_numerators`."""
    return _gathered({e: _joined(parts, den) for e, parts in sums.items()}, params)


def _gathered(groups, params) -> list:
    """The terms of the groups {e: [(key, c)]} of one polynomial: with params
    each key's monomials c q^e gathered into one ParamPoly, without them
    the terms of the one group ()."""
    if params is None:
        return groups[()] if groups else []
    acc: dict = {}
    for e, terms in groups.items():
        for key, c in terms:
            acc.setdefault(key, []).append((e, c))
    return [(key, ParamPoly._of(params, monomials)) for key, monomials in acc.items()]


def _pair_sums(pairs, k0: bool = True):
    """sum f A * B over the (A, B, f) of pairs, A and B `_numerators` results,
    as (groups, den, params) of `_moyal_sums` dicts, one pass per e1 + e2,
    from k = 1 when k0 is false.

    When every operand has integer numerators, and either no pair or every
    pair has an operand with parameters, all over one tuple q, den is the
    lcm of the pairs' denominator products and A's numerators are scaled by
    f den / (dA dB).  Otherwise the sums are `_ring_sums`."""
    den, shared = 1, set()
    for (_, da, pa), (_, db, pb), _ in pairs:
        if da is None or db is None:
            return _ring_sums(pairs, k0)
        den = lcm(den, da * db)
        shared.update((pb if pa is None else pa, pa if pb is None else pb))
    if len(shared) > 1:
        return _ring_sums(pairs, k0)
    groups: dict = {}
    for (ga, da, pa), (gb, db, pb), f in pairs:
        f *= den // (da * db)
        for ea, ta in ga.items():
            if f != 1:
                ta = [(key, (r * f, m * f)) for key, (r, m) in ta]
            for eb, tb in gb.items():
                e = eb if pa is None else ea if pb is None else tuple(map(add, ea, eb))
                groups.setdefault(e, []).append((ta, tb))
    sums = {e: _moyal_sums(term_pairs, k0) for e, term_pairs in groups.items()}
    return sums, den, shared.pop() if shared else None


def _ring_sums(pairs, k0: bool):
    """The `_pair_sums` of pairs as ring parts (f c1 c2, 0), in the one
    group () over no denominator."""
    term_pairs = [
        ([(key, (c * f if f != 1 else c, 0)) for key, c in _poly(*a)],
         [(key, (c, 0)) for key, c in _poly(*b)])
        for a, b, f in pairs
    ]
    return {(): _moyal_sums(term_pairs, k0, ring=True)}, None, None


def _star_sum(pairs, k0: bool = True) -> PhasePoly:
    """sum f A * B over the (A, B, f) of pairs, A and B `_numerators` results,
    in one Moyal pass, from k = 1 when k0 is false."""
    return PhasePoly._of(_poly(*_pair_sums(pairs, k0)))


def star(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    return _star_sum([(_numerators(a), _numerators(b), 1)])


def star_difference(a: PhasePoly, b: PhasePoly, c: PhasePoly, d: PhasePoly) -> PhasePoly:
    """A * B - C * D, summed in one pass: terms that cancel are never built."""
    return _star_sum([(_numerators(a), _numerators(b), 1), (_numerators(c), _numerators(d), -1)])


def _adjoint_pairs(terms) -> list:
    """The term pairs (x^a, conj f_a) of the terms sum_a x^a f_a(p, hbar),
    whose Moyal sum is exp(+i hbar dx dp) conj(A), integer or ring parts."""
    by_x: dict = {}
    for (x, p, h), (re, im) in terms:
        by_x.setdefault(x, []).append(((0, p, h), (re.conjugate(), -im.conjugate())))
    return [([((x, 0, 0), (1, 0))], f) for x, f in by_x.items()]


def dagger(a: PhasePoly) -> PhasePoly:
    """Function-level image of the operator adjoint, exp(+i hbar dx dp)
    conj(A); terminates on the x degree."""
    groups, den, params = _numerators(a)
    sums = {e: _moyal_sums(_adjoint_pairs(t), ring=den is None) for e, t in groups.items()}
    return PhasePoly._of(_poly(sums, den, params))


def is_hermitian(a: PhasePoly) -> bool:
    """A_dagger == A, exactly: A_dagger - A in one pass, the
    `_adjoint_pairs` and -A as the pair (-1, A)."""
    groups, den, _ = _numerators(a)
    ring, minus_one = den is None, [((0, 0, 0), (-1, 0))]
    for terms in groups.values():
        sums = _moyal_sums(_adjoint_pairs(terms) + [(minus_one, terms)], ring=ring)
        if _joined(sums, den):
            return False
    return True


def _falling(b: int, a: int) -> int:
    """ff(b, a) = b (b - 1) ... (b - a + 1), for negative b too."""
    return perm(b, a) if b >= 0 else (-1) ** a * perm(a - b - 1, a)


def x0_hermitian(a: PhasePoly) -> bool:
    """Whether the x^0 parts of A and A_dagger agree, exactly.

    Of the adjoint's sum over a term c x^a p^b hbar^h only k = a lands at
    x^0: i^a ff(b, a) conj(c) p^(b - a) hbar^(h + a).  So the test takes one
    step per term, where `is_hermitian` takes up to a + 1.  It decides
    hermiticity only where the x^0 parts are known to suffice, as for a
    solved metric series (`metric.certify_metric`).
    """
    groups, den, _ = _numerators(a)
    for terms in groups.values():
        acc: dict = {}
        for (x, p, h), (re, im) in terms:
            if not x:
                sums = acc.setdefault((p, h), [0, 0])
                sums[0] += re
                sums[1] += im
            w = _falling(p, x)
            if w:
                # -w i^x conj(c) = u i^(x mod 2) (re - i im), u = -w (-1)^(x // 2)
                u = w if x & 2 else -w
                re, im = re.conjugate(), im.conjugate()
                sums = acc.setdefault((p - x, h + x), [0, 0])
                if x & 1:
                    sums[0] += u * im
                    sums[1] += u * re
                else:
                    sums[0] += u * re
                    sums[1] += -u * im
        if _joined(acc, den):
            return False
    return True


def star_commutator(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    """A * B - B * A, that is star_difference(a, b, b, a), in one pass from
    k = 1: the k = 0 terms of a term pair are c1 c2 and c2 c1 at one
    monomial both ways, and cancel in every commutative ring."""
    na, nb = _numerators(a), _numerators(b)
    return _star_sum([(na, nb, 1), (nb, na, -1)], k0=False)


def _cauchy_star(terms) -> CouplingSeries:
    """sum f A * B over the (A, B, f) of terms, series in one coupling, with
    the star product in the Cauchy product, truncated to the smallest order.
    Each output order n is one `_star_sum` over all (j, n - j) pairs of
    nonzero coefficients of every term."""
    first = terms[0][0]
    for a, b, _ in terms:
        first._check(a)
        a._check(b)
    nums = [
        ([_numerators(c) if c.terms else None for c in a.coeffs],
         [_numerators(c) if c.terms else None for c in b.coeffs], f)
        for a, b, f in terms
    ]
    out = []
    for n in range(min(min(a.order, b.order) for a, b, _ in terms) + 1):
        pairs = [
            (na[j], nb[n - j], f)
            for na, nb, f in nums
            for j in range(n + 1)
            if na[j] and nb[n - j]
        ]
        out.append(_star_sum(pairs))
    return CouplingSeries(first.coupling, out)


def star_series(a: CouplingSeries, b: CouplingSeries) -> CouplingSeries:
    """Cauchy product with the star product in place of the pointwise one."""
    return _cauchy_star([(a, b, 1)])


def star_series_difference(
    a: CouplingSeries, b: CouplingSeries, c: CouplingSeries, d: CouplingSeries
) -> CouplingSeries:
    """A * B - C * D for series, each order summed in one pass."""
    return _cauchy_star([(a, b, 1), (c, d, -1)])


def dagger_series(s: CouplingSeries) -> CouplingSeries:
    return s.map_coeffs(dagger)


def power_sum(coeffs, base: CouplingSeries) -> CouplingSeries:
    """sum_k coeffs[k] * base^k, the powers taken under `star_series`."""
    out = CouplingSeries.constant(base.coupling, PhasePoly.zero(), base.order)
    power = CouplingSeries.one(base.coupling, base.order)
    for k, c in enumerate(coeffs):
        if k:
            power = star_series(power, base)
        out = out + power.scaled(c)
    return out


def star_log(s: CouplingSeries) -> CouplingSeries:
    """Formal star-logarithm of a series with constant term 1.

    log(1 + P) = sum_{n>=1} (-1)^(n+1) P^{*n} / n, truncated at the order of
    the input; P starts at order 1, so the sum is finite.
    """
    if s.coeffs[0] != PhasePoly.one():
        raise BadConstantTerm("star_log needs constant term 1 at order 0")
    p = s - CouplingSeries.one(s.coupling, s.order)
    coeffs = [0] + [Fraction((-1) ** (n + 1), n) for n in range(1, s.order + 1)]
    return power_sum(coeffs, p)


def star_exp(s: CouplingSeries) -> CouplingSeries:
    """Formal star-exponential of a series with zero constant term."""
    if not s.coeffs[0].is_zero:
        raise BadConstantTerm("star_exp needs zero constant term at order 0")
    return power_sum([Fraction(1, factorial(n)) for n in range(s.order + 1)], s)


class ExpQuadForm(Frozen):
    """P(x, p, hbar) * exp(Q(x, p, hbar)) with Q of total (x, p) degree <= 2.

    Star products of a polynomial against this class stay in the class: each
    p (or x) derivative of exp(Q) pulls down dQ/dp (or dQ/dx), which has
    (x, p) degree <= 1, so only the polynomial prefactor changes.
    """

    __slots__ = ("prefactor", "exponent")

    def __init__(self, prefactor: PhasePoly, exponent: PhasePoly):
        if exponent.total_xp_degree() > 2:
            raise ValueError("exponent must have total (x, p) degree <= 2")
        object.__setattr__(self, "prefactor", prefactor)
        object.__setattr__(self, "exponent", exponent)

    @classmethod
    def pure_exponent(cls, exponent: PhasePoly) -> "ExpQuadForm":
        return cls(PhasePoly.one(), exponent)

    @property
    def is_zero(self) -> bool:
        return self.prefactor.is_zero

    def __eq__(self, other):
        if not isinstance(other, ExpQuadForm):
            return NotImplemented
        return self.prefactor == other.prefactor and self.exponent == other.exponent

    def subs_hbar(self, value) -> "ExpQuadForm":
        return ExpQuadForm(self.prefactor.subs_hbar(value), self.exponent.subs_hbar(value))

    def to_json(self) -> dict:
        return {"prefactor": self.prefactor.to_json(), "exponent": self.exponent.to_json()}

    @classmethod
    def from_json(cls, obj) -> "ExpQuadForm":
        check_keys(
            obj, {"prefactor", "exponent"}, "ExpQuadForm JSON", required=("prefactor", "exponent")
        )
        return cls(PhasePoly.from_json(obj["prefactor"]), PhasePoly.from_json(obj["exponent"]))

    def __repr__(self):
        return f"({self.prefactor!r}) * exp({self.exponent!r})"


def one_sided_slots(a: PhasePoly, d: PhasePoly) -> list:
    """The terms ((i, j), c) of L(Theta) = A * Theta - Theta * D, c the
    coefficient of dx^i dp^j: t_k(A, x) at (0, k) and -t_k(D, p) at (k, 0),
    with t_k(A, v) the k-th `moyal_coefficients` of A in v.  A * Theta
    terminates on the finite x degree of A; Theta * D walks p derivatives of
    D, so negative p powers of D raise NonTerminating."""
    left = [((0, k), t) for k, t in enumerate(moyal_coefficients(a, "x"))]
    return left + [((k, 0), t) for k, t in enumerate(moyal_coefficients(-d, "p"))]


def apply_slots(slots, prefactor: PhasePoly, exponent: PhasePoly) -> PhasePoly:
    """The prefactor of sum c dx^i dp^j (P e^Q) over the ((i, j), c) of
    slots, P the prefactor and Q the exponent: sum c (dx + Q_x)^i (dp + Q_p)^j P.

    The two factors commute (each is e^-Q d e^Q).  Each (dp + Q_p)^j P and
    each (dx + Q_x)^i of it is built once, and the products with the c are
    summed in one accumulation.
    """
    qx, qp = exponent.derivative("x"), exponent.derivative("p")
    column, rows, products = [prefactor], {}, []
    for (i, j), c in slots:
        while len(column) <= j:
            g = column[-1]
            column.append(g.derivative("p") + qp * g)
        row = rows.setdefault(j, [column[j]])
        while len(row) <= i:
            g = row[-1]
            row.append(g.derivative("x") + qx * g)
        products.append(PhasePoly._product_terms(c, row[i]))
    return PhasePoly._of(chain.from_iterable(products))


def star_poly_expquad(a: PhasePoly, e: ExpQuadForm, side: str) -> ExpQuadForm:
    """A * E (side="left") or E * A (side="right") as an ExpQuadForm: A's own
    left slots t_k(A, x) at (0, k), or right slots t_k(A, p) at (k, 0), as in
    `one_sided_slots`, applied to E."""
    if side == "left":
        slots = [((0, k), t) for k, t in enumerate(moyal_coefficients(a, "x"))]
    elif side == "right":
        slots = [((k, 0), t) for k, t in enumerate(moyal_coefficients(a, "p"))]
    else:
        raise ValueError("side must be 'left' or 'right'")
    return ExpQuadForm(apply_slots(slots, e.prefactor, e.exponent), e.exponent)
