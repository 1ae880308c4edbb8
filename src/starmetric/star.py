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
x degree is finite by the PhasePoly type invariant.  The adjoint map and
hermiticity criterion

    A_dagger = exp(+i hbar dx dp) conj(A)
    A hermitian  iff  conj(A) = exp(-i hbar dx dp) A

are the same loop over one term at a time, with (x1, p2) the term's own
(x, p) and (sign i)^k as the unit.

One kernel, `_moyal_sums`, runs this loop for every coefficient ring.  It
sums (re, im) parts per output monomial, c = re + i im, and a factor i
maps (re, im) to (-im, re).  When every coefficient of both operands is a
`GaussianRational`, each operand is scaled to Gaussian-integer numerators
over one denominator (the lcm of its d's); the parts are plain integers,
and each output coefficient is built with one gcd, over the product of the
two denominators (Knuth, TAOCP vol. 2, 4.6.1, content and primitive part).
Any other coefficient (`ParamPoly`, `RatFunc2`, mixed operands) enters as
the ring part (c, 0) over no denominator.  When the ring operands have only
`ParamPoly` coefficients over one parameter tuple q, the parameters are
spectators, d/dx and d/dp do not touch them: A * B = sum q^(e1 + e2)
A_e1 * B_e2, with A = sum_e q^e A_e.  So the products are summed in
integers as above, one pass per parameter monomial e1 + e2
(`_monomial_parts`, `_monomial_sums`), and each output key gathers its
monomials into one `ParamPoly`.  Otherwise (`RatFunc2`, an operand that
mixes `GaussianRational` and `ParamPoly`, differing parameters) a term
product is the ring product c1 c2, and the parts are added in the ring.
Only `_numerators` (in), `_pair_sums` (term products) and `_joined` (out)
tell the forms apart.

Differences are summed in one pass.  `star_difference(a, b, c, d)`, A * B -
C * D, is one Moyal pass over the products of both pairs, over the lcm of
the two denominator products; the products of C * D enter with negated
numerators, so terms that cancel stay integer sums of zero and are never
built as coefficients; ring products enter as c1 c2 f.  `star_commutator`
is star_difference(a, b, b, a) without the term pairs that commute, and
`is_hermitian` sums conj(A) - exp(-i hbar dx dp) A the same way.
`star_series`, the Cauchy product of two series, and
`star_series_difference` share one loop: one Moyal pass per output order
n over all (j, n - j) pairs of nonzero coefficients of every product,
over one denominator (the lcm of the pairs' denominator products): no
PhasePoly, gcd or addition per pair.

One-sided sums, where only one operand is differentiated, use
`moyal_coefficients`: the factors (i hbar)^k / k! d^k A / dv^k for v = x or
p, built term by term as i^k C(n, k) c v^(n-k) hbar^k for a term c v^n.
`one_sided_slots(a, d)` lays them out as the operator L(Theta) = A * Theta -
Theta * D = sum c dx^i dp^j Theta, which `metric.PDEOperator` holds, and
`apply_slots` is its one derivative walker: on E = P e^Q it gives the
prefactor sum c (dx + Q_x)^i (dp + Q_p)^j P.  `star_poly_expquad` runs it on
the left or the right slots alone, and the metric residual of a Gaussian
applies the whole operator, so it is the PDE that `metric.pde_operator`
gives.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, factorial, lcm, perm

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
def _weights(x1: int, p2: int, sign: int) -> tuple:
    """The weights s C(x1, k) ff(p2, k) of the steps k = 1, 2, ... up to
    k = x1 or the first zero, where (sign i)^k = s i^(k mod 2): s = sign^k
    (-1)^(k // 2) is the sign the unit leaves once its odd i is taken out.

    w_{k+1} = w_k (x1 - k)(p2 - k)/(k + 1) is an exact division, since
    C(x1, k)(x1 - k) = C(x1, k + 1)(k + 1); w reaches 0 once k > p2 >= 0.
    """
    out, w = [], 1
    for k in range(1, x1 + 1):
        w = w * (x1 - k + 1) * (p2 - k + 1) // k
        if not w:
            break
        out.append(w * sign**k * (-1) ** (k // 2))
    return tuple(out)


def _moyal_sums(products, sign: int) -> dict:
    """sum_k (sign i hbar)^k C(x1, k) ff(p2, k) c x^(x-k) p^(p-k) hbar^(h+k)
    over the items (x1, p2, (x, p, h), (re, im)) of ``products``, c = re + i im,
    as a dict (x, p, h) -> [re, im] of the summed parts; a sum that cancels
    to zero is kept.

    The parts are plain integers (Gaussian integer numerators) or a ring
    part (c, 0), c any coefficient.  Either way they are only scaled by the
    signed integer weights of `_weights` and added, and the odd i of a step
    swaps them, (re, im) -> (-im, re); so a ring part's partner stays the
    int 0 until terms of both parities of k meet at one monomial.
    """
    acc: dict = {}
    get = acc.get
    for x1, p2, key, (re, im) in products:
        sums = get(key)
        if sums is None:
            acc[key] = [re, im]
        else:
            sums[0] += re
            sums[1] += im
        x, p, h = key
        for k, w in enumerate(_weights(x1, p2, sign), 1):
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
    """The terms of a as (key, (re, im)) for coefficients (re + i im)/den, and
    den.  When every coefficient is a GaussianRational, re and im are Gaussian
    integer numerators over one common denominator; otherwise each term is
    the ring part (c, 0) and den is None."""
    coeffs = a.terms.values()
    if not all(type(c) is GaussianRational for c in coeffs):
        return [(key, (c, 0)) for key, c in a.terms.items()], None
    # a list, not a generator: a tuple unpacked from a generator is built with
    # ten slots and shrunk, which leaves one more tuple on CPython's free list
    # for its final size on every call
    den = lcm(*[c.d for c in coeffs])
    return [(key, (c.a * (den // c.d), c.b * (den // c.d))) for key, c in a.terms.items()], den


def _joined(parts, den, scale: int = 1) -> list:
    """The nonzero terms (key, (re + i im)/(den scale)) of the (key, (re, im))
    parts, the inverse of `_numerators`.  Over den = None a part is a ring
    value or the int 0, and only the parts that are not the int 0 are added;
    the pair is not canonical (re = -i im is zero), so the sum is tested."""
    if den is not None:
        return [(key, _reduced(re, im, den * scale)) for key, (re, im) in parts if re or im]
    out = []
    for key, (re, im) in parts:
        c = re if type(im) is int else im * I if type(re) is int else re + im * I
        if c:
            out.append((key, c if scale == 1 else c * Fraction(1, scale)))
    return out


def _products(ta, tb, f: int = 1):
    """The `_moyal_sums` items of all term pairs of two `_numerators` lists
    with integer numerators, those of ta first multiplied by f."""
    if f != 1:
        ta = [(key, (r * f, m * f)) for key, (r, m) in ta]
    return (
        (x1, p2, (x1 + x2, p1 + p2, h1 + h2), (r1 * r2 - m1 * m2, r1 * m2 + m1 * r2))
        for (x1, p1, h1), (r1, m1) in ta
        for (x2, p2, h2), (r2, m2) in tb
    )


def _monomial_parts(pairs):
    """(parts, params) for the operands of pairs, `_numerators` results; None
    unless each pair has an operand of ring parts and all such operands have
    only ParamPoly coefficients over one parameter tuple q, params.

    parts maps the id of each operand's terms to ({e: terms}, den).  Ring
    parts (c_j, 0) with c_j = sum_e g_je q^e are sum_e q^e A_e, the g_je
    scaled to Gaussian integer numerators over den, the lcm of their d's, as
    `_numerators` scales; an operand with integer numerators is its own q^0
    part.
    """
    if any(da is not None and db is not None for (_, da), (_, db), _ in pairs):
        return None
    operands = {id(terms): (terms, den) for a, b, _ in pairs for terms, den in (a, b)}
    ring = [terms for terms, den in operands.values() if den is None]
    _, (first, _) = ring[0][0]
    params = getattr(first, "params", None)
    coeffs = (c for terms in ring for _, (c, _) in terms)
    if not all(type(c) is ParamPoly and c.params == params for c in coeffs):
        return None
    parts = {}
    for key, (terms, den) in operands.items():
        if den is not None:
            parts[key] = {(0,) * len(params): terms}, den
            continue
        den = lcm(*[g.d for _, (c, _) in terms for g in c.terms.values()])
        split: dict = {}
        for k, (c, _) in terms:
            for e, g in c.terms.items():
                split.setdefault(e, []).append((k, (g.a * (den // g.d), g.b * (den // g.d))))
        parts[key] = split, den
    return parts, params


def _monomial_sums(pairs, parts, params) -> dict:
    """sum f A * B over the (A, B, f) of pairs as ring parts [ParamPoly, 0],
    summed in integers one parameter monomial e1 + e2 at a time, with the
    `_monomial_parts` of the operands, over the lcm of the pairs'
    denominator products."""
    den = lcm(*[parts[id(ta)][1] * parts[id(tb)][1] for (ta, _), (tb, _), _ in pairs])
    groups: dict = {}
    for (ta, _), (tb, _), f in pairs:
        (ma, da), (mb, db) = parts[id(ta)], parts[id(tb)]
        f *= den // (da * db)
        for ea, terms in ma.items():
            if f != 1:
                terms = [(key, (r * f, m * f)) for key, (r, m) in terms]
            for eb, other in mb.items():
                e = tuple([i + j for i, j in zip(ea, eb)])
                groups.setdefault(e, []).append(_products(terms, other))
    acc: dict = {}
    for e, products in groups.items():
        for key, c in _joined(_moyal_sums(chain.from_iterable(products), 1).items(), den):
            acc.setdefault(key, []).append((e, c))
    return {key: [ParamPoly._of(params, monomials), 0] for key, monomials in acc.items()}


def _pair_sums(pairs):
    """sum f A * B over the (A, B, f) of pairs, A and B `_numerators` results,
    in one `_moyal_sums` pass, as (its dict, den).

    With integer numerators on every operand, den is the lcm of the pairs'
    denominator products, and the products of a pair enter with their
    numerators scaled by f den / (dA dB).  Otherwise den is None and the
    sums are ring parts.  When `_monomial_parts` splits the operands by
    parameter monomial, the parameters are spectators of the Moyal sum,
    A * B = sum q^(e1 + e2) A_e1 * B_e2: the products of each e1 + e2 are
    summed in integers as above, one pass per e, and each key's sums are
    gathered into one ParamPoly.  Otherwise each term product enters as the
    ring part (c1 c2 f, 0), an operand with integer numerators taken as its
    coefficients.
    """
    if any(da is None or db is None for (_, da), (_, db), _ in pairs):
        split = _monomial_parts(pairs)
        if split is not None:
            return _monomial_sums(pairs, *split), None
        products = (
            (x1, p2, (x1 + x2, p1 + p2, h1 + h2), (c1 * c2 * f if f != 1 else c1 * c2, 0))
            for a, b, f in pairs
            for (x1, p1, h1), c1 in _joined(*a)
            for (x2, p2, h2), c2 in _joined(*b)
        )
        return _moyal_sums(products, 1), None
    den = lcm(*[da * db for (_, da), (_, db), _ in pairs])
    products = (_products(ta, tb, f * (den // (da * db))) for (ta, da), (tb, db), f in pairs)
    return _moyal_sums(chain.from_iterable(products), 1), den


def _star_sum(pairs) -> PhasePoly:
    """sum f A * B over the (A, B, f) of pairs, A and B `_numerators` results,
    in one Moyal pass."""
    sums, den = _pair_sums(pairs)
    return PhasePoly._of(_joined(sums.items(), den))


def star(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    return _star_sum([(_numerators(a), _numerators(b), 1)])


def star_difference(a: PhasePoly, b: PhasePoly, c: PhasePoly, d: PhasePoly) -> PhasePoly:
    """A * B - C * D, summed in one pass: terms that cancel are never built."""
    return _star_sum([(_numerators(a), _numerators(b), 1), (_numerators(c), _numerators(d), -1)])


def dagger(a: PhasePoly) -> PhasePoly:
    """Function-level image of the operator adjoint, exp(+i hbar dx dp)
    conj(A); terminates on the x degree."""
    ta, den = _numerators(a.conjugate())
    sums = _moyal_sums(((k[0], k[1], k, c) for k, c in ta), 1)
    return PhasePoly._of(_joined(sums.items(), den))


def is_hermitian(a: PhasePoly) -> bool:
    """conj(A) == exp(-i hbar dx dp) A, exactly.

    conj(A) - exp(-i hbar dx dp) A is summed in one pass, the terms of conj(A)
    as items with x1 = 0, so k = 0 only.
    """
    ta, den = _numerators(a)
    conj = ((0, 0, k, (re.conjugate(), -im.conjugate())) for k, (re, im) in ta)
    sums = _moyal_sums(chain(conj, ((k[0], k[1], k, (-re, -im)) for k, (re, im) in ta)), -1)
    return not _joined(sums.items(), den)


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
    ta, den = _numerators(a)
    acc: dict = {}
    for (x, p, h), (re, im) in ta:
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
    return not _joined(acc.items(), den)


def star_commutator(a: PhasePoly, b: PhasePoly) -> PhasePoly:
    """A * B - B * A, that is star_difference(a, b, b, a), in one pass.

    A term pair whose weights are (1,) both ways (x1 = 0 or p2 = 0 in A * B,
    and in B * A) contributes only its k = 0 terms, which cancel: such pairs
    are skipped.  The terms of each operand are split by (x > 0, p != 0),
    which decides that.
    """
    (ta, da), (tb, db) = _numerators(a), _numerators(b)
    sa, sb = {}, {}
    for parts, split in ((ta, sa), (tb, sb)):
        for (x, p, h), c in parts:
            split.setdefault((x > 0, p != 0), []).append(((x, p, h), c))
    pairs = []
    for (ax, ap), pa in sa.items():
        for (bx, bp), pb in sb.items():
            if (ax and bp) or (bx and ap):
                pairs += [((pa, da), (pb, db), 1), ((pb, db), (pa, da), -1)]
    return _star_sum(pairs)


def _cauchy_star(terms) -> CouplingSeries:
    """sum f A * B over the (A, B, f) of terms, series in one coupling, with
    the star product in the Cauchy product, truncated to the smallest order.
    Each output order n is one `_star_sum` over all (j, n - j) pairs of
    nonzero coefficients of every term."""
    first = terms[0][0]
    for a, b, _ in terms:
        first._check(a)
        a._check(b)
    nums = [([_numerators(c) for c in a.coeffs], [_numerators(c) for c in b.coeffs], f)
            for a, b, f in terms]
    out = []
    for n in range(min(min(a.order, b.order) for a, b, _ in terms) + 1):
        pairs = [
            (na[j], nb[n - j], f)
            for na, nb, f in nums
            for j in range(n + 1)
            if na[j][0] and nb[n - j][0]
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
    """A * E (side="left") or E * A (side="right") as an ExpQuadForm: the
    left or the right `one_sided_slots` alone, applied to E.  The right
    slots give -E * A, so they are applied to -P e^Q."""
    zero = PhasePoly.zero()
    if side == "left":
        prefactor = apply_slots(one_sided_slots(a, zero), e.prefactor, e.exponent)
    elif side == "right":
        prefactor = apply_slots(one_sided_slots(zero, a), -e.prefactor, e.exponent)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return ExpQuadForm(prefactor, e.exponent)
