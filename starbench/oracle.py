"""Independent checker for the benchmark's program outputs.

Nothing here imports ``starmetric``.  Phase-space functions are plain dicts
mapping an exponent tuple ``(x, p, hbar, *params)`` to a Gaussian rational
stored as a ``(Fraction re, Fraction im)`` pair.  The star product is the
program's convention,

    A * B = sum_k (i hbar)^k / k! (d^k A / dx^k) (d^k B / dp^k),

but it is evaluated monomial pair by monomial pair with falling factorials,
not by repeated polynomial derivatives as the program does, so a slip in the
program's kernel does not repeat here.

Each ``check_*`` function takes the command's exit code and parsed JSON
output plus what the input generator knows, and returns a list of problems;
an empty list means the output is right.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import factorial

Q0 = (Fraction(0), Fraction(0))
Q1 = (Fraction(1), Fraction(0))
QI = (Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# Gaussian rationals as pairs and phase-space polynomials as dicts


def q(re=0, im=0):
    return (Fraction(re), Fraction(im))


def _qmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _qscale(a, f):
    return (a[0] * f, a[1] * f)


def _ipow(a, k):
    """a * i^k."""
    for _ in range(k % 4):
        a = (-a[1], a[0])
    return a


def _conj(a):
    return (a[0], -a[1])


def _put(out, key, c):
    old = out.get(key)
    if old is not None:
        c = (old[0] + c[0], old[1] + c[1])
    if c[0] or c[1]:
        out[key] = c
    else:
        out.pop(key, None)


def _ff(n, k):
    """Falling factorial n (n-1) ... (n-k+1); n may be negative."""
    out = 1
    for j in range(k):
        out *= n - j
    return out


def padd(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        _put(out, k, c if sign > 0 else (-c[0], -c[1]))
    return out


def star(a, b):
    """Star product, one monomial pair at a time."""
    out = {}
    for ka, ca in a.items():
        xa = ka[0]
        for kb, cb in b.items():
            pb = kb[1]
            c = _qmul(ca, cb)
            rest = tuple(u + v for u, v in zip(ka[3:], kb[3:]))
            for k in range(xa + 1):
                w = _ff(xa, k) * _ff(pb, k)
                if not w:
                    break
                key = (xa - k + kb[0], ka[1] + pb - k, ka[2] + kb[2] + k) + rest
                _put(out, key, _ipow(_qscale(c, Fraction(w, factorial(k))), k))
    return out


def exp_mixed(a, sign):
    """exp(sign * i hbar dx dp) applied to a."""
    out = {}
    for key, c in a.items():
        x, p, h = key[:3]
        for k in range(x + 1):
            w = _ff(x, k) * _ff(p, k)
            if not w:
                break
            term = _ipow(_qscale(c, Fraction(w * sign**k, factorial(k))), k)
            _put(out, (x - k, p - k, h + k) + key[3:], term)
    return out


def conj(a):
    return {k: _conj(c) for k, c in a.items()}


def dagger(a):
    return exp_mixed(conj(a), +1)


def is_hermitian(a):
    return conj(a) == exp_mixed(a, -1)


def subs_hbar(a, value):
    value = Fraction(value)
    out = {}
    for key, c in a.items():
        _put(out, (key[0], key[1], 0) + key[3:], _qscale(c, value ** key[2]))
    return out


def derivative(a, axis, times=1):
    out = a
    for _ in range(times):
        nxt = {}
        for key, c in out.items():
            e = key[axis]
            if e:
                new = list(key)
                new[axis] = e - 1
                _put(nxt, tuple(new), _qscale(c, e))
        out = nxt
    return out


# ---------------------------------------------------------------------------
# reading model files and program JSON without the program


def _qjson(obj):
    return (Fraction(obj.get("re", "0")), Fraction(obj.get("im", "0")))


def _coeff_terms(coeff, params):
    """Yield (param exponent tuple, pair) for a GR or ParamPoly coefficient."""
    if "params" in coeff:
        for t in coeff["terms"]:
            powers = t.get("powers", {})
            yield tuple(int(powers.get(n, 0)) for n in params), _qjson(t["coeff"])
    else:
        yield (0,) * len(params), _qjson(coeff)


def poly_from_json(terms, params=()):
    out = {}
    for t in terms:
        head = (int(t.get("x", 0)), int(t.get("p", 0)), int(t.get("hbar", 0)))
        for pkey, c in _coeff_terms(t["coeff"], params):
            _put(out, head + pkey, c)
    return out


def _model_terms(entries, params):
    out = {}
    for t in entries:
        powers = t.get("params", {})
        key = (t["x"], t["p"], t["hbar"]) + tuple(int(powers.get(n, 0)) for n in params)
        _put(out, key, _qjson(t["coeff"]))
    return out


class ModelInfo:
    """What the checker reads from a model file: H0, V, parameters, hbar."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        ham = obj["hamiltonian"]
        self.name = obj["name"]
        self.params = tuple(ham.get("params", ()))
        self.h0 = _model_terms(ham["terms"], self.params)
        self.v = self.coupling = None
        if "coupling" in ham:
            self.coupling = ham["coupling"]["name"]
            self.v = _model_terms(ham["coupling"]["V"], self.params)
        options = obj.get("options", {})
        self.hbar = Fraction(options["hbar"]) if "hbar" in options else None

    def total(self):
        """H0 + g V with the coupling g as the last parameter, as the program
        does for commands that take the whole Hamiltonian."""
        if self.v is None:
            return self.params, self.h0
        params = self.params + (self.coupling,)
        h = {k + (0,): c for k, c in self.h0.items()}
        for k, c in self.v.items():
            _put(h, k + (1,), c)
        return params, h

    def maybe_hbar(self, a):
        return a if self.hbar is None else subs_hbar(a, self.hbar)


def _lift(a, params):
    """A function of (x, p, hbar) as one that also carries the parameters."""
    return {k + (0,) * len(params): c for k, c in a.items()}


def parse_gr_repr(text):
    """Inverse of the program's GaussianRational repr: "3/16", "-1/2*i",
    "(1/2+3/4*i)"."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        body = text[1:-1]
        cut = max(body.rfind("+"), body.rfind("-"))
        return (Fraction(body[:cut]), Fraction(body[cut:].removesuffix("*i")))
    if text.endswith("*i"):
        return (Fraction(0), Fraction(text[:-2]))
    return (Fraction(text), Fraction(0))


def _sign(v):
    return (v > 0) - (v < 0)


def _expect_rc(rc, want, problems):
    if rc != want:
        problems.append(f"exit code {rc}, expected {want}")
    return rc == want


# ---------------------------------------------------------------------------
# certify-ladder


def series_problems(series, model: ModelInfo, order, exact_coeffs=()):
    """H * Theta = Theta * H^dagger through the order, Theta_0 = 1, no
    x-free term above order 0 (the solver's zero integration functions), and
    each coefficient hermitian."""
    problems = []
    thetas = [poly_from_json(c) for c in series["coeffs"]]
    if series["order"] != order or len(thetas) != order + 1:
        return [f"series order {series['order']} with {len(thetas)} coefficients, expected {order}"]
    if thetas[0] != {(0, 0, 0): Q1}:
        problems.append("Theta_0 is not 1")
    h0, v = model.h0, model.v
    vd = dagger(v)
    for n, theta in enumerate(thetas):
        if n and any(k[0] == 0 for k in theta):
            problems.append(f"Theta_{n} has an x-free term")
        lhs = star(h0, theta)
        rhs = star(theta, dagger(h0))
        if n:
            lhs = padd(lhs, star(v, thetas[n - 1]))
            rhs = padd(rhs, star(thetas[n - 1], vd))
        if lhs != rhs:
            problems.append(f"H*Theta != Theta*H^dagger at order {n}")
        if not is_hermitian(theta):
            problems.append(f"Theta_{n} is not hermitian")
    for n, key, value in exact_coeffs:
        if n <= order and thetas[n].get(key, Q0) != value:
            problems.append(f"Theta_{n} coefficient at {key} is {thetas[n].get(key)}, expected {value}")
    return problems


# The order-3 coefficients of the ix3 metric printed in the paper.
IX3_PAPER_COEFFS = (
    (3, (1, -14, 8), q(0, Fraction(29872557, 256))),
    (3, (12, -3, -3), q(Fraction(1, 384))),
)


def check_solve(rc, out, model_path, order, exact_coeffs=()):
    problems = []
    if not _expect_rc(rc, 0, problems):
        return problems
    if out.get("residual_zero") is not True:
        problems.append("solve reports a nonzero residual")
    return problems + series_problems(out["series"], ModelInfo(model_path), order, exact_coeffs)


def check_certify(rc, out, order):
    problems = []
    if not _expect_rc(rc, 0, problems):
        return problems
    for key in ("hermitian", "positive", "residual_zero"):
        if out.get(key) is not True:
            problems.append(f"certify verdict {key} = {out.get(key)!r} on a PT-symmetric potential")
    if out.get("order") != order:
        problems.append(f"certify order {out.get('order')}, expected {order}")
    return problems


# ---------------------------------------------------------------------------
# symbolic-mix


def _check_true_flags(rc, out, keys):
    problems = []
    _expect_rc(rc, 0, problems)
    for key in keys:
        if out.get(key) is not True:
            problems.append(f"{key} = {out.get(key)!r}, expected true")
    return problems


def check_family(rc, out, observable, a=None, b=None):
    if observable in ("p", "x"):
        keys = ("metric_residual_zero", "observable_residual_zero", "branch_identities_zero")
        return _check_true_flags(rc, out, keys)
    keys = ("hermitian", "positive", "metric_residual_zero", "observable_residual_zero", "log_linear_in_N")
    problems = _check_true_flags(rc, out, keys)
    if (Fraction(out.get("a")), Fraction(out.get("b"))) != (a, b):
        problems.append(f"family N echoed a={out.get('a')}, b={out.get('b')}")
    return problems


LOCUS = {(1, 0): q(4), (0, 2): q(1)}  # 4 q1 + q2^2


def check_berry_osc(rc, out, q1, q2):
    problems = _check_true_flags(rc, out, ("residuals_zero", "curvature_zero"))
    locus = {}
    for pkey, c in _coeff_terms(out["locus"], ("q1", "q2")):
        _put(locus, pkey, c)
    if locus != LOCUS:
        problems.append(f"locus {out['locus']} is not 4 q1 + q2^2")
    delta = 4 * q1 + q2 * q2
    point = out.get("point", {})
    if Fraction(point.get("locus_value")) != delta:
        problems.append(f"locus value {point.get('locus_value')}, expected {delta}")
    expected = {
        "a1_xp": q(0, 1 / delta),
        "a1_xx": q(-q2 / (2 * delta)),
        "a2_xp": q(0, q2 / (2 * delta)),
        "a2_xx": q(q1 / delta),
    }
    got = point.get("coefficients", {})
    for name, want in expected.items():
        if name not in got or parse_gr_repr(got[name]) != want:
            problems.append(f"{name} = {got.get(name)!r}, expected {want}")
    return problems


def grid(lo, hi, count):
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def check_scan_grid(rc, out, q1s, q2s):
    problems = []
    if not _expect_rc(rc, 0, problems):
        return problems
    points = [(a, b) for a in q1s for b in q2s]
    records = out["records"]
    if out.get("count") != len(points) or len(records) != len(points):
        return [f"scan returned {len(records)} records, expected {len(points)}"]
    for (a, b), rec in zip(points, records):
        value = 4 * a + b * b
        if (rec["q1"], rec["q2"]) != (float(a), float(b)):
            problems.append(f"record at ({rec['q1']}, {rec['q2']}), expected ({a}, {b})")
        elif rec["region_sign"] != _sign(value):
            problems.append(f"sign {rec['region_sign']} at ({a}, {b}), exact {_sign(value)}")
        elif not math.isclose(rec["locus_value"], float(value), rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"locus value {rec['locus_value']} at ({a}, {b}), exact {value}")
    return problems


def oscillator_q(omega, alpha, beta):
    a = (omega - alpha - beta) / 2
    b = (omega + alpha + beta) / 2
    return b / a, (alpha - beta) / a


def check_scan_oscillator(rc, out, omega, alpha, beta):
    """Decimal inputs taken as exact rationals; the sign must be exact."""
    problems = []
    if not _expect_rc(rc, 0, problems):
        return problems
    (rec,) = out["records"]
    q1, q2 = oscillator_q(omega, alpha, beta)
    value = 4 * q1 + q2 * q2
    if rec["region_sign"] != _sign(value):
        problems.append(
            f"region_sign {rec['region_sign']} (locus_value {rec['locus_value']}) at "
            f"omega={omega}, alpha={alpha}, beta={beta}; exact 4q1+q2^2 = {value}"
        )
    if not math.isclose(rec["distance_origin_to_locus"], abs(float(omega)) / math.sqrt(2)):
        problems.append("distance to the locus is not |omega|/sqrt(2)")
    return problems


def check_pde(rc, out, model_path, probes):
    """Apply the printed operator to probe monomials and compare with
    H * Theta - Theta * H^dagger from the independent star, up to the one
    overall sign the program's normalization may choose."""
    problems = []
    if not _expect_rc(rc, 0, problems):
        return problems
    model = ModelInfo(model_path)
    params, h = model.total()
    hd = dagger(h)
    ops = [(c["dx"], c["dp"], poly_from_json(c["coeff"], params)) for c in out["coefficients"]]
    signs = set()
    for probe in probes:
        theta = _lift(probe, params)
        want = model.maybe_hbar(padd(star(h, theta), star(theta, hd), -1))
        got = {}
        for dx, dp, coeff in ops:
            d = derivative(derivative(theta, 0, dx), 1, dp)
            got = padd(got, _pointwise(coeff, d))
        if got == want and got:
            signs.add(1)
        elif got == {k: (-c[0], -c[1]) for k, c in want.items()} and got:
            signs.add(-1)
        else:
            problems.append(f"operator disagrees with H*Theta - Theta*H^dagger on {probe}")
    if len(signs) > 1:
        problems.append("operator sign is not consistent across probes")
    return problems


def _pointwise(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            _put(out, tuple(u + v for u, v in zip(ka, kb)), _qmul(ca, cb))
    return out


def check_dagger(rc, out, model_path):
    problems = []
    if not _expect_rc(rc, 0, problems):
        return problems
    model = ModelInfo(model_path)
    params, h = model.total()
    if poly_from_json(out["dagger"], params) != model.maybe_hbar(dagger(h)):
        problems.append("dagger differs from exp(i hbar dx dp) conj(H)")
    if not isinstance(out.get("latex"), str) or "\\hbar" not in out["latex"]:
        problems.append(f"latex {out.get('latex')!r} lacks the hbar term of the adjoint")
    return problems


def check_hermitian(rc, out, model_path):
    model = ModelInfo(model_path)
    _, h = model.total()
    want = is_hermitian(model.maybe_hbar(h))
    problems = []
    _expect_rc(rc, 0 if want else 1, problems)
    if out.get("hermitian") is not want:
        problems.append(f"hermitian = {out.get('hermitian')!r}, expected {want}")
    return problems


def check_star(rc, out, model_path, theta):
    problems = []
    if not _expect_rc(rc, 0, problems):
        return problems
    model = ModelInfo(model_path)
    params, h = model.total()
    theta = _lift(theta, params)
    left = model.maybe_hbar(star(h, theta))
    right = model.maybe_hbar(star(theta, dagger(h)))
    if poly_from_json(out["h_star_theta"], params) != left:
        problems.append("H * Theta differs from the independent star")
    if poly_from_json(out["theta_star_hdagger"], params) != right:
        problems.append("Theta * H^dagger differs from the independent star")
    return problems


def check_residual_poly(rc, out, model_path, theta):
    model = ModelInfo(model_path)
    params, h = model.total()
    theta = _lift(theta, params)
    zero = not model.maybe_hbar(padd(star(h, theta), star(theta, dagger(h)), -1))
    problems = []
    _expect_rc(rc, 0 if zero else 1, problems)
    if out.get("residual_zero") is not zero:
        problems.append(f"residual_zero = {out.get('residual_zero')!r}, expected {zero}")
    return problems


def expquad_residual_prefactor(model: ModelInfo, p_rate):
    """Prefactor of H * E - E * H^dagger for E = exp(p_rate * p).

    d^k/dp^k E = p_rate^k E and E has no x, so H * E = sum_k (i hbar)^k/k!
    (d^k H/dx^k) p_rate^k E and E * H^dagger = H^dagger E.
    """
    params, h = model.total()
    left = {}
    cur, k = h, 0
    while cur:
        for key, c in cur.items():
            scaled = _ipow(_qscale(c, Fraction(p_rate) ** k / factorial(k)), k)
            _put(left, (key[0], key[1], key[2] + k) + key[3:], scaled)
        cur = derivative(cur, 0)
        k += 1
    return model.maybe_hbar(padd(left, dagger(h), -1))


def check_residual_expquad(rc, out, model_path, p_rate):
    problems = _check_true_flags(rc, out, ("residual_zero",))
    if expquad_residual_prefactor(ModelInfo(model_path), p_rate):
        problems.append(f"exp({p_rate} p) does not solve the model equation")
    return problems


def check_emit_latex(rc, out, hamiltonian, order):
    problems = []
    if not _expect_rc(rc, 0, problems):
        return problems
    if out.get("hamiltonian") != hamiltonian:
        problems.append(f"hamiltonian latex {out.get('hamiltonian')!r}, expected {hamiltonian!r}")
    series = out.get("metric_series", "")
    if not series.startswith("1 + g") or f"g^{{{order}}}" not in series:
        problems.append(f"metric_series {series[:40]!r}... is not 1 + g (...) + ... + g^{order} (...)")
    if " g " not in f" {out.get('metric_log', '')} ":
        problems.append("metric_log lacks the first-order term")
    return problems


# ---------------------------------------------------------------------------
# float-oracle


def check_finite_oracle(rc, out, n, trials):
    problems = []
    _expect_rc(rc, 0, problems)
    if (out.get("n"), out.get("trials")) != (n, trials):
        problems.append(f"oracle echoed n={out.get('n')}, trials={out.get('trials')}")
    if out.get("failures") != 0 or out.get("passes") != trials:
        problems.append(f"oracle failures = {out.get('failures')}")
    if not out.get("max_deviation", 1.0) <= 1e-10:
        problems.append(f"max_deviation {out.get('max_deviation')} > 1e-10")
    return problems


MONODROMY = ((-1, -2j), (0, 1))


def check_berry2x2(rc, out, trials):
    problems = []
    _expect_rc(rc, 0, problems)
    rows = out.get("monodromy", [])
    for row, want_row in zip(rows, MONODROMY):
        for text, want in zip(row, want_row):
            if abs(complex(text) - want) > 1e-12:
                problems.append(f"monodromy entry {text}, expected {want}")
    if len(rows) != 2:
        problems.append("monodromy is not 2x2")
    if sorted(map(tuple, out.get("rank_deficient_at", []))) != [(0.0, -1.0), (0.0, 1.0)]:
        problems.append(f"rank-deficient points {out.get('rank_deficient_at')}, expected (0, +-1)")
    if out.get("trials") != trials:
        problems.append(f"berry2x2 echoed trials={out.get('trials')}")
    return problems
