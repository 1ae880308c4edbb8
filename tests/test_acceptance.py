"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every exact claim is asserted with zero tolerance;
float claims carry their stated tolerances.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from starmetric.berry import (
    RankDeficient,
    gauge_fixed_connection,
    holonomy_exceptional,
    moyal_connection_solve,
    moyal_curvature,
    oscillator_hamiltonian,
    plaquette_defect,
    singular_locus,
    solve_connection_2x2,
)
from starmetric.cli import main
from starmetric.metric import (
    certify_metric,
    expand_gaussian_in_coupling,
    gaussian_branch_identities,
    gaussian_exponent,
    log_linear_in_n_check,
    metric_residual,
    pde_operator,
    solution_family_closure,
    solve_perturbative,
)
from starmetric.phasepoly import CouplingSeries, PhasePoly
from starmetric.scalars import GaussianRational, I, ParamPoly, RatFunc2
from starmetric.star import ExpQuadForm, dagger, is_hermitian, star, star_log, star_poly_expquad
from starmetric.weyl import oracle_run

from _helpers import bundled, quadratic, random_poly, ratfunc_generators

GOLDENS = Path(__file__).parent / "goldens"


def _check(num, label, limit, fn):
    start = time.perf_counter()
    try:
        fn()
    except AssertionError:
        elapsed = time.perf_counter() - start
        print(f"[criterion {num:2d}] {label}: FAIL ({elapsed:.3f}s)")
        raise
    elapsed = time.perf_counter() - start
    in_time = elapsed < limit
    print(
        f"[criterion {num:2d}] {label}: {'PASS' if in_time else 'FAIL (over time)'}"
        f" ({elapsed:.3f}s, limit {limit:g}s)"
    )
    assert in_time, f"criterion {num} took {elapsed:.3f}s, limit {limit:g}s"


def _golden(name):
    with open(GOLDENS / name, encoding="utf-8") as fh:
        return CouplingSeries.from_json(json.load(fh))


def _solved(order):
    spec = bundled("ix3").spec
    return solve_perturbative(spec.h0, spec.v, order)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_criterion_01_cubic_metric_series():
    def body():
        theta = _solved(3)
        assert theta == _golden("ix3_theta_order3.json")
        third = theta.coeffs[3]
        assert third.coeff(1, -14, 8) == gr(0, Fraction(29872557, 256))
        assert third.coeff(12, -3, -3) == gr(Fraction(1, 384))

    _check(1, "cubic model metric through third order, exact", 1.0, body)


def test_criterion_02_cubic_star_log():
    def body():
        log = star_log(_solved(3))
        assert log == _golden("ix3_log_order3.json")
        assert log.coeffs[2].is_zero

    _check(2, "star-log of the cubic metric, vanishing second order", 1.0, body)


def test_criterion_03_cubic_certification():
    def body():
        report = certify_metric(_solved(3))
        assert report.hermitian and report.positive and report.order == 3

    _check(3, "hermiticity and positivity certification at order 3", 1.0, body)


def test_criterion_04_quadratic_model_symbolic():
    def body():
        spec, (a, b, c) = quadratic()
        p2, x2 = PhasePoly.p(2), PhasePoly.x(2)
        zero = PhasePoly.zero()
        r = PhasePoly.monomial(c / (b * 2), 0, 0, -1).scaled(-1)
        t = PhasePoly.monomial(c / (a * 2), 0, 0, -1)
        assert metric_residual(spec, ExpQuadForm.pure_exponent(r * p2)).prefactor.is_zero
        assert metric_residual(spec, ExpQuadForm.pure_exponent(t * x2)).prefactor.is_zero
        for rst in ((r, zero, zero), (zero, zero, t)):
            e = ExpQuadForm.pure_exponent(gaussian_exponent(*rst))
            assert metric_residual(spec, e).prefactor.is_zero
        assert all(z.is_zero for z in gaussian_branch_identities(a, b, c, r, zero, zero))
        assert all(z.is_zero for z in gaussian_branch_identities(a, b, c, zero, zero, t))
        # regression: the printed x-observable value t = c/(2 b hbar) is a typo
        t_wrong = PhasePoly.monomial(c / (b * 2), 0, 0, -1)
        assert not metric_residual(spec, ExpQuadForm.pure_exponent(t_wrong * x2)).prefactor.is_zero

    _check(4, "quadratic model Gaussian metrics with symbolic a, b, c, hbar", 1.0, body)


def test_criterion_05_number_observable_expansion():
    def body():
        a, b = Fraction(3, 2), Fraction(1, 2)  # a - b = 1
        theta = expand_gaussian_in_coupling(a, b, 3)
        p2, x2 = PhasePoly.p(2), PhasePoly.x(2)
        n_poly = (p2 + x2) * PhasePoly.hbar(-1)
        a1 = n_poly.scaled(Fraction(1, 2))
        a2 = (
            PhasePoly.p(4)
            + PhasePoly.monomial(4 * I, 1, 1, 1)
            + (x2 * p2).scaled(2)
            + PhasePoly.x(4)
        ) * PhasePoly.hbar(-2) * Fraction(1, 8)
        inner = (
            PhasePoly.p(4)
            + PhasePoly.monomial(12 * I, 1, 1, 1)
            + (x2 * p2).scaled(2)
            + PhasePoly.x(4)
        )
        a3 = (p2 + x2) * inner * PhasePoly.hbar(-3) * Fraction(1, 48)
        assert theta.coeffs[1] == a1
        assert theta.coeffs[2] == a2
        assert theta.coeffs[3] == a3
        log = star_log(theta)
        assert log.coeffs[2] == PhasePoly.const(gr(Fraction(1, 4)))
        assert log.coeffs[1] == n_poly.scaled(Fraction(1, 2))
        assert log.coeffs[3] == n_poly.scaled(Fraction(1, 6))
        assert log_linear_in_n_check(expand_gaussian_in_coupling(a, b, 6))

    _check(5, "number-observable expansion and its star-log", 5.0, body)


def test_criterion_06_shifted_oscillator():
    def body():
        spec = bundled("shifted").spec
        e = ExpQuadForm.pure_exponent(PhasePoly.monomial(-2, 0, 1, 0))
        assert metric_residual(spec, e).prefactor.subs_hbar(1).is_zero

    _check(6, "shifted oscillator metric exp(-2p) at hbar = 1", 1.0, body)


def test_criterion_07_pde_extraction():
    def body():
        spec, (a, b, c) = quadratic()
        L = pde_operator(spec).normalized()
        expected_quadratic = {
            (0, 0): PhasePoly.monomial(c, 0, 0, 1) + PhasePoly.monomial(c, 1, 1, 0).scaled(-2 * I),
            (0, 1): PhasePoly.monomial(c, 0, 1, 1) + PhasePoly.monomial(b, 1, 0, 1).scaled(-2 * I),
            (1, 0): PhasePoly.monomial(c, 1, 0, 1) + PhasePoly.monomial(a, 0, 1, 1).scaled(2 * I),
            (0, 2): PhasePoly.monomial(b, 0, 0, 2),
            (2, 0): -PhasePoly.monomial(a, 0, 0, 2),
        }
        assert set(L.coeffs) == set(expected_quadratic)
        assert all(L.coeffs[k] == v for k, v in expected_quadratic.items())

        Lc = pde_operator(bundled("ix3").spec).normalized()
        (g,) = ParamPoly.generators("g")
        one_g = ParamPoly.constant(("g",), 1)
        expected_cubic = {
            (0, 0): PhasePoly.monomial(g, 3, 0, 0).scaled(2 * I),
            (0, 1): PhasePoly.monomial(g, 2, 0, 1).scaled(-3),
            (0, 2): PhasePoly.monomial(g, 1, 0, 2).scaled(-3 * I),
            (0, 3): PhasePoly.monomial(g, 0, 0, 3),
            (1, 0): PhasePoly.monomial(one_g, 0, 1, 1).scaled(-2 * I),
            (2, 0): PhasePoly.monomial(one_g, 0, 0, 2),
        }
        assert set(Lc.coeffs) == set(expected_cubic)
        assert all(Lc.coeffs[k] == v for k, v in expected_cubic.items())

        Ls = pde_operator(bundled("shifted").spec).subs_hbar(1).normalized()
        expected_shifted = {
            (0, 0): PhasePoly.monomial(2 * I, 1, 0, 0),
            (0, 1): PhasePoly.monomial(I, 1, 0, 0) - PhasePoly.one(),
            (0, 2): PhasePoly.const(gr(Fraction(-1, 2))),
            (1, 0): PhasePoly.monomial(-I, 0, 1, 0),
            (2, 0): PhasePoly.const(gr(Fraction(1, 2))),
        }
        assert set(Ls.coeffs) == set(expected_shifted)
        assert all(Ls.coeffs[k] == v for k, v in expected_shifted.items())

    _check(7, "PDE coefficients of all three models, exact", 1.0, body)


def test_criterion_08_berry_2x2():
    def body():
        f = holonomy_exceptional()
        assert np.max(np.abs(f - np.array([[-1.0, -2j], [0.0, 1.0]]))) <= 1e-12
        # leading-order swap, exact in the symbol standing for i sqrt(2w)
        (sigma,) = ParamPoly.generators("sigma")
        minus_i = sigma.const_like(GaussianRational(0, -1))
        one = sigma.const_like(1)
        u_plus = (minus_i + sigma, one)
        u_minus = (minus_i - sigma, one)
        f_exact = (
            (GaussianRational(-1), GaussianRational(0, -2)),
            (GaussianRational(0), GaussianRational(1)),
        )
        acted_plus = (
            f_exact[0][0] * u_plus[0] + f_exact[0][1] * u_plus[1],
            f_exact[1][0] * u_plus[0] + f_exact[1][1] * u_plus[1],
        )
        assert acted_plus == u_minus
        acted_minus = (
            f_exact[0][0] * u_minus[0] + f_exact[0][1] * u_minus[1],
            f_exact[1][0] * u_minus[0] + f_exact[1][1] * u_minus[1],
        )
        assert acted_minus == u_plus

        rng = np.random.default_rng(20)
        found = 0
        while found < 20:
            q = rng.uniform(-1.5, 1.5, size=2)
            z = q[0] + 1j * q[1]
            if abs(1 + z * z) < 0.1:
                continue
            found += 1
            solved = solve_connection_2x2(q)
            printed = gauge_fixed_connection(q)
            assert max(np.max(np.abs(s - r)) for s, r in zip(solved, printed)) <= 1e-10
        for point in ((0.0, 1.0), (0.0, -1.0)):
            try:
                solve_connection_2x2(point)
                raise AssertionError(f"expected RankDeficient at {point}")
            except RankDeficient:
                pass

    _check(8, "2x2 exceptional-point monodromy and connection solve", 5.0, body)


def test_criterion_09_berry_oscillator():
    def body():
        conn = moyal_connection_solve()
        q1, q2 = ratfunc_generators()
        delta = q1 * 4 + q2 * q2
        i = RatFunc2(ParamPoly.constant(("q1", "q2"), GaussianRational(0, 1)))
        assert conn.s1 == i / delta
        assert conn.t1 == -(q2 / (delta * 2))
        assert conn.s2 == i * q2 / (delta * 2)
        assert conn.t2 == q1 / delta
        assert moyal_curvature(conn).is_zero
        q1p, q2p = ParamPoly.generators("q1", "q2")
        assert singular_locus(conn) == q1p * 4 + q2p * q2p

    _check(9, "oscillator Berry connection, curvature, singular locus", 1.0, body)


def test_criterion_10_property_suites():
    def body():
        rng = random.Random(100)
        for _ in range(200):
            a, b, c = (random_poly(rng, max_terms=3, max_x=4) for _ in range(3))
            assert star(star(a, b), c) == star(a, star(b, c))
        for _ in range(200):
            a, b = random_poly(rng, max_terms=3, max_x=4), random_poly(rng, max_terms=3, max_x=4)
            assert dagger(star(a, b)) == star(dagger(b), dagger(a))
        for n in range(2, 9):
            report = oracle_run(n, 100, seed=1000 + n)
            assert report["failures"] == 0
            assert report["max_deviation"] <= 1e-10

        def field(q):
            q1, q2 = q
            m1 = np.array(
                [[0.3 * q1 + 0.1j * q2**2, 0.2 - 0.05j * q1 * q2], [0.1 * q2, -0.2j * q1]],
                dtype=complex,
            )
            m2 = np.array(
                [[0.1j * q2, 0.4 * q1 * q1], [0.2j * q1 * q2, 0.3 * q2]], dtype=complex
            )
            return m1, m2

        big = plaquette_defect(field, (0.3, 0.7), 1e-2)
        small = plaquette_defect(field, (0.3, 0.7), 5e-3)
        assert big / small >= 7.0

        spec = bundled("ix3").spec
        theta = solve_perturbative(spec.h0, spec.v, 2)
        moved = solution_family_closure(spec, theta, [0, 1], [1])
        assert metric_residual(spec, moved).is_zero

    _check(10, "property suites: associativity, adjoints, finite oracle, transport", 60.0, body)


def test_criterion_11_berry_locus_is_where_the_partner_loses_its_frequency(capsys):
    # H = p^2 + q1 x^2 + i q2 x p has the metric exp(r p^2), r = -q2/(2 q1 hbar),
    # and E = exp((r/2) p^2) is its pointwise square root.  H * E = h E, and
    # E^-1 is p-only, so E^-1 * H * E = h: h is the metric's hermitian partner.
    def body():
        q1, q2 = ParamPoly.generators("q1", "q2")
        inv_q1 = q1.monomial_inverse()
        e = ExpQuadForm.pure_exponent(PhasePoly.monomial(q2 * inv_q1 * Fraction(-1, 4), 0, 2, -1))
        h = star_poly_expquad(oscillator_hamiltonian(), e, "left").prefactor
        expected = {
            (0, 2, 0): q2 * q2 * inv_q1 * Fraction(1, 4) + 1,
            (2, 0, 0): q1,
            (0, 0, 1): q2 * Fraction(1, 2),
        }
        assert h == PhasePoly(expected)
        assert is_hermitian(h)
        # h = A p^2 + B x^2 + const has squared frequency 4 A B: the locus
        squared_frequency = h.coeff(0, 2, 0) * h.coeff(2, 0, 0) * 4
        assert squared_frequency == singular_locus(moyal_connection_solve())
        # scan-locus's region_sign is its sign, on each side of the locus
        for constants, sign in ((("2", "0.5", "0.25"), 1), (("1", "1", "0.5"), -1)):
            # a p^2 + b x^2 + i c x p for the oscillator constants, as q1 = b/a, q2 = c/a
            omega, alpha, beta = map(Fraction, constants)
            a, b, c = (omega - alpha - beta) / 2, (omega + alpha + beta) / 2, alpha - beta
            point = {"q1": b / a, "q2": c / a}
            assert point["q1"] != 0
            flags = [f"--{k}={v}" for k, v in zip(("omega", "alpha", "beta"), constants)]
            assert main(["scan-locus", *flags]) == 0
            (record,) = json.loads(capsys.readouterr().out)["records"]
            assert (record["q1"], record["q2"]) == (float(point["q1"]), float(point["q2"]))
            value = squared_frequency.eval({k: GaussianRational(v) for k, v in point.items()})
            assert value.is_real
            assert (value.re > 0) - (value.re < 0) == record["region_sign"] == sign

    _check(11, "Berry singular locus = zero frequency of the metric's hermitian partner", 1.0, body)
