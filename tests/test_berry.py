import random
from fractions import Fraction

import numpy as np
import pytest

from starmetric import (
    GaussianRational,
    PhasePoly,
    PoleAtPoint,
    RankDeficient,
    RatFunc2,
    curvature_matrix,
    holonomy_exceptional,
    moyal_connection_solve,
    moyal_curvature,
    plaquette_transport,
    singular_locus,
    solve_connection_2x2,
    verify_connection_matrix,
)
from starmetric import berry
from starmetric.berry import (
    MoyalConnection,
    coalescing_eigenvectors,
    connection_residual,
    curvature_of_field,
    gauge_fixed_connection,
    gauge_transform_field,
    general_connection,
    holonomy_product_form,
    locus_distance_from_origin,
    locus_value,
    model_hamiltonian,
    model_partials,
    oscillator_hamiltonian,
    oscillator_parameters,
    plaquette_defect,
)
from starmetric.scalars import ParamPoly, primitive_real_poly
from starmetric.star import star_commutator

F_EXPECTED = np.array([[-1.0, -2j], [0.0, 1.0]])


def regular_points(seed, count, box=1.5, margin=0.1):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        q = rng.uniform(-box, box, size=2)
        z = q[0] + 1j * q[1]
        if abs(1 + z * z) >= margin:
            out.append(q)
    return out


class TestMonodromy:
    def test_exceptional_loop_matrix(self):
        f = holonomy_exceptional()
        assert np.max(np.abs(f - F_EXPECTED)) <= 1e-12

    def test_product_form_cross_check(self):
        f = holonomy_product_form(100000)
        assert np.max(np.abs(f - F_EXPECTED)) <= 1e-4

    def test_identity_for_zero_generator(self):
        assert np.allclose(berry.matrix_exp_taylor(np.zeros((2, 2))), np.eye(2))

    def test_eigenvector_swap_numeric(self):
        f = holonomy_exceptional()
        up, um = coalescing_eigenvectors(0.02 * np.exp(1.3j))
        assert np.max(np.abs(f @ up - um)) <= 1e-12
        assert np.max(np.abs(f @ um - up)) <= 1e-12

    def test_eigenvector_swap_exact_leading_order(self):
        # F acts on (-i +- sigma, 1) with sigma any symbol standing for
        # i sqrt(2 w); the swap is exact linear algebra, independent of sigma
        (sigma,) = ParamPoly.generators("sigma")
        i = GaussianRational(0, 1)
        f = [[GaussianRational(-1), GaussianRational(0, -2)], [GaussianRational(0), GaussianRational(1)]]
        u_plus = [sigma.const_like(-i) + sigma, sigma.const_like(1)]
        u_minus = [sigma.const_like(-i) - sigma, sigma.const_like(1)]
        acted = [
            f[0][0] * u_plus[0] + f[0][1] * u_plus[1],
            f[1][0] * u_plus[0] + f[1][1] * u_plus[1],
        ]
        assert acted[0] == u_minus[0] and acted[1] == u_minus[1]
        acted = [
            f[0][0] * u_minus[0] + f[0][1] * u_minus[1],
            f[1][0] * u_minus[0] + f[1][1] * u_minus[1],
        ]
        assert acted[0] == u_plus[0] and acted[1] == u_plus[1]


class TestConnection2x2:
    def test_gauge_fixed_satisfies_equation(self):
        q = (0.5, 1.0 / 3.0)
        res = verify_connection_matrix(
            model_hamiltonian(q), model_partials(q), gauge_fixed_connection(q)
        )
        assert res <= 1e-10

    def test_general_solution_satisfies_equation(self):
        q = (0.5, 1.0 / 3.0)
        a = general_connection(q, 0.3, 1.1, -0.2)
        res = verify_connection_matrix(model_hamiltonian(q), model_partials(q), a)
        assert res <= 1e-10

    def test_zero_connection_for_constant_hermitian(self):
        h = np.diag([1.0, 2.0]).astype(complex)
        zero = np.zeros((2, 2), dtype=complex)
        assert verify_connection_matrix(h, (zero, zero), (zero, zero)) == 0.0

    def test_solve_matches_printed_form(self):
        for q in regular_points(seed=13, count=20):
            solved = solve_connection_2x2(q)
            printed = gauge_fixed_connection(q)
            for s, r in zip(solved, printed):
                assert np.max(np.abs(s - r)) <= 1e-10

    def test_solve_residual_at_random_points(self):
        for q in regular_points(seed=14, count=100):
            a = solve_connection_2x2(q)
            res = verify_connection_matrix(model_hamiltonian(q), model_partials(q), a)
            assert res <= 1e-10

    def test_rank_deficient_at_exceptional_points(self):
        for point in ((0.0, 1.0), (0.0, -1.0)):
            with pytest.raises(RankDeficient):
                solve_connection_2x2(point)

    def test_general_form_poles(self):
        with pytest.raises(PoleAtPoint):
            general_connection((0.0, 0.0), 0.3)
        with pytest.raises(PoleAtPoint):
            gauge_fixed_connection((0.0, 1.0))

    def test_regular_at_origin(self):
        a1, a2 = gauge_fixed_connection((0.0, 0.0))
        assert np.max(np.abs(a1 - np.array([[0, -0.5], [0.5, 0]]))) <= 1e-14
        assert np.max(np.abs(a2 - 1j * a1)) <= 1e-14


class TestCurvature:
    def test_model_curvature_vanishes_off_locus(self):
        for q in [(0.5, 1.0 / 3.0), (1.2, -0.7), (-0.8, 0.2)]:
            f = curvature_of_field(gauge_fixed_connection, q)
            assert np.max(np.abs(f)) <= 1e-8

    def test_constant_commuting_fields(self):
        m = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        assert np.max(np.abs(curvature_matrix(m, m, zero, zero))) == 0.0

    def test_symmetric_construction_cancels(self):
        m = np.array([[0.0, 1.0], [1j, 0.0]], dtype=complex)
        field = lambda q: (q[1] * m, q[0] * m)
        f = curvature_of_field(field, (0.4, -0.3))
        assert np.max(np.abs(f)) <= 1e-10

    def test_gauge_transformation_leaves_curvature(self):
        # eigenbasis field S(q) built from the analytic eigenvectors; the
        # connection dS/dq S^{-1} is flat, and stays flat after a random
        # smooth diagonal gauge change
        def eig_s(q):
            z = q[0] + 1j * q[1]
            lam = np.sqrt(1.0 + z * z)
            return np.array([[1.0 + lam, z], [z, -lam - 1.0]], dtype=complex)

        def ds(q, i):
            z = q[0] + 1j * q[1]
            dz = 1.0 if i == 0 else 1j
            lam = np.sqrt(1.0 + z * z)
            dlam = z * dz / lam
            return np.array([[dlam, dz], [dz, -dlam]], dtype=complex)

        def connection(q):
            s_inv = np.linalg.inv(eig_s(q))
            return ds(q, 0) @ s_inv, ds(q, 1) @ s_inv

        rng = random.Random(15)
        coeffs = [[rng.uniform(-0.5, 0.5) for _ in range(2)] for _ in range(2)]

        def lam_func(q):
            return np.diag(
                [
                    np.exp(coeffs[0][0] * q[0] + coeffs[0][1] * q[1]),
                    np.exp(coeffs[1][0] * q[0] + coeffs[1][1] * q[1]),
                ]
            ).astype(complex)

        def dlam_func(q, i):
            lam = lam_func(q)
            return np.diag([coeffs[0][i], coeffs[1][i]]) @ lam

        transformed = gauge_transform_field(connection, eig_s, lam_func, dlam_func)
        q = (0.7, 0.2)
        res = verify_connection_matrix(model_hamiltonian(q), model_partials(q), connection(q))
        assert res <= 1e-9
        f_before = curvature_of_field(connection, q)
        f_after = curvature_of_field(transformed, q)
        assert np.max(np.abs(f_before)) <= 1e-8
        assert np.max(np.abs(f_after - f_before)) <= 1e-8


class TestPlaquette:
    CONST = (
        np.array([[0.0, 1.0], [0.5j, 0.0]], dtype=complex),
        np.array([[0.2j, 0.0], [1.0, 0.1]], dtype=complex),
    )

    def test_constant_field_gives_commutator(self):
        a1, a2 = self.CONST
        field = lambda q: self.CONST
        dq = 1e-3
        transport = plaquette_transport(field, (0.0, 0.0), dq)
        expected = np.eye(2) + (a1 @ a2 - a2 @ a1) * dq**2
        assert np.max(np.abs(transport - expected)) <= 10 * dq**3

    def test_linear_field_picks_up_derivative(self):
        n1 = np.array([[0.3, -0.2j], [0.1, 0.0]], dtype=complex)
        field = lambda q: (q[1] * n1, np.zeros((2, 2), dtype=complex))
        dq = 1e-3
        transport = plaquette_transport(field, (0.2, 0.4), dq)
        recovered = (transport - np.eye(2)) / dq**2
        # F_12 = dA1/dq2 + [A1, A2]; at this point [A1, A2] = 0 since A2 = 0
        assert np.max(np.abs(recovered - n1)) <= 1e-2

    def test_model_field_defect_third_order(self):
        q = (0.6, 0.25)
        d = plaquette_defect(gauge_fixed_connection, q, 1e-3)
        assert d <= 1e-8

    def test_step_halving_order(self):
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
        assert big / small >= 8.0 / 1.2


class TestMoyalConnection:
    def setup_method(self):
        self.conn = moyal_connection_solve()
        self.q1, self.q2 = RatFunc2.generators()
        self.delta = self.q1 * 4 + self.q2 * self.q2
        self.i = RatFunc2(ParamPoly.constant(("q1", "q2"), GaussianRational(0, 1)))

    def test_printed_coefficients(self):
        assert self.conn.s1 == self.i / self.delta
        assert self.conn.t1 == -(self.q2 / (self.delta * 2))
        assert self.conn.s2 == self.i * self.q2 / (self.delta * 2)
        assert self.conn.t2 == self.q1 / self.delta

    def test_double_commutator_residual_exactly_zero(self):
        r1, r2 = connection_residual(self.conn)
        assert r1.is_zero and r2.is_zero

    def test_residual_at_sample_point(self):
        # substitute (q1, q2) = (1, 1) and expand with exact arithmetic
        a1 = self.conn.a1().map_coeffs(lambda c: c.eval(1, 1))
        h = oscillator_hamiltonian().map_coeffs(lambda c: c.eval(1, 1))
        dh1 = PhasePoly.x(2)
        lhs = star_commutator(dh1, h)
        rhs = star_commutator(star_commutator(a1, h), h)
        assert lhs == rhs

    def test_curvature_identically_zero(self):
        assert moyal_curvature(self.conn).is_zero

    def test_perturbed_connection_has_curvature(self):
        bad = MoyalConnection(self.conn.s1 * 2, self.conn.t1, self.conn.s2, self.conn.t2)
        assert not moyal_curvature(bad).is_zero

    def test_zero_connection_curvature(self):
        zero = RatFunc2(0)
        assert moyal_curvature(MoyalConnection(zero, zero, zero, zero)).is_zero

    def test_homogeneous_ambiguity(self):
        # adding lambda(q) H to a component changes the residual by nothing
        lam = self.q2 / (self.q1 * self.q1 + 3)
        h = oscillator_hamiltonian()
        a1 = self.conn.a1() + h.scaled(lam)
        dh1 = PhasePoly.x(2)
        res = star_commutator(star_commutator(a1, h), h) - star_commutator(dh1, h)
        assert res.is_zero

    def test_singular_locus(self):
        q1p, q2p = ParamPoly.generators("q1", "q2")
        assert singular_locus(self.conn) == q1p * 4 + q2p * q2p

    @pytest.mark.xfail(strict=True, reason="needs the bivariate gcd of ROADMAP item 7")
    def test_singular_locus_of_d_and_q1_d_is_q1_d(self):
        q1p, q2p = ParamPoly.generators("q1", "q2")
        one, zero = RatFunc2(1), RatFunc2(0)
        conn = MoyalConnection(one / self.delta, one / (self.q1 * self.delta), zero, zero)
        assert singular_locus(conn) == primitive_real_poly(q1p * (q1p * 4 + q2p * q2p))

    def test_double_bracket_keeps_the_locus_denominator(self):
        # sums over one shared denominator stay over it: degree 2, not 22
        h = oscillator_hamiltonian()
        for a in self.conn.components():
            for coeff in berry._double_bracket(a, h).terms.values():
                assert max(sum(key) for key in coeff.den.terms) <= 2

    def test_locus_examples(self):
        # hermitian oscillator point is regular
        q = oscillator_parameters(1, 0, 0)
        assert locus_value(*q) == 4
        # omega^2 = 4 alpha beta lands on the locus
        q = oscillator_parameters(2, 2, Fraction(1, 2))
        assert locus_value(*q) == 0
        assert abs(locus_distance_from_origin(1) - 2**-0.5) < 1e-15

    def test_locus_grid_matches_locus_value(self):
        q1s = [Fraction(-7, 13) + k * Fraction(1, 17) for k in range(5)]
        q2s = [Fraction(-5, 19), Fraction(0), Fraction(23, 29), Fraction(4)]
        rows, den = berry.locus_grid(q1s, q2s)
        assert [[Fraction(n, den) for n in row] for row in rows] == [
            [locus_value(q1, q2) for q2 in q2s] for q1 in q1s
        ]

    def test_pole_on_locus(self):
        with pytest.raises(PoleAtPoint):
            self.conn.s1.eval(Fraction(-1, 4), 1)
