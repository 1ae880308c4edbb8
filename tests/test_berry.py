import random
from fractions import Fraction

import numpy as np
import pytest

from starmetric.berry import (
    STEP,
    TRIAL_BLOCK,
    MoyalConnection,
    RankDeficient,
    _comm,
    _double_bracket,
    _mul2x2,
    _solve_two_unknowns_exact,
    coalescing_eigenvectors,
    connection_residual,
    curvature_matrix,
    curvature_of_field,
    gauge_fixed_connection,
    holonomy_exceptional,
    holonomy_product_form,
    locus_distance_from_origin,
    locus_grid,
    locus_value,
    matrix_exp_taylor,
    model_hamiltonian,
    model_partials,
    moyal_connection_solve,
    moyal_curvature,
    oscillator_hamiltonian,
    oscillator_parameters,
    plaquette_defect,
    plaquette_transport,
    sample_regular_points,
    singular_locus,
    require_solved,
    solve_connection_2x2,
    solve_connection_stack,
    verify_connection_matrix,
)
from starmetric.phasepoly import PhasePoly
from starmetric.scalars import (
    GaussianRational,
    ParamPoly,
    PoleAtPoint,
    RatFunc2,
    primitive_real_poly,
)
from starmetric.star import star_commutator

from _helpers import ratfunc_generators

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
        f = holonomy_product_form()
        assert np.max(np.abs(f - F_EXPECTED)) <= 1e-4

    def test_identity_for_zero_generator(self):
        assert np.allclose(matrix_exp_taylor(np.zeros((2, 2))), np.eye(2))

    def test_taylor_series_stops_after_200_terms(self):
        # sums[k] = sum of m^j / j! for j <= k.  The terms 150^k / k! of
        # 150 I never fall below 1e-30 up to k = 200; at 100 I the term
        # k = 201 would vanish in the roundoff of the sum
        m = 150.0 * np.eye(2, dtype=complex)
        sums, term = [np.eye(2, dtype=complex)], np.eye(2, dtype=complex)
        for k in range(1, 202):
            term = term @ m / k
            sums.append(sums[-1] + term)
        assert np.allclose(matrix_exp_taylor(m), sums[200], rtol=1e-14, atol=0)
        assert not np.allclose(sums[200], sums[201], rtol=1e-14, atol=0)

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


def random_stack(rng, shape):
    return rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))


class TestProduct2x2:
    @pytest.mark.parametrize(
        "left, right",
        [((), (100,)), ((100, 4), (100, 1)), ((), ()), ((3, 1), (5,))],
        ids=["partial-by-stack", "solve-columns", "one-matrix", "outer"],
    )
    def test_equals_matmul(self, left, right):
        rng = np.random.default_rng(31)
        a, b = random_stack(rng, left), random_stack(rng, right)
        product = _mul2x2(a, b)
        expected = a @ b
        assert product.shape == expected.shape
        assert np.max(np.abs(product - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_commutator_of_a_matrix_with_itself_is_exactly_zero(self):
        a = random_stack(np.random.default_rng(32), (100,))
        assert np.array_equal(_comm(a, a), np.zeros_like(a))


class TestConnection2x2:
    def test_gauge_fixed_satisfies_equation(self):
        q = (0.5, 1.0 / 3.0)
        res = verify_connection_matrix(
            model_hamiltonian(q), model_partials(), gauge_fixed_connection(q)
        )
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
            res = verify_connection_matrix(model_hamiltonian(q), model_partials(), a)
            assert res <= 1e-10

    def test_rank_deficient_at_exceptional_points(self):
        for point in ((0.0, 1.0), (0.0, -1.0)):
            with pytest.raises(RankDeficient):
                solve_connection_2x2(point)

    def test_stack_agrees_with_single_points(self):
        points = np.array(regular_points(seed=21, count=200))
        self.check_against_single_points(points.reshape(10, 20, 2), points)
        # a block of berry2x2's trials
        block = sample_regular_points(np.random.default_rng(24), TRIAL_BLOCK)
        self.check_against_single_points(block, block)

    @staticmethod
    def check_against_single_points(stack, points):
        solved = solve_connection_2x2(stack)
        printed = gauge_fixed_connection(stack)
        residuals = verify_connection_matrix(model_hamiltonian(stack), model_partials(), solved)
        assert residuals.shape == stack.shape[:-1]
        for index, q in zip(np.ndindex(stack.shape[:-1]), points):
            one_solved = solve_connection_2x2(q)
            one_printed = gauge_fixed_connection(q)
            for a in range(2):
                assert np.max(np.abs(solved[a][index] - one_solved[a])) <= 1e-12
                assert np.max(np.abs(printed[a][index] - one_printed[a])) <= 1e-12
            one_residual = verify_connection_matrix(model_hamiltonian(q), model_partials(), one_solved)
            assert abs(residuals[index] - one_residual) <= 1e-12

    @pytest.mark.parametrize("point", [(0.0, 1.0), (0.0, -1.0)])
    def test_stack_with_exceptional_point_is_rank_deficient(self, point):
        block = sample_regular_points(np.random.default_rng(25), TRIAL_BLOCK)
        for stack in (
            np.array(regular_points(seed=22, count=5) + [point, (0.0, 1.0)]),
            # a block of berry2x2's trials with the point in the middle
            np.insert(block[1:], TRIAL_BLOCK // 2, point, axis=0),
        ):
            with pytest.raises(RankDeficient, match=rf"singular at q = \({point[0]}, {point[1]}\)"):
                solve_connection_2x2(stack)

    def test_stacked_solve_masks_the_exceptional_points(self):
        # berry2x2's first block: the trials, then both exceptional points
        block = sample_regular_points(np.random.default_rng(26), TRIAL_BLOCK)
        probes = [(0.0, 1.0), (0.0, -1.0)]
        a1, a2, singular, incompatible = solve_connection_stack(np.concatenate([block, probes]))
        assert singular.tolist() == [False] * TRIAL_BLOCK + [True, True]
        assert not incompatible.any()
        # a trial row does not depend on the rows stacked with it
        alone = solve_connection_2x2(block)
        assert np.array_equal(a1[:TRIAL_BLOCK], alone[0])
        assert np.array_equal(a2[:TRIAL_BLOCK], alone[1])
        for point in probes:
            one = solve_connection_stack(point)
            assert (bool(one.singular), bool(one.incompatible)) == (True, False)
            assert np.isfinite(one.a1).all() and np.isfinite(one.a2).all()

    def test_require_solved_names_the_first_bad_point_and_why(self):
        q = np.array([(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)])
        none = np.zeros(3, dtype=bool)
        singular = np.array([False, False, True])
        incompatible = np.array([False, True, False])
        require_solved(q, none, none)
        with pytest.raises(RankDeficient, match=r"^gauge incompatible at q = \(0.3, 0.4\)$"):
            require_solved(q, singular, incompatible)
        with pytest.raises(RankDeficient, match=r"^connection system singular at q = \(0.5, 0.6\)$"):
            require_solved(q, singular, none)

    def test_stack_with_pole_raises(self):
        stack = np.array(regular_points(seed=23, count=5) + [(0.0, -1.0), (0.0, 1.0)])
        with pytest.raises(PoleAtPoint, match=r"q = \(0.0, -1.0\)"):
            gauge_fixed_connection(stack)

    def test_general_form_poles(self):
        # the general form at w1 = 1/2, y1 = y2 = 0 is singular at both
        # exceptional points
        for point in ((0.0, 1.0), (0.0, -1.0)):
            with pytest.raises(PoleAtPoint):
                gauge_fixed_connection(point)

    def test_regular_at_origin(self):
        a1, a2 = gauge_fixed_connection((0.0, 0.0))
        assert np.max(np.abs(a1 - np.array([[0, -0.5], [0.5, 0]]))) <= 1e-14
        assert np.max(np.abs(a2 - 1j * a1)) <= 1e-14


class TestSampler:
    @pytest.mark.parametrize("seed", [0, 7, 14, 2024])
    @pytest.mark.parametrize("count", [0, 1, 7, 100])
    def test_same_points_as_drawing_one_pair_at_a_time(self, seed, count):
        points = sample_regular_points(np.random.default_rng(seed), count)
        assert points.shape == (count, 2)
        assert np.array_equal(points, np.array(regular_points(seed, count)).reshape(count, 2))

    def test_blocks_continue_the_stream(self):
        expected = np.array(regular_points(0, 500))
        # seed 0 drops pairs within the first 500 draws, so some block draws twice
        assert not np.array_equal(expected, np.random.default_rng(0).uniform(-1.5, 1.5, size=(500, 2)))
        rng = np.random.default_rng(0)
        blocks = [sample_regular_points(rng, n) for n in (7, 0, 93, 400)]
        assert np.array_equal(np.concatenate(blocks), expected)


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

    def test_each_shifted_point_is_evaluated_once(self):
        points = []

        def field(q):
            points.append(tuple(q))
            return gauge_fixed_connection(q)

        q = (0.5, 1.0 / 3.0)
        f = curvature_of_field(field, q)
        # the base point and the four shifted points, each once
        assert len(points) == 5 and len(set(points)) == 5
        # the central differences of each (i, j) from fields of their own, bit for bit
        a1, a2 = gauge_fixed_connection(q)
        d = []
        for i in range(2):
            row = []
            for j in range(2):
                qp, qm = list(q), list(q)
                qp[j] += STEP
                qm[j] -= STEP
                diff = gauge_fixed_connection(qp)[i] - gauge_fixed_connection(qm)[i]
                row.append(diff / (2.0 * STEP))
            d.append(row)
        assert np.array_equal(f, curvature_matrix(a1, a2, d[0][1], d[1][0]))

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

        def transformed(q):
            # A_i -> A_i + S (dLambda/dq_i) Lambda^{-1} S^{-1}
            s, lam_inv = eig_s(q), np.linalg.inv(lam_func(q))
            shift = [s @ dlam_func(q, i) @ lam_inv @ np.linalg.inv(s) for i in range(2)]
            return tuple(a + b for a, b in zip(connection(q), shift))

        q = (0.7, 0.2)
        res = verify_connection_matrix(model_hamiltonian(q), model_partials(), connection(q))
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
        self.q1, self.q2 = ratfunc_generators()
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
        point = {"q1": GaussianRational(1), "q2": GaussianRational(1)}
        h = oscillator_hamiltonian().map_coeffs(lambda c: c.eval(point))
        dh1 = PhasePoly.x(2)
        lhs = star_commutator(dh1, h)
        rhs = star_commutator(star_commutator(a1, h), h)
        assert lhs == rhs

    def test_curvature_identically_zero(self):
        assert moyal_curvature(self.conn).is_zero

    def test_perturbed_connection_has_curvature(self):
        bad = MoyalConnection(self.conn.s1 * 2, self.conn.t1, self.conn.s2, self.conn.t2)
        assert not moyal_curvature(bad).is_zero

    @pytest.mark.parametrize("field", MoyalConnection._fields)
    def test_perturbed_coefficient_leaves_a_residual(self, field):
        bad = self.conn._replace(**{field: getattr(self.conn, field) + self.q1})
        r1, r2 = connection_residual(bad)
        perturbed, other = (r1, r2) if field.endswith("1") else (r2, r1)
        assert not perturbed.is_zero
        assert other.is_zero

    @pytest.mark.parametrize("field", MoyalConnection._fields)
    def test_unequal_denominators_keep_the_checks_zero(self, field):
        # the same value over the denominator (q1 + 1) D: D is then the
        # product of two distinct denominators
        coeff = getattr(self.conn, field)
        factor = (self.q1 + 1).num
        scaled = RatFunc2(coeff.num * factor, coeff.den * factor)
        assert scaled == coeff and scaled.den != coeff.den
        conn = self.conn._replace(**{field: scaled})
        r1, r2 = connection_residual(conn)
        assert r1.is_zero and r2.is_zero
        assert moyal_curvature(conn).is_zero

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

    @pytest.mark.xfail(strict=True, reason="needs the bivariate gcd of ROADMAP item 9")
    def test_singular_locus_of_d_and_q1_d_is_q1_d(self):
        q1p, q2p = ParamPoly.generators("q1", "q2")
        one, zero = RatFunc2(1), RatFunc2(0)
        conn = MoyalConnection(one / self.delta, one / (self.q1 * self.delta), zero, zero)
        assert singular_locus(conn) == primitive_real_poly(q1p * (q1p * 4 + q2p * q2p))

    def test_singular_locus_takes_a_repeated_denominator_once(self):
        q1p, q2p = ParamPoly.generators("q1", "q2")
        one, zero = RatFunc2(1), RatFunc2(0)
        d, q1_d, other = one / self.delta, one / (self.q1 * self.delta), one / (self.q1 + 1)
        assert singular_locus(MoyalConnection(d, q1_d, d, zero)) == singular_locus(
            MoyalConnection(d, q1_d, zero, zero)
        )
        assert singular_locus(MoyalConnection(d, other, d, other)) == primitive_real_poly(
            (q1p * 4 + q2p * q2p) * (q1p + 1)
        )

    def test_double_bracket_keeps_the_locus_denominator(self):
        # sums over one shared denominator stay over it: degree 2, not 22
        h = oscillator_hamiltonian()
        for a in (self.conn.a1(), self.conn.a2()):
            for coeff in _double_bracket(a, h).terms.values():
                assert max(sum(key) for key in coeff.den.terms) <= 2

    def test_locus_examples(self):
        # hermitian oscillator point is regular
        q = oscillator_parameters(1, 0, 0)
        assert locus_value(*q) == 4
        # omega^2 = 4 alpha beta lands on the locus
        q = oscillator_parameters(2, 2, Fraction(1, 2))
        assert locus_value(*q) == 0
        assert abs(locus_distance_from_origin(1) - 2**-0.5) < 1e-15

    def test_oscillator_parameters_from_constants(self):
        # a = 5/8, b = 11/8, c = 1/4 for (omega, alpha, beta) = (2, 1/2, 1/4)
        q = oscillator_parameters(2, Fraction(1, 2), Fraction(1, 4))
        assert q == (Fraction(11, 5), Fraction(2, 5))

    def test_locus_grid_matches_locus_value(self):
        q1s = [Fraction(-7, 13) + k * Fraction(1, 17) for k in range(5)]
        q2s = [Fraction(-5, 19), Fraction(0), Fraction(23, 29), Fraction(4)]
        rows, den = locus_grid(q1s, q2s)
        assert [[Fraction(n, den) for n in row] for row in rows] == [
            [locus_value(q1, q2) for q2 in q2s] for q1 in q1s
        ]

    def test_pole_on_locus(self):
        with pytest.raises(PoleAtPoint):
            self.conn.s1.eval(Fraction(-1, 4), 1)


class TestExactElimination:
    """_solve_two_unknowns_exact on rows (d1, d2, dr) meaning d1 s + d2 t = dr."""

    def setup_method(self):
        self.q1, self.q2 = ParamPoly.generators("q1", "q2")
        self.one = self.q1.const_like(1)
        self.zero = self.q1.const_like(0)

    def solvable_rows(self):
        # s = q2 and t = q1; the second row is the first times q2, so the
        # second pivot is the third row
        q1, q2, one, zero = self.q1, self.q2, self.one, self.zero
        first = (q1, one, q1 * q2 + q1)
        return [
            first,
            tuple(v * q2 for v in first),
            (one, q2, q2 + q1 * q2),
            (zero, q1, q1 * q1),
        ]

    def test_solves_an_overdetermined_system(self):
        s, t = _solve_two_unknowns_exact(self.solvable_rows())
        assert s == RatFunc2(self.q2) and t == RatFunc2(self.q1)

    def test_no_first_pivot(self):
        rows = [(self.zero, self.q1, self.q1), (self.zero, self.one, self.one)]
        with pytest.raises(RankDeficient, match="first unknown"):
            _solve_two_unknowns_exact(rows)

    def test_no_second_pivot(self):
        rows = self.solvable_rows()[:2] + [(self.zero, self.zero, self.zero)]
        with pytest.raises(RankDeficient, match="second unknown"):
            _solve_two_unknowns_exact(rows)

    def test_one_inconsistent_row(self):
        rows = self.solvable_rows() + [(self.one, self.one, self.zero)]
        with pytest.raises(RankDeficient, match="inconsistent"):
            _solve_two_unknowns_exact(rows)
