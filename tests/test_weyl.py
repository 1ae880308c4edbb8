import itertools

import numpy as np
import pytest

from starmetric.weyl import (
    ORACLE_BLOCK,
    SizeMismatch,
    TorusFunction,
    clock_shift,
    discrete_dagger,
    discrete_is_hermitian,
    discrete_star,
    fun_to_op,
    isomorphism_trial,
    op_to_fun,
    oracle_run,
    random_operator,
)

# The discrete phase phi = 2 pi / N stands in for hbar: the basis phase rule
# e^{-i phi m n'} is the finite analogue of the continuum monomial rule
# (compare x * p = xp + i hbar).  No limit N -> infinity is taken or asserted
# anywhere; the finite algebra is exact on its own.


class TestClockShift:
    def test_n2_matrices(self):
        g, h = clock_shift(2)
        assert np.allclose(g, np.diag([1.0, -1.0]))
        assert np.allclose(h, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(g @ h, -h @ g)

    def test_n3_commutation_phase(self):
        g, h = clock_shift(3)
        lhs = g @ h @ np.linalg.inv(g) @ np.linalg.inv(h)
        assert np.max(np.abs(lhs - np.exp(2j * np.pi / 3) * np.eye(3))) <= 1e-12

    def test_unitarity_and_period(self):
        for n in (2, 3, 5, 8):
            g, h = clock_shift(n)
            assert np.max(np.abs(g.conj().T @ g - np.eye(n))) <= 1e-12
            assert np.max(np.abs(h.conj().T @ h - np.eye(n))) <= 1e-12
            assert np.max(np.abs(np.linalg.matrix_power(g, n) - np.eye(n))) <= 1e-12
            assert np.max(np.abs(np.linalg.matrix_power(h, n) - np.eye(n))) <= 1e-12

    def test_commutation_exact_relation(self):
        for n in (2, 4, 7):
            g, h = clock_shift(n)
            assert np.max(np.abs(g @ h - np.exp(2j * np.pi / n) * h @ g)) <= 1e-12

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            clock_shift(1)


class TestTransforms:
    def test_basis_operator_maps_to_single_entry(self):
        g, h = clock_shift(4)
        f = op_to_fun(np.linalg.matrix_power(g, 2) @ h)
        expected = np.zeros((4, 4))
        expected[2, 1] = 1.0
        assert np.max(np.abs(f.fourier - expected)) <= 1e-12

    def test_identity_maps_to_constant(self):
        f = op_to_fun(np.eye(3, dtype=complex))
        assert abs(f.fourier[0, 0] - 1.0) <= 1e-12
        assert np.max(np.abs(f.fourier.flatten()[1:])) <= 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for n in (2, 4, 6):
            a = random_operator(n, rng)
            assert np.max(np.abs(fun_to_op(op_to_fun(a)) - a)) <= 1e-12

    def test_zero_grid(self):
        assert np.max(np.abs(fun_to_op(TorusFunction(3, np.zeros((3, 3)))))) == 0.0

    def test_single_entries(self):
        g, h = clock_shift(5)
        assert np.max(np.abs(fun_to_op(TorusFunction.basis(5, 1, 0)) - g)) <= 1e-12
        assert np.max(np.abs(fun_to_op(TorusFunction.basis(5, 1, 1)) - g @ h)) <= 1e-12


class TestDiscreteStar:
    def test_noncommutativity_phase(self):
        g, h = clock_shift(5)
        fg, fh = op_to_fun(g), op_to_fun(h)
        forward = discrete_star(fg, fh)
        backward = discrete_star(fh, fg)
        # g h = e^{i phi} h g transfers to the function level
        assert forward.max_abs_diff(
            TorusFunction(5, backward.fourier * np.exp(2j * np.pi / 5))
        ) <= 1e-12

    def test_identity_neutral(self):
        rng = np.random.default_rng(2)
        f = op_to_fun(random_operator(4, rng))
        assert discrete_star(f, op_to_fun(np.eye(4, dtype=complex))).max_abs_diff(f) <= 1e-12

    def test_matrix_multiplication_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert isomorphism_trial(4, rng) <= 1e-10

    def test_isomorphism_all_small_n(self):
        rng = np.random.default_rng(4)
        for n in range(2, 9):
            for _ in range(10):
                assert isomorphism_trial(n, rng) <= 1e-10

    def test_associativity_spot_check(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            f, g, h = (op_to_fun(random_operator(3, rng)) for _ in range(3))
            lhs = discrete_star(discrete_star(f, g), h)
            rhs = discrete_star(f, discrete_star(g, h))
            assert lhs.max_abs_diff(rhs) <= 1e-10

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            discrete_star(TorusFunction(2, np.zeros((2, 2))), TorusFunction(3, np.zeros((3, 3))))


class TestDiscreteDagger:
    def test_matches_matrix_adjoint(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 5):
            a = random_operator(n, rng)
            assert discrete_dagger(op_to_fun(a)).max_abs_diff(op_to_fun(a.conj().T)) <= 1e-12

    def test_clock_dagger_is_inverse(self):
        g, _ = clock_shift(5)
        assert discrete_dagger(op_to_fun(g)).max_abs_diff(op_to_fun(np.linalg.inv(g))) <= 1e-12

    def test_hermitian_predicate(self):
        rng = np.random.default_rng(7)
        a = random_operator(5, rng)
        assert discrete_is_hermitian(op_to_fun(a + a.conj().T))
        assert not discrete_is_hermitian(op_to_fun(1j * np.eye(5)))

    def test_oracle_run_summary(self):
        report = oracle_run(3, 15, seed=42)
        assert report["failures"] == 0
        assert report["max_deviation"] <= 1e-10


class TestBasisRules:
    """The rules pinned entry by entry, with phases computed here rather than
    through matrix multiplication."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_star_of_every_basis_pair(self, n):
        phi = 2 * np.pi / n
        for i1, j1, i2, j2 in itertools.product(range(n), repeat=4):
            got = discrete_star(TorusFunction.basis(n, i1, j1), TorusFunction.basis(n, i2, j2))
            rule = TorusFunction.basis(n, i1 + i2, j1 + j2).fourier
            want = TorusFunction(n, np.exp(-1j * phi * j1 * i2) * rule)
            assert got.max_abs_diff(want) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_dagger_of_every_basis_element(self, n):
        phi = 2 * np.pi / n
        for i in range(n):
            for j in range(n):
                rule = TorusFunction.basis(n, -i, -j).fourier
                want = TorusFunction(n, np.exp(-1j * phi * i * j) * rule)
                assert discrete_dagger(TorusFunction.basis(n, i, j)).max_abs_diff(want) <= 1e-12

    def test_clock_shift_words_map_to_basis(self):
        n = 5
        g, h = clock_shift(n)
        for i in range(n):
            for j in range(n):
                word = np.linalg.matrix_power(g, i) @ np.linalg.matrix_power(h, j)
                assert op_to_fun(word).max_abs_diff(TorusFunction.basis(n, i, j)) <= 1e-12


class TestLargeN:
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_isomorphism_and_adjoint(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            assert isomorphism_trial(n, rng) <= 1e-10
            a = random_operator(n, rng)
            assert discrete_dagger(op_to_fun(a)).max_abs_diff(op_to_fun(a.conj().T)) <= 1e-10

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_round_trip(self, n):
        a = random_operator(n, np.random.default_rng(n + 1))
        assert np.max(np.abs(fun_to_op(op_to_fun(a)) - a)) <= 1e-10


def per_trial_oracle(n, trials, seed, tol=1e-10):
    """oracle_run as one trial per iteration through the single-grid API: each
    trial draws A, B and C, each as its real part and then its imaginary part."""
    rng = np.random.default_rng(seed)
    draw = lambda: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    worst, passes = 0.0, 0
    for _ in range(trials):
        a, b, c = draw(), draw(), draw()
        dev = max(
            op_to_fun(a @ b).max_abs_diff(discrete_star(op_to_fun(a), op_to_fun(b))),
            op_to_fun(c.conj().T).max_abs_diff(discrete_dagger(op_to_fun(c))),
        )
        worst = max(worst, dev)
        passes += dev <= tol
    return {
        "n": n,
        "trials": trials,
        "passes": passes,
        "failures": trials - passes,
        "max_deviation": worst,
        "tolerance": tol,
    }


class TestStacks:
    """Every kernel takes a stack of operators or torus functions, and
    oracle_run checks a block of trials per stacked pass."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("trials", [0, 1, 12, 20])
    def test_oracle_run_equals_per_trial_loop(self, n, trials):
        assert oracle_run(n, trials, seed=n + trials) == per_trial_oracle(n, trials, n + trials)

    def test_blocks_carry_the_random_stream(self):
        n = 32
        block = ORACLE_BLOCK // n**3
        assert block > 1
        for trials in (block - 1, block, block + 1, 2 * block + 1):
            assert oracle_run(n, trials, seed=trials) == per_trial_oracle(n, trials, trials)

    def test_empty_stack(self):
        report = oracle_run(3, 0, seed=1)
        assert (report["passes"], report["failures"], report["max_deviation"]) == (0, 0, 0.0)
        empty = op_to_fun(np.zeros((0, 3, 3), dtype=complex))
        assert empty.fourier.shape == (0, 3, 3)
        assert empty.max_abs_diff(discrete_dagger(empty)).shape == (0,)

    def test_random_operator_stack_is_the_trial_stream(self):
        one, many = np.random.default_rng(8), np.random.default_rng(8)
        stack = random_operator(4, many, (2, 3))
        assert stack.shape == (2, 3, 4, 4)
        for i, j in itertools.product(range(2), range(3)):
            assert np.array_equal(stack[i, j], random_operator(4, one))

    def test_kernels_on_a_stack_match_each_grid(self):
        rng = np.random.default_rng(9)
        a, b = random_operator(5, rng, (2, 2, 3))
        fa, fb = op_to_fun(a), op_to_fun(b)
        star, dagger, back = discrete_star(fa, fb), discrete_dagger(fa), fun_to_op(fa)
        broadcast = discrete_star(op_to_fun(a[0, 0]), fb)
        deviations = fa.max_abs_diff(fb)
        assert deviations.shape == (2, 3)
        for i, j in itertools.product(range(2), range(3)):
            fi, gi = op_to_fun(a[i, j]), op_to_fun(b[i, j])
            assert np.max(np.abs(fa.fourier[i, j] - fi.fourier)) <= 1e-13
            assert np.max(np.abs(star.fourier[i, j] - discrete_star(fi, gi).fourier)) <= 1e-13
            assert np.max(np.abs(dagger.fourier[i, j] - discrete_dagger(fi).fourier)) <= 1e-13
            assert np.max(np.abs(back[i, j] - fun_to_op(fi))) <= 1e-13
            want = discrete_star(op_to_fun(a[0, 0]), gi).fourier
            assert np.max(np.abs(broadcast.fourier[i, j] - want)) <= 1e-13
            assert abs(deviations[i, j] - fi.max_abs_diff(gi)) <= 1e-13

    def test_stack_hermitian_predicate(self):
        a = random_operator(3, np.random.default_rng(10), (2,))
        f = op_to_fun(np.stack([a[0] + a[0].conj().T, a[1]]))
        assert discrete_is_hermitian(f).tolist() == [True, False]

    def test_grid_shape_is_checked(self):
        with pytest.raises(ValueError):
            TorusFunction(3, np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            TorusFunction(3, np.zeros(3))
