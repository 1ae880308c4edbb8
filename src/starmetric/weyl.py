"""Finite-N Heisenberg-Weyl algebra: clock/shift matrices, the operator <->
torus-function transform, and the discrete star product.

This is the brute-force oracle for the continuum star calculus: the
function-level star product must agree with matrix multiplication under the
transform.  Floating-point roots of unity with explicit tolerances are
deliberate; exactness lives in the continuum modules, cross-validation here.

The discrete phase phi = 2 pi / N plays the role of hbar (the basis rule
e^{-i phi m n'} mirrors the continuum monomial rule); no formal limit is
taken anywhere.

Every kernel is an array expression over one cached table per N, the phase
matrix P[j, k] = e^{-i phi jk}, plus the index table (a - k) mod N, and works
on stacks: an operator or torus function may carry leading batch axes, and a
single one is the stack with none.  `oracle_run` checks a block of trials per
pass this way.  In
Schwinger's unitary operator basis (PNAS 46 (1960) 570), g^n h^m has the
entries w^{nk} on the shift diagonal (k, k - m), so the operator <-> torus
transform is a DFT (a product with P) along each shift diagonal.
`discrete_star` never goes through the operator product: it is the twisted
convolution of the Fourier data with the phase P[m, n'], written as one
contraction.  `oracle_run` compares it with op_to_fun(A B), and a
shared operator product would make that check a tautology; the two sides
share only the tables.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from .scalars import Frozen


class SizeMismatch(ValueError):
    """Two torus functions with different N were combined."""


class TorusFunction(Frozen):
    """Fourier data of an operator: entry (n, m) multiplies e^{i n alpha} e^{i m beta}.
    The grid may carry leading stack axes, one function per index.  The value
    owns a read-only copy of the array it is given."""

    __slots__ = ("n", "fourier")

    def __init__(self, n: int, fourier: np.ndarray):
        fourier = np.array(fourier, dtype=complex)
        if fourier.shape[-2:] != (n, n):
            raise ValueError(f"expected a {n}x{n} grid, got {fourier.shape}")
        fourier.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "fourier", fourier)

    @classmethod
    def basis(cls, n: int, i: int, j: int) -> "TorusFunction":
        grid = np.zeros((n, n), dtype=complex)
        grid[i % n, j % n] = 1.0
        return cls(n, grid)

    def max_abs_diff(self, other: "TorusFunction"):
        """Largest entry of |self - other|: a float for one grid, an array over
        the stack axes for a stack."""
        if self.n != other.n:
            raise SizeMismatch(f"N = {self.n} vs {other.n}")
        dev = np.max(np.abs(self.fourier - other.fourier), axis=(-2, -1))
        return float(dev) if dev.ndim == 0 else dev


def clock_shift(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """g = diag(1, w, ..., w^{N-1}) with w = e^{2 pi i/N}; h the cyclic raise,
    h e_k = e_{k+1 mod N}.  Then g h = e^{i phi} h g and g^N = h^N = 1."""
    if n < 2:
        raise ValueError("N must be at least 2")
    omega = np.exp(2j * np.pi / n)
    g = np.diag(omega ** np.arange(n))
    h = np.roll(np.eye(n, dtype=complex), 1, axis=0)
    return g, h


@lru_cache(maxsize=32)
def _tables(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The phase table P[j, k] = e^{-2 pi i jk/N} and the difference table
    D[a, k] = (a - k) mod N that every kernel below indexes with.  Both are
    shared by every caller, so they are read-only."""
    if n < 2:
        raise ValueError("N must be at least 2")
    k = np.arange(n)
    p = np.exp(-2j * np.pi / n * (np.outer(k, k) % n))
    d = (k[:, None] - k) % n
    p.flags.writeable = d.flags.writeable = False
    return p, d


def _diagonals(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """[..., k, m] = x[..., k, k - m]; d[:, :1] is the column of row numbers k."""
    return x[..., d[:, :1], d]


def _merge_last(x: np.ndarray) -> np.ndarray:
    """[..., i, j, k] -> [..., i, j k]."""
    return x.reshape(x.shape[:-2] + (-1,))


def op_to_fun(a: np.ndarray) -> TorusFunction:
    """Fourier coefficients a_{n,m} = tr((g^n h^m)^dagger A) / N: the DFT of
    the shift diagonal A[k, k - m] along k."""
    n = a.shape[-1]
    p, d = _tables(n)
    return TorusFunction(n, p @ _diagonals(a, d) / n)


def fun_to_op(f: TorusFunction) -> np.ndarray:
    """The inverse DFT of each column m, put back on the diagonal A[k, k - m]."""
    p, d = _tables(f.n)
    return _diagonals(p.conj() @ f.fourier, d)


def discrete_star(f: TorusFunction, g: TorusFunction) -> TorusFunction:
    """Bilinear extension of the basis rule

    (e^{i n a} e^{i m b}) * (e^{i n' a} e^{i m' b})
        = e^{-i phi m n'} e^{i (n+n') a} e^{i (m+m') b},

    exponents reduced mod N (g^N = h^N = 1 exactly).  The phase matches the
    reordering g^n h^m g^{n'} h^{m'} = e^{-i phi m n'} g^{n+n'} h^{m+m'}.
    Output (a, b) sums f[a - n', m] P[m, n'] g[n', b - m] over m and n': one
    matrix product per stack index, over the merged axis (m, n').
    """
    if f.n != g.n:
        raise SizeMismatch(f"N = {f.n} vs {g.n}")
    p, d = _tables(f.n)
    left = np.swapaxes(f.fourier[..., d, :], -1, -2) * p  # [..., a, m, n'] = f[a - n', m] P[m, n']
    right = np.swapaxes(g.fourier, -1, -2)[..., d, :]  # [..., b, m, n'] = g[n', b - m]
    return TorusFunction(f.n, _merge_last(left) @ np.swapaxes(_merge_last(right), -1, -2))

def discrete_dagger(f: TorusFunction) -> TorusFunction:
    """Image of the operator adjoint: entry (n, m) goes to the conjugate at
    (-n mod N, -m mod N) with phase e^{-i phi n m} from reordering
    (g^n h^m)^dagger = e^{-i phi n m} g^{-n} h^{-m}."""
    p, d = _tables(f.n)
    neg = d[0]  # -k mod N
    return TorusFunction(f.n, (np.conj(f.fourier) * p)[..., neg[:, None], neg])


# the largest deviation that a finite-N check accepts
TOLERANCE = 1e-10


def discrete_is_hermitian(f: TorusFunction):
    return f.max_abs_diff(discrete_dagger(f)) <= TOLERANCE


def random_operator(n: int, rng: np.random.Generator, stack: Tuple[int, ...] = ()) -> np.ndarray:
    """A complex Gaussian N x N matrix, or a stack of them of shape stack + (N, N).
    Each matrix draws its real part, then its imaginary part."""
    re, im = np.moveaxis(rng.standard_normal(stack + (2, n, n)), -3, 0)
    return re + 1j * im


def _star_deviation(a: np.ndarray, b: np.ndarray):
    return op_to_fun(a @ b).max_abs_diff(discrete_star(op_to_fun(a), op_to_fun(b)))


def isomorphism_trial(n: int, rng: np.random.Generator) -> float:
    """Max deviation of op_to_fun(A B) from the discrete star of the images."""
    return _star_deviation(*random_operator(n, rng, (2,)))


# Most grid entries (trials x N^3) in one stacked oracle pass: the star
# contraction's complex intermediates then stay near 4 MB each.
ORACLE_BLOCK = 1 << 18


def oracle_run(n: int, trials: int, seed: int) -> dict:
    """Isomorphism + adjoint trials; the CLI surface of this module.  Each trial
    draws A, B and C; a block of trials is checked in one stacked pass."""
    _tables(n)  # rejects N < 2 also when there are no trials
    rng = np.random.default_rng(seed)
    block = max(1, ORACLE_BLOCK // n**3)
    worst = 0.0
    passes = 0
    for done in range(0, trials, block):
        a, b, c = np.moveaxis(random_operator(n, rng, (min(block, trials - done), 3)), 1, 0)
        adjoint = op_to_fun(np.conj(np.swapaxes(c, -1, -2)))
        dev = np.maximum(_star_deviation(a, b), adjoint.max_abs_diff(discrete_dagger(op_to_fun(c))))
        worst = max(worst, float(np.max(dev)))
        passes += int(np.count_nonzero(dev <= TOLERANCE))
    return {
        "n": n,
        "trials": trials,
        "passes": passes,
        "failures": trials - passes,
        "max_deviation": worst,
        "tolerance": TOLERANCE,
    }
