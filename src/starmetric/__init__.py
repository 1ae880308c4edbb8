"""Exact star-product calculus for quasi-hermitian metric operators and
Berry connections, over Gaussian-rational coefficients."""

from .scalars import (
    GaussianRational,
    ParamPoly,
    PoleAtPoint,
    RatFunc2,
    ZeroDenominator,
)
from .phasepoly import (
    CouplingMismatch,
    CouplingSeries,
    ModelParams,
    PhasePoly,
)
from .star import (
    BadConstantTerm,
    ExpQuadForm,
    MixedExponent,
    NonTerminating,
    NonzeroConstantTerm,
    dagger,
    eqf_is_positive_hermitian,
    is_hermitian,
    star,
    star_commutator,
    star_exp,
    star_log,
    star_poly_expquad,
    star_series,
)
from .metric import (
    CertReport,
    DegenerateParams,
    HamiltonianSpec,
    PDEOperator,
    UnsolvableOrder,
    certify_metric,
    cubic_pt,
    expand_gaussian_in_coupling,
    gaussian_branch_identities,
    gaussian_family_constraint,
    log_linear_in_n_check,
    metric_residual,
    number_observable,
    observable_residual,
    pde_operator,
    quadratic_hamiltonian,
    shifted_oscillator,
    solution_family_closure,
    solve_perturbative,
    symbolic_quadratic,
)
from .berry import (
    MoyalConnection,
    RankDeficient,
    curvature_matrix,
    holonomy_exceptional,
    moyal_connection_solve,
    moyal_curvature,
    plaquette_transport,
    singular_locus,
    solve_connection_2x2,
    verify_connection_matrix,
)
from .weyl import (
    SizeMismatch,
    TorusFunction,
    clock_shift,
    discrete_dagger,
    discrete_is_hermitian,
    discrete_star,
    fun_to_op,
    op_to_fun,
)

__version__ = "0.1.0"
