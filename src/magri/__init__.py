"""Exact variational calculus on two-field differential polynomials.

The ring carries generators u, v and their derivatives, with v
invertible and log v adjoined, over exact rationals.  On top of it:
variational derivatives, Frechet derivatives, formal skew-adjoint
operators, lambda-bracket verification of the Jacobi identity, and
Lenard-Magri recursion for the built-in compatible pair.
"""

from .diffalg import (
    DiffFunction,
    LocalFunctional,
    ONE,
    QQ,
    SubalgebraTag,
    U,
    V,
    V_MINUS,
    V_PLUS,
    ZERO,
    affine_scaled,
    antiderivative,
    const,
    differential_order,
    euler_derivative,
    functional_equal,
    is_total_derivative,
    jet,
    log_v,
    max_order,
    min_v_exponent,
    normalize,
    partial_derivative,
    scaled_v_minus,
    scaled_v_plus,
    subalgebra_member,
    to_text,
    total_derivative,
    u_jet,
    v_jet,
    v_pow,
    weight,
)
from .diffop import (
    D,
    MatrixDiffOp,
    ScalarDiffOp,
    adjoint,
    apply,
    builtin_pair,
    builtin_q,
    compose,
    is_skew_adjoint,
    kernel_verify,
    multiplication,
)
from .errors import (
    DimensionMismatch,
    ExponentError,
    ExprSyntaxError,
    MagriError,
    NoSolution,
    NotClosed,
    NotSkewAdjoint,
)
from .expr import parse, parse_operator, parse_scalar_operator, parse_vector
from .lenard import (
    HierarchyRun,
    HierarchySeed,
    InvolutivityReport,
    involutivity_report,
    lm_step,
    run_hierarchy,
    seed,
    structure,
)
from .pva import (
    bracket_with_function,
    generator_bracket,
    hamiltonian_flow,
    is_compatible,
    is_poisson,
    jacobiator,
    lambda_bracket,
    poisson_bracket,
)
from .varcalc import (
    evolutionary_commutator,
    frechet,
    integrate_exact,
    is_closed,
    variational_derivative,
)

__version__ = "0.1.0"
