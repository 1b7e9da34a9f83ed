"""Lambda-bracket calculus for matrix differential operators.

A lambda polynomial sum_s f_s lambda^s is the symbol of the operator
sum_s f_s d^s, and is kept as that :class:`diffop.ScalarDiffOp`: (lambda
+ d) applied to a polynomial is composition with d on the left.  A
skew-adjoint matrix operator H defines a bracket on generators by
{u_i lambda u_j} = H_ji(lambda), the symbol of H_ji.  With the rows of
Frechet operators D_{g,j} = sum_n dg/du_j^(n) d^n, the master formula of
Barakat, De Sole and Kac is a composition of symbols:

    {u_i lambda g}  = sum_j D_{g,j} . H_ji
    {g nu u_k}      = sum_m H_km . D_{g,m}*
    {f lambda g}    = sum_k D_{g,k} . {f lambda u_k}

where D* is the formal adjoint and nu stands for lambda + mu.  The
jacobiator of a triple of generators collects

    {u_i lambda {u_j mu u_k}} - {u_j mu {u_i lambda u_k}} - {{u_i lambda u_j} lambda+mu u_k}

as a polynomial in lambda and mu, a :class:`diffop.SparsePoly` keyed by
(power of lambda, power of mu) pairs; H is a Poisson structure exactly
when every jacobiator vanishes.  All verifications here are exact
identities in the differential ring, never numerical.
"""

from __future__ import annotations

from math import comb

from . import diffalg as da
from . import diffop as dop
from . import varcalc as vc
from .diffalg import LocalFunctional, ONE
from .errors import DimensionMismatch, NotSkewAdjoint


def _require_skew(h):
    if not dop.is_skew_adjoint(h):
        raise NotSkewAdjoint("bracket structure must be skew-adjoint")


def _as_matrix(h):
    if isinstance(h, dop.ScalarDiffOp):
        return dop.MatrixDiffOp([[h]])
    return h


def generator_bracket(h, i, j):
    """{u_i lambda u_j} for 1-based generator indices: the operator H_ji as its symbol."""
    h = _as_matrix(h)
    _require_skew(h)
    n, _ = h.shape
    if not (1 <= i <= n and 1 <= j <= n):
        raise DimensionMismatch("generator index out of range")
    return h.entries[j - 1][i - 1]


def _bracket_gen_fun(h, i, g):
    """{u_i lambda g} = sum_j D_{g,j} . H_ji (no skew re-check)."""
    n, _ = h.shape
    acc = {}
    for j, dg in enumerate(vc.frechet_row(g, n)):
        dop.compose_into(acc, dg, h.entries[j][i - 1])
    return dop.ScalarDiffOp.from_acc(acc)


def bracket_with_function(h, i, g):
    """{u_i lambda g} for a differential function g."""
    h = _as_matrix(h)
    _require_skew(h)
    return _bracket_gen_fun(h, i, g)


def lambda_bracket(h, f, g):
    """{f lambda g} = sum_k D_{g,k} . {f lambda u_k}, by the master formula."""
    h = _as_matrix(h)
    _require_skew(h)
    n, _ = h.shape
    acc = {}
    for k, dg in enumerate(vc.frechet_row(g, n)):
        if dg:
            dop.compose_into(acc, dg, _bracket_fun_gen(h, f, k + 1))
    return dop.ScalarDiffOp.from_acc(acc)


def _bracket_fun_gen(h, g, k):
    """{g nu u_k} = sum_m H_km . D_{g,m}*, as a polynomial in nu = lambda + mu."""
    n, _ = h.shape
    acc = {}
    for op, dg in zip(h.entries[k - 1], vc.frechet_row(g, n)):
        if op and dg:
            dop.compose_into(acc, op, dop.adjoint_scalar(dg))
    return dop.ScalarDiffOp.from_acc(acc)


def jacobiator(h, i, j, k):
    """The PVA Jacobi defect of three generators, as a lambda-mu polynomial."""
    h = _as_matrix(h)
    _require_skew(h)
    n, _ = h.shape
    for idx in (i, j, k):
        if not 1 <= idx <= n:
            raise DimensionMismatch("generator index out of range")

    acc = {}  # {(power of lambda, power of mu): {monomial: coefficient}}

    def put(a, b, f, k):
        da.addmul_into(acc.setdefault((a, b), {}), f, ONE, k)

    # {u_i lambda {u_j mu u_k}}
    for s, a in h.entries[k - 1][j - 1].terms:
        part = _bracket_gen_fun(h, i, a)
        for t, f in part.terms:
            put(t, s, f, 1)
    # - {u_j mu {u_i lambda u_k}}
    for t, b in h.entries[k - 1][i - 1].terms:
        part = _bracket_gen_fun(h, j, b)
        for s, f in part.terms:
            put(t, s, f, -1)
    # - {{u_i lambda u_j} lambda+mu u_k}, lambda acting as a coefficient:
    # nu^s becomes (lambda + mu)^s
    for t, c in h.entries[j - 1][i - 1].terms:
        for s, f in _bracket_fun_gen(h, c, k).terms:
            for p in range(s + 1):
                put(p + t, s - p, f, -comb(s, p))

    return dop.SparsePoly.from_acc(acc)


def _integral_multiple(h):
    """h times the lcm of its coefficient denominators, so integral."""
    den = da.common_denominator(f for row in h.entries for op in row for _k, f in op.terms)
    return h if den == 1 else h * den


def is_poisson(h):
    """Exact Jacobi identity over every generator triple.

    Every jacobiator is quadratic in h, so h is Poisson exactly when a
    nonzero multiple of it is; the check runs on the integral multiple,
    whose arithmetic stays in plain ints.
    """
    h = _as_matrix(h)
    _require_skew(h)
    h = _integral_multiple(h)
    n, _ = h.shape
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if jacobiator(h, i, j, k):
                    return False
    return True


def is_compatible(h, k, pencil_points=(1, 2, 3)):
    """Whether every operator in the pencil h + t*k stays Poisson.

    Checked exactly at the given sample points; a nonzero pencil
    jacobiator is polynomial of degree two in t, so three points pin it.
    """
    h = _as_matrix(h)
    k = _as_matrix(k)
    _require_skew(h)
    _require_skew(k)
    if h.shape != k.shape:
        raise DimensionMismatch("pencil needs operators of one shape")
    for t in pencil_points:
        if not is_poisson(h + k * t):
            return False
    return True


def poisson_bracket(f, g, h):
    """{integral f, integral g} = integral of (gradient g) . H (gradient f)."""
    h = _as_matrix(h)
    _require_skew(h)
    n, _ = h.shape
    xf = vc.variational_derivative(f, n)
    xg = vc.variational_derivative(g, n)
    return LocalFunctional(da.dot(xg, dop.apply(h, xf)))


def hamiltonian_flow(h, f):
    """The evolutionary vector field H applied to the gradient of f."""
    h = _as_matrix(h)
    _require_skew(h)
    n, _ = h.shape
    return dop.apply(h, vc.variational_derivative(f, n))
