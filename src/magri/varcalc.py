"""Variational derivatives, Frechet derivatives, and exact integration.

Vectors of differential functions are plain tuples.  A vector F is a
variational gradient exactly when its Frechet derivative is a
self-adjoint matrix operator; :func:`integrate_exact` reconstructs a
density h with variational_derivative(h) == F in one pass: a homotopy
formula in the polynomial variables (in u alone when v enters as a
Laurent variable or through log v), then one linear solve over a
weight-homogeneous candidate space for each weight part of the v-only
remainder.  There is no search: a part that its space does not reach
raises NoSolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import diffalg as da
from . import diffop as dop
from . import linsolve
from .diffalg import (
    DiffFunction,
    LocalFunctional,
    ZERO,
    U,
    V,
)
from .errors import DimensionMismatch, MagriError, NoSolution, NotClosed


def variational_derivative(f, nvars=2):
    """The vector of Euler derivatives of a density.

    Accepts a DiffFunction, a LocalFunctional or a constant (an int or a
    Fraction, whose gradient is zero), and raises MagriError for anything
    else.  The representative is irrelevant because the Euler operators
    kill total derivatives, and a functional gives the gradient it holds
    (that of :func:`integrate_exact`, checked exactly), or computes it
    from its representative once.  The ring has no jets of a field
    j > 1, so those components are zero.
    """
    if isinstance(f, LocalFunctional):
        grad = f.variational_gradient()
        return tuple(grad[var] if var in (U, V) else ZERO for var in range(nvars))
    if not isinstance(f, (DiffFunction, int, Fraction)):
        raise MagriError(f"a density is a function or a functional, not {type(f).__name__}")
    return tuple(da.euler_derivative(f, var) if var in (U, V) else ZERO for var in range(nvars))


def frechet_row(f, nvars=2):
    """The operators D_{f,j} = sum_n df/du_j^(n) d^n for j < nvars; the ring
    has no jets of a field j > 1, so those entries are zero."""
    row = []
    for var in range(nvars):
        parts = da.partial_derivatives(f, var) if var in (U, V) else ()
        row.append(dop.ScalarDiffOp.from_dict(dict(enumerate(parts))))
    return row


def frechet(vec):
    """Frechet derivative of a vector: entry (i, j) is sum_n dF_i/du_j^(n) d^n;
    each component is a function or a constant (see :func:`diffalg.as_function`)."""
    vec = tuple(map(da.as_function, vec))
    return dop.MatrixDiffOp([frechet_row(fi, len(vec)) for fi in vec])


@dataclass(frozen=True)
class ClosednessReport:
    """Outcome of the self-adjointness test for a Frechet derivative."""

    closed: bool
    witness: tuple | None = None  # 1-based (i, j) entry where D and D* differ

    def __bool__(self):
        return self.closed


def is_closed(vec):
    """Whether a vector is a variational gradient (exact self-adjointness)."""
    d = frechet(vec)
    dstar = dop.adjoint(d)
    n, m = d.shape
    for i in range(n):
        for j in range(m):
            if d.entries[i][j] != dstar.entries[i][j]:
                return ClosednessReport(False, (i + 1, j + 1))
    return ClosednessReport(True)


def evolutionary_commutator(p, q):
    """Commutator of evolutionary vector fields: D_Q(P) - D_P(Q).

    Entry (i, j) of a Frechet derivative is D_ij = sum_n dF_i/du_j^(n) d^n,
    the adjoint of entry (j, i) of its adjoint, so component i is the sum
    of the adjoints of (D_Q*)_ji applied to P_j and of (D_P*)_ji applied
    to -Q_j: :func:`commutator_from_adjoints`.  This is the higher Euler
    identity D_Q(P) = sum_k d^k(E_j^(k)(Q_i) P_j) (Olver, *Applications
    of Lie Groups to Differential Equations*, ch. 5), E_j^(k)(Q_i) being
    (-1)^k times the coefficient of d^k in (D_Q*)_ji.  The fields are
    never differentiated: one Horner chain per component differentiates
    its partial sums alone (:func:`diffop.apply_adjoints`).  When the
    fields commute, the two halves cancel as the chain runs, so its
    partial sums stay small, where d^n P_j and d^n Q_j up to the orders of
    Q and P would have been formed and multiplied out in full.
    """
    p, q = tuple(p), tuple(q)
    if len(p) != len(q):
        raise DimensionMismatch("commutated fields have different numbers of components")
    return commutator_from_adjoints(p, dop.adjoint(frechet(p)), q, dop.adjoint(frechet(q)))


def commutator_from_adjoints(p, p_star, q, q_star):
    """D_Q(P) - D_P(Q), as :func:`evolutionary_commutator` gives it, from
    the adjoints p_star = D_P* and q_star = D_Q* of the Frechet
    derivatives of the fields, which a caller that commutates one field
    with many others builds once for it."""
    p, q = tuple(p), tuple(q)
    if not len(p) == len(q) == p_star.shape[0] == q_star.shape[0]:
        raise DimensionMismatch("commutated fields have different numbers of components")
    minus_q = [-f for f in q]
    return tuple(
        dop.apply_adjoints(
            [(q_star.entries[j][i], pj) for j, pj in enumerate(p)]
            + [(p_star.entries[j][i], qj) for j, qj in enumerate(minus_q)]
        )
        for i in range(len(p))
    )


# -- integration of exact vectors -------------------------------------------


def _homotopy(f, var=None):
    """f with each monomial m scaled by 1/(deg m + 1): the degree in the
    jets of ``var``, or in every generator when ``var`` is None."""
    return da.divide_terms(f, lambda m: 1 + da.mono_degree(m, var))


def _poly_homotopy(vec):
    """Density for an exact vector via scaling of every generator.

    Valid when every component stays polynomial (no negative v powers,
    no log); each monomial m of F_i contributes x_i * m / (deg m + 1).
    """
    return da.dot((da.u_jet(0), da.v_jet(0))[: len(vec)], [_homotopy(f) for f in vec])


def _u_homotopy(f):
    """u-dependent density part: u * f with each monomial scaled by 1/(deg_u + 1)."""
    return da.u_jet(0) * _homotopy(f, U)


def _euler_mono(m, var):
    """Euler derivative of a single packed monomial."""
    return da.euler_derivative(DiffFunction.from_packed(((1, m),)), var)


def _solve_v_density(g, wt):
    """Solve euler_v(h0) = g for a density in v jets (and maybe log v),
    g homogeneous of weight ``wt``, in one candidate space.

    The candidates are the v-only monomials of weight ``wt + 2``, of
    order at most (ord g + 1) // 2 + 1, with powers of v down to one
    above the lowest in g (or to 0); log v enters only as log(v) times
    a monomial with no power of v.  The Euler operator in v lowers the
    total v degree of a v-only monomial by exactly one, so the linear
    system splits into independent blocks indexed by v degree.  Only
    the blocks the right side reaches are solved, so only the
    candidates of their degrees are differentiated; the unknowns of
    every other block are zero.  Raises NoSolution when a block has no
    solution.
    """
    base_order = da.max_order(g, V) or 0
    order_bound = max(1, (base_order + 1) // 2 + 1)
    v_floor = min(da.min_v_exponent(g) + 1, 0)
    rhs_by_deg = da.homogeneous_parts(g, lambda m: da.mono_degree(m, V) + 1)
    by_deg = {deg: [] for deg, _rhs in rhs_by_deg}
    for m in da.monomials(wt + 2, order_bound, v_floor, fields=(V,), include_log=True):
        block = by_deg.get(da.mono_degree(m, V))
        if block is not None:
            e = _euler_mono(m, V)
            if e:
                block.append((m, e))
    parts = []
    for deg, rhs in rhs_by_deg:
        block = by_deg[deg]
        xs = linsolve.solve([(e,) for _m, e in block], (rhs,))
        if xs is None:
            raise NoSolution("no density found for the v-only part in its candidate space")
        parts += [(x, m) for (m, _e), x in zip(block, xs)]
    return DiffFunction.from_packed(parts)


def _integrate(vec):
    """A candidate density for ``vec``, not yet checked."""
    if not 1 <= len(vec) <= 2:
        raise DimensionMismatch("a gradient here has one or two components, for u and v")
    if all(da.subalgebra_member(f, da.V_PLUS) for f in vec):
        return _poly_homotopy(vec)
    if len(vec) != 2:
        raise NoSolution("Laurent integration works on (u, v) vectors")
    f, g = vec
    h = _u_homotopy(f)
    # both operators are linear and keep the weight, so each weight part of
    # the remainder is the v-only problem of that weight alone
    gtil = g - da.euler_derivative(h, V)
    if da.max_order(gtil, U) is not None:
        raise NoSolution("residual v-problem still involves u")
    for wt, part in da.homogeneous_parts(gtil):
        h = h + _solve_v_density(part, wt)
    return h


def integrate_exact(vec):
    """A density h with variational_derivative(h) == vec, exactly.

    Purely polynomial vectors integrate by the full homotopy formula.
    Otherwise one homotopy in the u variables alone (u enters
    polynomially always) integrates the whole u-component to h_u, and
    the remainder g = vec[1] - euler_v(h_u), free of u for a gradient,
    is a v-only problem.  Both steps are linear and keep the weight, so
    each weight part of g is solved on its own, in increasing weight,
    over one weight-homogeneous candidate space (see _solve_v_density).

    The closing check variational_derivative(h) == vec also proves that
    vec is closed (self-adjoint Frechet derivative), since every
    variational gradient is; so closedness is tested only when the
    integration fails, to tell a vector that is not a gradient
    (NotClosed, with the witness entry) from one outside the reach of
    the candidate spaces (NoSolution).  The returned functional holds
    the components of vec themselves as its gradient, not an equal copy;
    an int or Fraction component is its constant.
    """
    vec = tuple(map(da.as_function, vec))
    try:
        h = _integrate(vec)
        if variational_derivative(h, len(vec)) != vec:
            raise NoSolution("reconstructed density fails to reproduce the gradient")
    except MagriError:
        # an empty vector has no Frechet derivative to test: its own error stands
        rep = is_closed(vec) if vec else True
        if not rep:
            raise NotClosed(
                f"vector is not a variational gradient; entry {rep.witness}"
            ) from None
        raise
    if len(vec) == 2:
        return LocalFunctional._of_gradient(h, vec)
    return LocalFunctional(h)
