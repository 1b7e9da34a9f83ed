"""Variational derivatives, Frechet derivatives, and exact integration.

Vectors of differential functions are plain tuples.  A vector F is a
variational gradient exactly when its Frechet derivative is a
self-adjoint matrix operator; :func:`integrate_exact` reconstructs a
density h with variational_derivative(h) == F in one pass: a homotopy
formula in the polynomial variables (in u alone when v enters as a
Laurent variable or through log v), then a small weight-homogeneous
ansatz for each weight part of the v-only remainder.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from . import diffalg as da
from . import diffop as dop
from . import linsolve
from .diffalg import (
    DiffFunction,
    LocalFunctional,
    ZERO,
    LOG_VAR,
    U,
    V,
    coeff_div,
)
from .errors import DimensionMismatch, MagriError, NoSolution, NotClosed


def variational_derivative(f, nvars=2):
    """The vector of Euler derivatives of a density.

    Accepts a DiffFunction or a LocalFunctional; the representative is
    irrelevant because the Euler operators kill total derivatives.
    """
    if isinstance(f, LocalFunctional):
        f = f.rep
    return tuple(da.euler_derivative(f, var) for var in range(nvars))


def frechet_row(f, nvars=2):
    """The operators D_{f,j} = sum_n df/du_j^(n) d^n for j < nvars."""
    row = []
    for var in range(nvars):
        top = da.max_order(f, var)
        orders = () if top is None else range(top + 1)
        terms = {n: da.partial_derivative(f, (var, n)) for n in orders}
        row.append(dop.ScalarDiffOp.from_dict(terms))
    return row


def frechet(vec):
    """Frechet derivative of a vector: entry (i, j) is sum_n dF_i/du_j^(n) d^n."""
    vec = tuple(vec)
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


class FlowData:
    """An evolutionary vector field with the data its commutators reuse.

    Holds the Frechet derivative of the field and, per component P_j,
    the tower P_j, d P_j, d^2 P_j, ..., extended on demand, so that a
    field commutated with many others differentiates each component
    once.
    """

    __slots__ = ("components", "frechet", "_towers")

    def __init__(self, vec):
        self.components = tuple(vec)
        self.frechet = frechet(self.components)
        self._towers = [[c] for c in self.components]

    def derivative(self, j, n):
        """d^n of component j."""
        tower = self._towers[j]
        while len(tower) <= n:
            tower.append(da.total_derivative(tower[-1]))
        return tower[n]


def evolutionary_commutator(p, q):
    """Commutator of evolutionary vector fields: D_Q(P) - D_P(Q).

    Each argument is a vector or a :class:`FlowData`, whose Frechet
    derivative and derivative tower are reused.
    """
    p = p if isinstance(p, FlowData) else FlowData(p)
    q = q if isinstance(q, FlowData) else FlowData(q)
    if len(p.components) != len(q.components):
        raise DimensionMismatch("commutated fields have different numbers of components")
    out = []
    for dq_row, dp_row in zip(q.frechet.entries, p.frechet.entries):
        acc = {}
        for j, (dq, dp) in enumerate(zip(dq_row, dp_row)):
            # entry (i, j) of a Frechet derivative is sum_n dF_i/du_j^(n) d^n
            for n, c in dq.terms:
                da.addmul_into(acc, c, p.derivative(j, n))
            for n, c in dp.terms:
                da.addmul_into(acc, c, q.derivative(j, n), -1)
        out.append(DiffFunction.from_dict(acc))
    return tuple(out)


# -- integration of exact vectors -------------------------------------------


def _homotopy(f, var=None):
    """f with each monomial m scaled by 1/(deg m + 1): the degree in the
    jets of ``var``, or in every generator when ``var`` is None."""
    return DiffFunction(
        [(m, coeff_div(c, 1 + sum(e for x, _n, e in m if var in (None, x)))) for m, c in f.terms]
    )


def _poly_homotopy(vec):
    """Density for an exact vector via scaling of every generator.

    Valid when every component stays polynomial (no negative v powers,
    no log); each monomial m of F_i contributes x_i * m / (deg m + 1).
    """
    return da.dot((da.u_jet(0), da.v_jet(0)), [_homotopy(f) for f in vec])


def _u_homotopy(f):
    """u-dependent density part: u * f with each monomial scaled by 1/(deg_u + 1)."""
    return da.u_jet(0) * _homotopy(f, U)


def default_widen_cap():
    """The widening cap from LENARD_WIDEN_CAP, 2 when it is unset.

    Raises MagriError, naming the variable, when it is not a
    nonnegative integer.
    """
    raw = os.environ.get("LENARD_WIDEN_CAP", "2")
    try:
        cap = int(raw)
    except ValueError:
        raise MagriError(f"LENARD_WIDEN_CAP must be an integer, got {raw!r}") from None
    if cap < 0:
        raise MagriError(f"LENARD_WIDEN_CAP must be nonnegative, got {cap}")
    return cap


def resolve_widen_cap(widen_cap):
    """The widening cap to use: the default for None; raises MagriError if negative."""
    if widen_cap is None:
        return default_widen_cap()
    if widen_cap < 0:
        raise MagriError(f"widen_cap must be nonnegative, got {widen_cap}")
    return widen_cap


def _euler_mono(m, var):
    """Euler derivative of a single monomial."""
    return da.euler_derivative(DiffFunction([(m, 1)]), var)


def _v_degree(m):
    return sum(e for var, _n, e in m if var == V)


def _solve_v_density(g, widen_cap):
    """Solve euler_v(h0) = g for a density in v jets (and maybe log v).

    The Euler operator in v lowers the total v degree of a v-only
    monomial by exactly one, so the linear system splits into
    independent blocks indexed by v degree.  Only the blocks the right
    side reaches are solved, so only the candidates of their degrees
    are differentiated; the unknowns of every other block are zero.
    """
    if not g:
        return ZERO
    wt = da.weight(g)
    if wt is da.INHOMOGENEOUS:
        raise NoSolution("the v-only part is not weight-homogeneous")
    for m, _ in g.terms:
        # A candidate is free of log v, or is log(v) times a monomial with
        # no power of v (jets v', v'', ... allowed), and the terms in log v
        # of its Euler derivative have that shape too; so no widening round
        # reaches a term in log(v)^2, or in log(v) times a power of v.
        j = sum(e for var, _n, e in m if var == LOG_VAR)
        if j > 1 or (j == 1 and any(g[0] == V and g[1] == 0 for g in m)):
            raise NoSolution("no density found for the v-only part within the widening cap")
    base_order = da.max_order(g, V) or 0
    order_bound = max(1, (base_order + 1) // 2 + 1)
    v_floor = min(da.min_v_exponent(g) + 1, 0)
    rhs_by_deg = {}
    for m, c in g.terms:
        rhs_by_deg.setdefault(_v_degree(m) + 1, {})[m] = c
    for _round in range(widen_cap + 1):
        by_deg = {deg: [] for deg in rhs_by_deg}
        cands = da.monomials(
            wt + 2, order_bound, v_floor, fields=(V,), include_log=True
        )
        for m in cands:
            block = by_deg.get(_v_degree(m))
            if block is not None:
                e = _euler_mono(m, V)
                if e:
                    block.append((m, e))
        parts = []
        for deg, rhs in sorted(rhs_by_deg.items()):
            block = by_deg[deg]
            xs = linsolve.solve([dict(e.terms) for _m, e in block], rhs)
            if xs is None:
                break
            parts += [(x, m) for (m, _e), x in zip(block, xs)]
        else:
            return DiffFunction.from_terms(parts)
        order_bound += 2
        v_floor -= 2
    raise NoSolution("no density found for the v-only part within the widening cap")


def _integrate(vec, widen_cap):
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
    for _w, part in da.homogeneous_parts(gtil):
        h = h + _solve_v_density(part, widen_cap)
    return h


def integrate_exact(vec, widen_cap=None):
    """A density h with variational_derivative(h) == vec, exactly.

    Purely polynomial vectors integrate by the full homotopy formula.
    Otherwise one homotopy in the u variables alone (u enters
    polynomially always) integrates the whole u-component to h_u, and
    the remainder g = vec[1] - euler_v(h_u), free of u for a gradient,
    is a v-only problem.  Both steps are linear and keep the weight, so
    each weight part of g is solved on its own, in increasing weight,
    against a weight-homogeneous candidate space widened at most
    ``widen_cap`` times (order bound +2, Laurent floor -2 per round).

    The closing check variational_derivative(h) == vec also proves that
    vec is closed (self-adjoint Frechet derivative), since every
    variational gradient is; so closedness is tested only when the
    integration fails, to tell a vector that is not a gradient
    (NotClosed, with the witness entry) from one outside the reach of
    the candidate spaces (NoSolution).  Raises MagriError for a negative
    ``widen_cap``.  The returned functional already holds the gradient
    it was checked against.
    """
    vec = tuple(vec)
    widen_cap = resolve_widen_cap(widen_cap)
    try:
        h = _integrate(vec, widen_cap)
        got = variational_derivative(h, len(vec))
        if got != vec:
            raise NoSolution("reconstructed density fails to reproduce the gradient")
    except MagriError:
        rep = is_closed(vec)
        if not rep:
            raise NotClosed(
                f"vector is not a variational gradient; entry {rep.witness}"
            ) from None
        raise
    if len(vec) == 2:
        return LocalFunctional._of_gradient(h, got)
    return LocalFunctional(h)
