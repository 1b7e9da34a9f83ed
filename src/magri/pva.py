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

Skew-symmetry, {u_j lambda u_i} = -{u_i -lambda-d u_j}, lets a Jacobi
check build one triple of generators for each orbit of S3.  By
sesquilinearity the -lambda-d inside the bracket with u_k at lambda + mu
becomes mu, so {{u_j lambda u_i} lambda+mu u_k} = -{{u_i mu u_j} lambda+mu
u_k}; the first two terms trade places the same way, and

    J(u_j, u_i, u_k)(lambda, mu) = -J(u_i, u_j, u_k)(mu, lambda).

Skew-symmetry also gives the cyclic form

    J(u_i, u_j, u_k)(lambda, mu) = J(u_j, u_k, u_i)(mu, -lambda-mu-d),

with d acting on the coefficients.  Both substitutions are invertible
(the second, applied three times, gives back the polynomial), so each
maps zero to zero and back.  A transposition and a 3-cycle generate
S3, so a jacobiator vanishes exactly when the jacobiator of every
permutation of its triple does, and a verdict reads only the triples
with i <= j <= k: 4 of the 8 for two fields, 10 of the 27 for three.
The same skewness settles the diagonal of a Poisson bracket of
functionals: the integral of xi . H xi is minus itself, so zero.

The jacobiators of one H share most of their pieces: {u_i lambda a} for
a coefficient a of H recurs in every triple whose first term reads a,
and {c nu u_k} likewise.  Each public call therefore builds one bracket
table for its H.  The table holds each coefficient's Frechet row and
the adjoints of its operators, and the pieces {u_i lambda a} and
{c nu u_k} keyed by generator and coefficient, each computed once, and
every jacobiator of the call is summed from them.  The derivatives that
compositions read are kept on the functions themselves (see
:func:`diffalg.total_derivative`), not in the table.  The table is
freed when the call returns: its keys belong to one H (a pencil check
builds one for each of h, k and h + k), so nothing in it would serve a
later call, and keeping it would only grow memory.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

from . import diffalg as da
from . import diffop as dop
from . import varcalc as vc
from .diffalg import LocalFunctional
from .errors import DimensionMismatch, NotSkewAdjoint


def _require_skew(h):
    if not dop.is_skew_adjoint(h):
        raise NotSkewAdjoint("bracket structure must be skew-adjoint")


def _require_generators(h, *indices):
    """Raise DimensionMismatch unless each 1-based index is an int (not a
    bool) that names a generator of h."""
    n, _ = h.shape
    for i in indices:
        if type(i) is not int:
            raise DimensionMismatch(f"a generator index is an int, not {type(i).__name__}")
        if not 1 <= i <= n:
            raise DimensionMismatch("generator index out of range")


def generator_bracket(h, i, j):
    """{u_i lambda u_j} for 1-based generator indices: the operator H_ji as its symbol."""
    h = dop.as_matrix(h)
    _require_skew(h)
    _require_generators(h, i, j)
    return h.entries[j - 1][i - 1]


class _BracketTable:
    """The lambda-bracket pieces of one operator H, each derived once.

    Keys are generator indices and coefficients (DiffFunctions); the
    dicts are filled on demand and live as long as the table.
    """

    def __init__(self, h):
        self.h = h
        self.n = h.shape[0]
        self._rows = {}  # g -> Frechet row (D_{g,1}, ..., D_{g,n})
        self._adjoints = {}  # (g, m) -> D_{g,m}*
        self._gen_fun = {}  # (i, g) -> {u_i lambda g}
        self._fun_gen = {}  # (g, k) -> {g nu u_k}

    def row(self, g):
        r = self._rows.get(g)
        if r is None:
            r = self._rows[g] = vc.frechet_row(g, self.n)
        return r

    def gen_fun(self, i, g):
        """{u_i lambda g} = sum_j D_{g,j} . H_ji."""
        part = self._gen_fun.get((i, g))
        if part is None:
            acc = dop.accumulators()
            for j, dg in enumerate(self.row(g)):
                dop.compose_into(acc, dg, self.h.entries[j][i - 1])
            part = self._gen_fun[i, g] = dop.ScalarDiffOp.from_acc(acc)
        return part

    def fun_gen(self, g, k):
        """{g nu u_k} = sum_m H_km . D_{g,m}*, as a polynomial in nu = lambda + mu."""
        part = self._fun_gen.get((g, k))
        if part is None:
            acc = dop.accumulators()
            for m, (op, dg) in enumerate(zip(self.h.entries[k - 1], self.row(g))):
                if op and dg:
                    dop.compose_into(acc, op, self._adjoint(g, m))
            part = self._fun_gen[g, k] = dop.ScalarDiffOp.from_acc(acc)
        return part

    def _adjoint(self, g, m):
        adj = self._adjoints.get((g, m))
        if adj is None:
            adj = self._adjoints[g, m] = dop.adjoint_scalar(self.row(g)[m])
        return adj

    def jacobiator(self, i, j, k):
        """The jacobiator of (u_i, u_j, u_k), as
        {(power of lambda, power of mu): diffalg.Accumulator}."""
        rows = self.h.entries
        acc = dop.accumulators()
        # {u_i lambda {u_j mu u_k}}
        for s, a in rows[k - 1][j - 1].terms:
            for t, f in self.gen_fun(i, a).terms:
                da.add_into(acc[t, s], f)
        # - {u_j mu {u_i lambda u_k}}
        for t, b in rows[k - 1][i - 1].terms:
            for s, f in self.gen_fun(j, b).terms:
                da.add_into(acc[t, s], f, -1)
        # - {{u_i lambda u_j} lambda+mu u_k}, lambda acting as a coefficient:
        # nu^s becomes (lambda + mu)^s
        for t, c in rows[j - 1][i - 1].terms:
            for s, f in self.fun_gen(c, k).terms:
                for p in range(s + 1):
                    da.add_into(acc[p + t, s - p], f, -comb(s, p))
        return acc

    def is_poisson(self):
        """Whether every jacobiator of H vanishes (H is taken as skew).

        Only the triples with i <= j <= k are built, one for each orbit
        of S3: for skew H, zero-ness is constant on each orbit (see the
        module docstring).  A block is tested on its accumulator: its
        monomials all come from pieces that from_acc range-checked, and
        summing them forms no new monomial.
        """
        for i, j, k in combinations_with_replacement(range(1, self.n + 1), 3):
            if any(any(acc.d.values()) for acc in self.jacobiator(i, j, k).values()):
                return False
        return True


def bracket_with_function(h, i, g):
    """{u_i lambda g} for a differential function g and a 1-based generator index i."""
    h = dop.as_matrix(h)
    _require_skew(h)
    _require_generators(h, i)
    return _BracketTable(h).gen_fun(i, g)


def lambda_bracket(h, f, g):
    """{f lambda g} = sum_k D_{g,k} . {f lambda u_k}, by the master formula."""
    h = dop.as_matrix(h)
    _require_skew(h)
    table = _BracketTable(h)
    acc = dop.accumulators()
    for k, dg in enumerate(table.row(g)):
        if dg:
            dop.compose_into(acc, dg, table.fun_gen(f, k + 1))
    return dop.ScalarDiffOp.from_acc(acc)


def jacobiator(h, i, j, k):
    """The PVA Jacobi defect of three generators, as a lambda-mu polynomial."""
    h = dop.as_matrix(h)
    _require_skew(h)
    _require_generators(h, i, j, k)
    return dop.SparsePoly.from_acc(_BracketTable(h).jacobiator(i, j, k))


def _jacobi_holds(h):
    """The Jacobi identity of a skew h, checked on one table.

    Every jacobiator is quadratic in h, so h is Poisson exactly when a
    nonzero multiple of it is; the check runs on the integral multiple,
    whose values all have denominator 1.
    """
    den = da.denominator(f for row in h.entries for op in row for _k, f in op.terms)
    return _BracketTable(h * den).is_poisson()


def is_poisson(h):
    """Exact Jacobi identity over every generator triple.

    The triples with i <= j <= k are built; skew-symmetry settles the
    rest, because a jacobiator vanishes exactly when that of any
    permutation of its triple does (see the module docstring).
    """
    h = dop.as_matrix(h)
    _require_skew(h)
    return _jacobi_holds(h)


def is_compatible(h, k):
    """Whether every operator in the pencil h + t*k stays Poisson.

    The jacobiator is quadratic in the operator, so the pencil's is
    J(h) + t * B(h, k) + t^2 * J(k) for a bilinear B; it vanishes for
    every t exactly when it does at t = 0, at t = 1 and at infinity, that
    is when h, h + k and k are Poisson.  h and k are checked to be skew
    once: the adjoint is linear, so every pencil member is skew too.
    """
    h = dop.as_matrix(h)
    k = dop.as_matrix(k)
    _require_skew(h)
    _require_skew(k)
    if h.shape != k.shape:
        raise DimensionMismatch("pencil needs operators of one shape")
    return all(_jacobi_holds(x) for x in (h, k, h + k))


def poisson_bracket(f, g, h):
    """{integral f, integral g} = integral of (gradient g) . H (gradient f)."""
    h = dop.as_matrix(h)
    _require_skew(h)
    n, _ = h.shape
    xf = vc.variational_derivative(f, n)
    xg = vc.variational_derivative(g, n)
    return LocalFunctional(da.dot(xg, dop.apply(h, xf)))


def hamiltonian_flow(h, f):
    """The evolutionary vector field H applied to the gradient of f."""
    h = dop.as_matrix(h)
    _require_skew(h)
    n, _ = h.shape
    return dop.apply(h, vc.variational_derivative(f, n))
