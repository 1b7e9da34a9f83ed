"""Lambda-bracket calculus for matrix differential operators.

A skew-adjoint matrix operator H defines a bracket on generators by
{u_i  u_j} = H_ji(lambda); the bracket extends to arbitrary
differential functions by the master formula

    {u_i  g}  = sum_{j,n} dg/du_j^(n) (lambda + d)^n H_ji(lambda)
    {g  u_k}  = sum_{m,n} H_km(nu + d) (-nu - d)^n dg/du_m^(n),

with d acting on everything to its right and nu standing for lambda + mu.
The jacobiator of a triple of generators collects

    {u_i  {u_j  u_k}} - {u_j  {u_i  u_k}} - {{u_i  u_j}  u_k}

as a polynomial in lambda and mu; H is a Poisson structure exactly when
every jacobiator vanishes.  All verifications here are exact identities
in the differential ring, never numerical.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import diffalg as da
from . import diffop as dop
from . import varcalc as vc
from .diffalg import DiffFunction, LocalFunctional, ONE, QQ, ZERO
from .errors import DimensionMismatch, NotSkewAdjoint


class LambdaPoly:
    """Polynomial in lambda with differential-function coefficients."""

    __slots__ = ("_t",)

    def __init__(self, terms=()):
        self._t = tuple(terms)

    @staticmethod
    def from_dict(d):
        items = [(s, f) for s, f in d.items() if f]
        items.sort()
        return LambdaPoly(items)

    @property
    def terms(self):
        return self._t

    def coeff(self, s):
        for deg, f in self._t:
            if deg == s:
                return f
        return ZERO

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, LambdaPoly):
            return self._t == other._t
        return NotImplemented

    def __hash__(self):
        return hash(self._t)

    def __add__(self, other):
        d = dict(self._t)
        for s, f in other._t:
            g = d.get(s, ZERO) + f
            if g:
                d[s] = g
            else:
                d.pop(s, None)
        return LambdaPoly.from_dict(d)

    def __neg__(self):
        return LambdaPoly([(s, -f) for s, f in self._t])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f):
        """Multiply every coefficient by a differential function."""
        if isinstance(f, (int, Fraction)):
            f = da.const(f)
        return LambdaPoly.from_dict({s: f * g for s, g in self._t})

    def __repr__(self):
        if not self._t:
            return "LambdaPoly(0)"
        bits = []
        for s, f in self._t:
            body = da.to_text(f)
            if len(f.terms) > 1:
                body = f"({body})"
            bits.append(body if s == 0 else f"{body}*L^{s}" if s > 1 else f"{body}*L")
        return "LambdaPoly(" + " + ".join(bits) + ")"


class LambdaMuPoly:
    """Polynomial in lambda and mu with differential-function coefficients."""

    __slots__ = ("_t",)

    def __init__(self, terms=()):
        self._t = tuple(terms)

    @staticmethod
    def from_dict(d):
        items = [(ab, f) for ab, f in d.items() if f]
        items.sort()
        return LambdaMuPoly(items)

    @property
    def terms(self):
        return self._t

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, LambdaMuPoly):
            return self._t == other._t
        return NotImplemented

    def __add__(self, other):
        d = dict(self._t)
        for ab, f in other._t:
            g = d.get(ab, ZERO) + f
            if g:
                d[ab] = g
            else:
                d.pop(ab, None)
        return LambdaMuPoly.from_dict(d)

    def __neg__(self):
        return LambdaMuPoly([(ab, -f) for ab, f in self._t])

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self):
        return f"LambdaMuPoly({[(ab, da.to_text(f)) for ab, f in self._t]})"


def _addmul_poly_into(acc, c, lp, k=1):
    """Add k*c*lp into acc, a {power of lambda: {monomial: coefficient}} dict."""
    for s, f in lp.terms:
        da.addmul_into(acc.setdefault(s, {}), c, f, k)


def _poly_from_acc(acc):
    return LambdaPoly.from_dict({s: DiffFunction.from_dict(d) for s, d in acc.items()})


def _shift_once(lp):
    """(lambda + d) applied to a lambda polynomial."""
    acc = {}
    for s, f in lp.terms:
        da.addmul_into(acc.setdefault(s + 1, {}), f, ONE)
        da.addmul_into(acc.setdefault(s, {}), da.total_derivative(f), ONE)
    return _poly_from_acc(acc)


def _op_shift_apply_into(acc, op, lp, k=1):
    """Add k * A(lambda + d) applied to a lambda polynomial into acc.

    A is a scalar operator and acc a dict as in :func:`_addmul_poly_into`.
    """
    powers, n = lp, 0
    for deg, c in op.terms:
        while n < deg:
            powers = _shift_once(powers)
            n += 1
        _addmul_poly_into(acc, c, powers, k)


def _require_skew(h):
    if not dop.is_skew_adjoint(h):
        raise NotSkewAdjoint("bracket structure must be skew-adjoint")


def _as_matrix(h):
    if isinstance(h, dop.ScalarDiffOp):
        return dop.MatrixDiffOp([[h]])
    return h


def generator_bracket(h, i, j):
    """{u_i lambda u_j} for 1-based generator indices: H_ji as a lambda polynomial."""
    h = _as_matrix(h)
    _require_skew(h)
    n, _ = h.shape
    if not (1 <= i <= n and 1 <= j <= n):
        raise DimensionMismatch("generator index out of range")
    return LambdaPoly(list(h.entries[j - 1][i - 1].terms))


def _bracket_gen_fun(h, i, g):
    """{u_i lambda g} by the master formula (no skew re-check)."""
    n, _ = h.shape
    acc = {}
    for j in range(n):
        col = LambdaPoly(list(h.entries[j][i - 1].terms))
        if not col:
            continue
        top = da.max_order(g, j)
        if top is None:
            continue
        shifted = col
        for order in range(top + 1):
            c = da.partial_derivative(g, (j, order))
            if c:
                _addmul_poly_into(acc, c, shifted)
            if order < top:
                shifted = _shift_once(shifted)
    return _poly_from_acc(acc)


def bracket_with_function(h, i, g):
    """{u_i lambda g} for a differential function g."""
    h = _as_matrix(h)
    _require_skew(h)
    return _bracket_gen_fun(h, i, g)


def lambda_bracket(h, f, g):
    """{f lambda g} for two differential functions, by the master formula."""
    h = _as_matrix(h)
    _require_skew(h)
    n, _ = h.shape
    acc = {}
    for k in range(1, n + 1):
        p = _bracket_fun_gen(h, f, k)
        if not p:
            continue
        top = da.max_order(g, k - 1)
        if top is None:
            continue
        shifted = p
        for order in range(top + 1):
            c = da.partial_derivative(g, (k - 1, order))
            if c:
                _addmul_poly_into(acc, c, shifted)
            if order < top:
                shifted = _shift_once(shifted)
    return _poly_from_acc(acc)


def _bracket_fun_gen(h, g, k):
    """{g nu u_k} as a polynomial in nu = lambda + mu."""
    n, _ = h.shape
    acc = {}
    for m in range(n):
        op = h.entries[k - 1][m]
        if not op:
            continue
        top = da.max_order(g, m)
        if top is None:
            continue
        # (-nu - d)^order dg/du_m^(order) = (-1)^order (nu + d)^order dg/du_m^(order)
        for order in range(top + 1):
            c = da.partial_derivative(g, (m, order))
            if not c:
                continue
            inner = LambdaPoly([(0, c)])
            for _ in range(order):
                inner = _shift_once(inner)
            _op_shift_apply_into(acc, op, inner, -1 if order % 2 else 1)
    return _poly_from_acc(acc)


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

    return LambdaMuPoly.from_dict({ab: DiffFunction.from_dict(d) for ab, d in acc.items()})


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
