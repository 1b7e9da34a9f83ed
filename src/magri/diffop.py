"""Matrix differential operators with differential-function coefficients.

A scalar operator is kept in left normal form sum_k a_k * d^k with the
coefficients a_k written to the left of the powers of the total
derivative d.  Composition uses d^k . b = sum_m binom(k, m) b^(m)
d^(k-m); the formal adjoint of a*d^k is (-d)^k . a.  Matrix operators
are rectangular grids of scalar ones, with the adjoint given by the
transpose of entrywise adjoints.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import diffalg as da
from .diffalg import ZERO, ONE, DiffFunction
from .errors import DimensionMismatch, MagriError


class ScalarDiffOp:
    """One differential operator in left normal form."""

    __slots__ = ("_t",)

    def __init__(self, terms=()):
        self._t = tuple(terms)

    @staticmethod
    def from_dict(d):
        items = [(k, f) for k, f in d.items() if f]
        items.sort()
        return ScalarDiffOp(items)

    @property
    def terms(self):
        return self._t

    def coeff(self, k):
        for deg, f in self._t:
            if deg == k:
                return f
        return ZERO

    def degree(self):
        """Largest power of d present, or None for the zero operator."""
        return self._t[-1][0] if self._t else None

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, ScalarDiffOp):
            return self._t == other._t
        return NotImplemented

    def __hash__(self):
        return hash(self._t)

    def __add__(self, other):
        if not isinstance(other, ScalarDiffOp):
            return NotImplemented
        d = dict(self._t)
        for k, f in other._t:
            s = d.get(k, ZERO) + f
            if s:
                d[k] = s
            else:
                d.pop(k, None)
        return ScalarDiffOp.from_dict(d)

    def __neg__(self):
        return ScalarDiffOp([(k, -f) for k, f in self._t])

    def __sub__(self, other):
        if not isinstance(other, ScalarDiffOp):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Composition, or scaling by a rational."""
        if isinstance(other, (int, Fraction)):
            if not other:
                return ScalarDiffOp()
            return ScalarDiffOp([(k, f * other) for k, f in self._t])
        if isinstance(other, DiffFunction):
            other = multiplication(other)
        if not isinstance(other, ScalarDiffOp):
            return NotImplemented
        return compose(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, DiffFunction):
            return compose(multiplication(other), self)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise MagriError("operator powers must be nonnegative integers")
        out = multiplication(ONE)
        for _ in range(n):
            out = compose(out, self)
        return out

    def __repr__(self):
        if not self._t:
            return "ScalarDiffOp(0)"
        bits = []
        for k, f in self._t:
            head = da.to_text(f)
            if len(f.terms) > 1:
                head = f"({head})"
            bits.append(head if k == 0 else f"{head}*d^{k}" if k > 1 else f"{head}*d")
        return "ScalarDiffOp(" + " + ".join(bits) + ")"


def multiplication(f):
    """The order-zero operator of multiplication by f."""
    if isinstance(f, (int, Fraction)):
        f = da.const(f)
    if not f:
        return ScalarDiffOp()
    return ScalarDiffOp([(0, f)])


D = ScalarDiffOp([(1, ONE)])


def compose(a, b):
    """Left-normal form of the composition a . b."""
    acc = {}  # power of d -> {monomial: coefficient}
    for k, ak in a.terms:
        for j, bj in b.terms:
            g = bj
            for m in range(k + 1):
                # d^k . b = sum_m C(k, m) b^(m) d^(k-m)
                da.addmul_into(acc.setdefault(k - m + j, {}), ak, g, comb(k, m))
                if m < k:
                    g = da.total_derivative(g)
    return ScalarDiffOp.from_dict({deg: DiffFunction.from_dict(d) for deg, d in acc.items()})


def adjoint_scalar(a):
    """Formal adjoint: (a*d^k)* = (-d)^k . a."""
    acc = {}
    for k, ak in a.terms:
        sign = (-1) ** k
        g = ak
        for m in range(k + 1):
            piece = g * (sign * comb(k, m))
            deg = k - m
            s = acc.get(deg, ZERO) + piece
            if s:
                acc[deg] = s
            else:
                acc.pop(deg, None)
            if m < k:
                g = da.total_derivative(g)
    return ScalarDiffOp.from_dict(acc)


def _apply_into(acc, a, f):
    """Add a(f) = sum_k a_k * d^k f into acc, a {monomial: coefficient} dict."""
    g, n = f, 0
    for k, ak in a.terms:
        while n < k:
            g = da.total_derivative(g)
            n += 1
        da.addmul_into(acc, ak, g)


def apply_scalar(a, f):
    acc = {}
    _apply_into(acc, a, f)
    return DiffFunction.from_dict(acc)


class MatrixDiffOp:
    """A grid of scalar differential operators."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("operator rows must be nonempty and equal length")
        for row in rows:
            for e in row:
                if not isinstance(e, ScalarDiffOp):
                    raise MagriError("matrix entries must be scalar operators")
        self.entries = rows

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if isinstance(other, MatrixDiffOp):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        if not isinstance(other, MatrixDiffOp):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch("operator shapes differ")
        return MatrixDiffOp(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, MatrixDiffOp):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MatrixDiffOp([[-e for e in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MatrixDiffOp([[e * other for e in row] for row in self.entries])
        if isinstance(other, MatrixDiffOp):
            n, k = self.shape
            k2, m = other.shape
            if k != k2:
                raise DimensionMismatch("operator shapes do not compose")
            out = []
            for i in range(n):
                row = []
                for j in range(m):
                    acc = ScalarDiffOp()
                    for t in range(k):
                        acc = acc + compose(self.entries[i][t], other.entries[t][j])
                    row.append(acc)
                out.append(row)
            return MatrixDiffOp(out)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"MatrixDiffOp({self.shape[0]}x{self.shape[1]})"


def adjoint(h):
    """Formal adjoint (transpose of entrywise adjoints)."""
    if isinstance(h, ScalarDiffOp):
        return adjoint_scalar(h)
    n, m = h.shape
    return MatrixDiffOp(
        [[adjoint_scalar(h.entries[j][i]) for j in range(n)] for i in range(m)]
    )


def apply(h, vec):
    """Apply a matrix operator to a vector of differential functions."""
    if isinstance(h, ScalarDiffOp):
        h = MatrixDiffOp([[h]])
    vec = tuple(vec)
    n, m = h.shape
    if len(vec) != m:
        raise DimensionMismatch(f"operator takes {m} components, got {len(vec)}")
    out = []
    for row in h.entries:
        acc = {}
        for a, f in zip(row, vec):
            _apply_into(acc, a, f)
        out.append(DiffFunction.from_dict(acc))
    return tuple(out)


def is_skew_adjoint(h):
    if isinstance(h, ScalarDiffOp):
        return adjoint_scalar(h) == -h
    return adjoint(h) == -h


def kernel_verify(h, vec):
    """Whether the vector is annihilated by the operator, exactly."""
    return all(not comp for comp in apply(h, vec))


# -- the built-in compatible pair -------------------------------------------


def builtin_pair():
    """The standard pair (H0, H1) of skew-adjoint operators on (u, v).

    H0 has order 3:   [[d^3 + 2u d + u', v d], [d . v, 0]]
    H1 has order 5:   [[0, d . 1/v^2], [1/v^2 d, -1/v^2 . Q . 1/v^2]]
    with Q = d^5 + 3 d.(d.u + u d).d + 2(d^3.u + u d^3) + 8(d.u^2 + u^2 d).
    """
    u = da.u_jet(0)
    v = da.v_jet(0)
    mu = multiplication(u)
    mv = multiplication(v)
    zero = ScalarDiffOp()

    h0 = MatrixDiffOp(
        [
            [D ** 3 + D * mu + mu * D, mv * D],
            [D * mv, zero],
        ]
    )

    q = builtin_q()
    w = multiplication(da.v_pow(-2))
    h1 = MatrixDiffOp(
        [
            [zero, D * w],
            [w * D, -(w * q * w)],
        ]
    )
    return h0, h1


def builtin_q():
    """The order-5 scalar block used inside the built-in order-5 structure."""
    mu = multiplication(da.u_jet(0))
    mu2 = multiplication(da.u_jet(0) * da.u_jet(0))
    return (
        D ** 5
        + (D * (D * mu + mu * D) * D) * 3
        + (D ** 3 * mu + mu * D ** 3) * 2
        + (D * mu2 + mu2 * D) * 8
    )
