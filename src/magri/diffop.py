"""Matrix differential operators with differential-function coefficients.

One container, :class:`SparsePoly`, holds every polynomial with
differential-function coefficients: a sorted tuple of (key, coefficient)
pairs with distinct keys and nonzero coefficients.  Its keys come in two
shapes:

- an int k, the power of d in a scalar operator sum_k a_k * d^k kept in
  left normal form (coefficients to the left of the powers of the total
  derivative d), or the power of lambda in a lambda polynomial, which is
  the same thing: sum_s f_s lambda^s is the symbol of sum_s f_s d^s, and
  (lambda + d) applied to it is composition with d on the left;
- a pair (a, b), the powers of lambda and mu in a two-variable
  polynomial such as a jacobiator.

:class:`ScalarDiffOp` adds only the operator algebra to the int-keyed
container.  Composition uses d^k . b = sum_m binom(k, m) b^(m) d^(k-m);
the formal adjoint of a*d^k is (-d)^k . a.  Matrix operators are
rectangular grids of scalar ones, with the adjoint given by the
transpose of entrywise adjoints.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb
from operator import itemgetter

from . import diffalg as da
from .diffalg import ZERO, ONE, DiffFunction
from .errors import DimensionMismatch, MagriError

_first = itemgetter(0)
_new = object.__new__


def _power_text(key):
    """d^k for an int key; L^a*M^b (powers of lambda and mu) for a pair."""
    powers = zip("LM", key) if isinstance(key, tuple) else (("d", key),)
    return "*".join(x if e == 1 else f"{x}^{e}" for x, e in powers if e)


class SparsePoly:
    """A polynomial sum_key f_key * x^key with DiffFunction coefficients.

    The constructor takes (key, coefficient) pairs in any order: it sums
    the coefficients of equal keys, drops zeros and sorts by key, so two
    polynomials are equal exactly when their ``terms`` are.
    """

    __slots__ = ("_t",)

    def __init__(self, terms=()):
        d = {}
        for key, f in terms:
            d[key] = d[key] + f if key in d else f
        self._t = tuple(sorted([(k, f) for k, f in d.items() if f], key=_first))

    @classmethod
    def _of(cls, pairs):
        """A polynomial of an already canonical tuple of pairs."""
        p = _new(cls)
        p._t = pairs
        return p

    @classmethod
    def from_dict(cls, d):
        """Build from {key: DiffFunction}, dropping zero coefficients."""
        return cls(d.items())

    @classmethod
    def from_acc(cls, acc):
        """Build from {key: diffalg.Accumulator}, as filled by
        :func:`diffalg.addmul_into` and :func:`compose_into`."""
        return cls.from_dict({key: DiffFunction.from_acc(a) for key, a in acc.items()})

    @property
    def terms(self):
        return self._t

    def coeff(self, key):
        for k, f in self._t:
            if k == key:
                return f
        return ZERO

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            return self._t == other._t
        return NotImplemented

    def __hash__(self):
        return hash(self._t)

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return type(self)(self._t + other._t)

    def __neg__(self):
        return self._of(tuple([(k, -f) for k, f in self._t]))

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Scaling by a rational."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return self._of(())
        return self._of(tuple([(k, f * other) for k, f in self._t]))

    __rmul__ = __mul__

    def __repr__(self):
        bits = []
        for key, f in self._t:
            head = da.to_text(f)
            if len(f) > 1:
                head = f"({head})"
            power = _power_text(key)
            bits.append(f"{head}*{power}" if power else head)
        return f"{type(self).__name__}({' + '.join(bits) or 0})"


class ScalarDiffOp(SparsePoly):
    """One differential operator in left normal form."""

    __slots__ = ()

    def degree(self):
        """Largest power of d present, or None for the zero operator."""
        return self._t[-1][0] if self._t else None

    def __mul__(self, other):
        """Composition, or scaling by a rational."""
        if isinstance(other, DiffFunction):
            other = multiplication(other)
        if not isinstance(other, ScalarDiffOp):
            return super().__mul__(other)
        return compose(self, other)

    def __rmul__(self, other):
        if isinstance(other, DiffFunction):
            return compose(multiplication(other), self)
        return super().__mul__(other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise MagriError("operator powers must be nonnegative integers")
        out = multiplication(ONE)
        base = self
        while n:
            if n & 1:
                out = compose(out, base)
            base = compose(base, base) if n > 1 else base
            n >>= 1
        return out


def multiplication(f):
    """The order-zero operator of multiplication by f."""
    if isinstance(f, (int, Fraction)):
        f = da.const(f)
    return ScalarDiffOp([(0, f)])


D = ScalarDiffOp([(1, ONE)])


def accumulators():
    """An empty {key: diffalg.Accumulator} dict that makes each accumulator
    on first use, as :func:`compose_into` and :meth:`SparsePoly.from_acc`
    take."""
    return defaultdict(da.Accumulator)


def compose_into(acc, a, b):
    """Add a . b into acc, a {power of d: diffalg.Accumulator} dict made by
    :func:`accumulators`.

    d^n . b_j = sum_m C(n, m) b_j^(m) d^(n-m).  Each b_j's derivatives are
    read through :func:`diffalg.total_derivative`, which keeps them on
    b_j, up to the degree of a or up to the first zero derivative,
    whichever comes first: the terms past a zero derivative vanish.
    """
    top = a.degree()
    if top is None:
        return acc
    for j, bj in b.terms:
        bt = [bj]
        while len(bt) <= top:
            d = da.total_derivative(bt[-1])
            if not d:
                break
            bt.append(d)
        for n, an in a.terms:
            for m in range(min(n, len(bt) - 1) + 1):
                da.addmul_into(acc[n - m + j], an, bt[m], comb(n, m))
    return acc


def compose(a, b):
    """Left-normal form of the composition a . b."""
    return ScalarDiffOp.from_acc(compose_into(accumulators(), a, b))


def adjoint_scalar(a):
    """Formal adjoint: (a*d^k)* = (-d)^k . a."""
    acc = accumulators()
    for k, ak in a.terms:
        sign = (-1) ** k
        for m in range(k + 1):
            dm = da.total_derivative(ak, m)
            da.add_into(acc[k - m], dm, sign * comb(k, m))
    return ScalarDiffOp.from_acc(acc)


def _apply_into(acc, a, f):
    """Add a(f) = sum_k a_k * d^k f into acc, a diffalg.Accumulator."""
    for k, ak in a.terms:
        da.addmul_into(acc, ak, da.total_derivative(f, k))


def apply_scalar(a, f):
    acc = da.Accumulator()
    _apply_into(acc, a, f)
    return DiffFunction.from_acc(acc)


def apply_adjoints(pairs):
    """The sum of B*(x) over (B, x) pairs of scalar operators and
    functions, with no derivative of any x taken.

    B = sum_k b_k d^k has the adjoint B*(x) = sum_k (-d)^k (b_k x), so
    the sum is sum_k (-d)^k T_k with T_k = sum_t b_{t,k} x_t, taken in
    Horner form as :func:`diffalg.euler_derivative` takes its own:
    R <- T_k - d(R) for k from the top power down to 0, the derivative
    of R subtracted straight into the accumulator of T_k.  Each product
    b_{t,k} x_t is formed once, and only the partial sums R are
    differentiated, once each; no x keeps a tower.
    """
    by_power = defaultdict(list)
    for b, x in pairs:
        for k, bk in b.terms:
            by_power[k].append((bk, x))
    r = ZERO
    for k in range(max(by_power, default=-1), -1, -1):
        acc = da.Accumulator()
        da.add_derivative_into(acc, r, -1)
        for bk, x in by_power[k]:
            da.addmul_into(acc, bk, x)
        r = DiffFunction.from_acc(acc)
    return r


class MatrixDiffOp:
    """A grid of scalar differential operators.

    ``_skew`` is None until :func:`is_skew_adjoint` first decides the
    operator, and from then on holds its verdict.  ``factors`` is None,
    or the tuple of operators whose composition, left to right, the
    operator is (see :func:`factored`); :func:`apply` then goes through
    them, and every other reader takes the expanded ``entries``.
    """

    __slots__ = ("entries", "_skew", "factors")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("operator rows must be nonempty and equal length")
        for row in rows:
            for e in row:
                if not isinstance(e, ScalarDiffOp):
                    raise MagriError("matrix entries must be scalar operators")
        self.entries = rows
        self._skew = None
        self.factors = None

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __bool__(self):
        """False exactly when every entry is the zero operator."""
        return any(e for row in self.entries for e in row)

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
            if self.shape[1] != other.shape[0]:
                raise DimensionMismatch("operator shapes do not compose")
            out = []
            for arow in self.entries:
                row = []
                for j in range(other.shape[1]):
                    acc = accumulators()
                    for a, brow in zip(arow, other.entries):
                        compose_into(acc, a, brow[j])
                    row.append(ScalarDiffOp.from_acc(acc))
                out.append(row)
            return MatrixDiffOp(out)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"MatrixDiffOp({self.shape[0]}x{self.shape[1]})"


def as_matrix(h):
    """h, or the 1x1 matrix of h when h is a ScalarDiffOp."""
    return MatrixDiffOp([[h]]) if isinstance(h, ScalarDiffOp) else h


def adjoint(h):
    """Formal adjoint (transpose of entrywise adjoints)."""
    if isinstance(h, ScalarDiffOp):
        return adjoint_scalar(h)
    n, m = h.shape
    return MatrixDiffOp(
        [[adjoint_scalar(h.entries[j][i]) for j in range(n)] for i in range(m)]
    )


def factored(*factors):
    """The composition f_1 . f_2 . ... . f_k of matrix operators, keeping
    its factors: :func:`apply` goes through them right to left, which
    costs less than the expanded entries when a factor of multiplication
    sits on each side of a long one (w . Q . w in H1)."""
    h = factors[0]
    for f in factors[1:]:
        h = h * f
    h.factors = factors
    return h


def apply(h, vec):
    """Apply a matrix operator to a vector of differential functions,
    through its factors, right to left, when it has them.

    A row whose one nonzero entry is one term c * d^k, as every row of
    the factors W and [[0, d], [d, -Q]] of H1 but the last, gives c times
    d^k x, read off the tower of its component x: the identity passes x
    itself on, tower and all, and any other such row a new value that
    holds no tower.  Every other row is summed into a new value.  Summed
    through the accumulator, the rows of W and d took H1 6% longer on
    2-term vectors and 9% longer on the gradients of the benchmark's
    hierarchy chains, and copied vec[0], whose derivative H0 had built.
    """
    h = as_matrix(h)
    vec = tuple(vec)
    n, m = h.shape
    if len(vec) != m:
        raise DimensionMismatch(f"operator takes {m} components, got {len(vec)}")
    for f in reversed(h.factors or (h,)):
        out = []
        for row in f.entries:
            live = [(a, x) for a, x in zip(row, vec) if a]
            if len(live) == 1 and len(live[0][0].terms) == 1:
                (a, x), = live
                (k, c), = a.terms
                out.append(x if (k, c) == (0, ONE) else c * da.total_derivative(x, k))
                continue
            acc = da.Accumulator()
            for a, x in live:
                _apply_into(acc, a, x)
            out.append(DiffFunction.from_acc(acc))
        vec = tuple(out)
    return vec


def is_skew_adjoint(h):
    """Whether h* == -h, exactly.

    A :class:`MatrixDiffOp` keeps its verdict, True or False, in its
    ``_skew`` slot, as a DiffFunction keeps its derivative in ``_d``: the
    adjoint is built once per object, and the verdict lives as long as
    the object does.  An equal operator built elsewhere decides anew, and
    a ScalarDiffOp is decided on every call.
    """
    if isinstance(h, ScalarDiffOp):
        return adjoint_scalar(h) == -h
    if h._skew is None:
        h._skew = adjoint(h) == -h
    return h._skew


def kernel_verify(h, vec):
    """Whether the vector is annihilated by the operator, exactly."""
    return all(not comp for comp in apply(h, vec))


# -- the built-in compatible pair -------------------------------------------


def builtin_pair():
    """The standard pair (H0, H1) of skew-adjoint operators on (u, v).

    H0 has order 3:   [[d^3 + 2u d + u', v d], [d . v, 0]]
    H1 has order 5:   [[0, d . 1/v^2], [1/v^2 d, -1/v^2 . Q . 1/v^2]]
    with Q = d^5 + 3 d.(d.u + u d).d + 2(d^3.u + u d^3) + 8(d.u^2 + u^2 d).

    H1 keeps its factors W . [[0, d], [d, -Q]] . W, W = diag(1, 1/v^2):
    its entries are their product, and it is applied through them.
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
    w = MatrixDiffOp([[multiplication(ONE), zero], [zero, multiplication(da.v_pow(-2))]])
    h1 = factored(w, MatrixDiffOp([[zero, D], [D, -q]]), w)
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
