"""Exact arithmetic for differential functions in two jet variables.

Ring conventions
----------------
Generators are the jet variables u, u', u'', ... and v, v', v'', ...,
written as pairs (variable, order) with u = 0 and v = 1.  The zeroth v
generator is a Laurent variable: negative powers of v are allowed, every
other generator carries nonnegative exponents.  One extra generator
``log v`` (code 2, order 0) makes the ring closed under integration of
total derivatives; its total derivative is v'/v and partial derivatives
treat it as a function of v.

Packed monomials
----------------
Inside this module a monomial is one Python ``int``, its packed
exponent vector (Monagan and Pearce, CASC 2007): the sum of
e_g * 2^(W * slot(g)) over its factors g^e, with W = ``EXP_BITS``.
Slot 0 holds v, slot 1 log v, and the jets follow interleaved by order:
u in slot 2, and for n >= 1 v^(n) in slot 2n + 1 and u^(n) in slot
2n + 2.  The encoding is linear, so the product of two monomials is the
sum of their ints, the factor g'/g of the total derivative is one
integer per generator, and an exponent is read with one shift and one
mask.  Jet orders are unbounded because Python ints are.

The v field, in slot 0, is the only signed one; a negative exponent
borrows from the fields above it, which is why v sits in the lowest
slot: adding ``_OFF`` = 2^(W-2) to a monomial makes every field
nonnegative, and then each field is a plain W-bit group.  Exponents
must stay in range: 0 <= e <= ``MAX_EXP`` = 2^(W-1) - 1 for every field
but v, and ``MIN_V_EXP`` <= e <= ``MAX_V_EXP`` (+-2^(W-2)) for v.  The
sum of two in-range monomials, or a monomial shifted by one g'/g,
stays exact, and an exponent out of range sets the top bit of a field
once ``_OFF`` is added (or makes the sum negative).  So the range is
checked once per distinct result monomial, where a sum of products is
made canonical (:meth:`DiffFunction.from_acc`), never per product; an
exponent out of range raises :class:`~magri.errors.ExponentOverflow`, a
``MagriError``, and never yields a wrong monomial.

A :class:`DiffFunction` holds a tuple of (packed monomial, int numerator)
pairs sorted by the monomial, with no zero numerators, and one positive
int denominator ``_den``: the function is the sum of numerator/_den
times monomial.  The pair is canonical when gcd(_den, every numerator)
= 1, so equal functions have equal tuples and equal denominators.  This
is the split of a rational polynomial into a denominator and an
integral part (Knuth, TAOCP vol. 2, 4.6.1): every coefficient operation
inside the ring is plain ``int`` arithmetic, several times faster than
``Fraction`` arithmetic, and a value with integral coefficients, as
every value of the Poisson checks is, has ``_den`` = 1 and runs the
same loops as if there were no denominator at all.  ``Fraction``
appears only at the public face: :attr:`~DiffFunction.terms`,
:meth:`~DiffFunction.coeff` and :meth:`~DiffFunction.constant_term`
give each coefficient as an ``int`` when it is integral and otherwise
as a ``Fraction`` with denominator > 1, never a float or a bool;
scalar operands may be either, and every division of coefficients goes
through :func:`coeff_div`.  Values are immutable and every operation
returns a canonical form.

The public face speaks tuples: a monomial read in or written out is a
tuple of (variable, order, exponent) triples sorted by (variable,
order), as taken by ``DiffFunction(terms)``, :meth:`~DiffFunction.from_terms`,
:func:`normalize` and :func:`jet`.  :attr:`DiffFunction.terms` decodes
the pairs once per value, sorts them by the tuple monomial and caches
the result, so the plain-text, JSON and LaTeX forms see the same terms
in the same order as when monomials were tuples inside too.  The
engine reads no ``terms``: the linear solver keys its rows by packed
monomials (:func:`integral_terms`), the kernel markers of the recursion
are packed (:func:`packed_terms`), candidate spaces are packed
(:func:`monomials`) and solutions come back through
:meth:`~DiffFunction.from_packed`.

A sum of products is built in one pass: :func:`addmul_into`,
:func:`add_into` and the total derivative add each piece into an
:class:`Accumulator`, a ``{packed monomial: int numerator}`` dict over
its own denominator, and :meth:`DiffFunction.from_acc` turns it into a
canonical value once at the end, dividing out the common factor with
one ``math.gcd``.  The accumulator is rescaled only when a piece's
denominator does not divide its own, to their lcm.  Summing with ``acc
= acc + a * b`` instead would copy and re-sort the whole partial sum on
every step.  A product with a one-term factor c * m needs no dict at
all: it adds the one int m to every monomial of the other factor, which
keeps them distinct and in order, so the range is checked once over
the shifted monomials, as ``from_acc`` checks it, and nothing is sorted.
A power of one term is closed-form, (c * m)^n = c^n * (n * m), with
each exponent times n checked against its bound before n * m is
formed, since a field that overflows there would carry into the next.

The total derivative acts by u_i^(n) -> u_i^(n+1) extended as a
derivation, with d(v^-1) = -v'*v^-2 and d(log v) = v'/v.  Partial
derivatives satisfy the shift relation [d/du_i^(n), d] = d/du_i^(n-1).
Grading: a jet of order n has weight n + 2, v^-1 has weight -2 and
log v has weight 0.

Each value keeps its own derivative tower.  The ``_d`` slot of a
:class:`DiffFunction` is None until :func:`total_derivative` first
differentiates it, and from then on holds f' (ZERO itself when f' is
zero), so d^n f is a walk along f, f', f'', ... that computes each
step once per value.  Operator application, composition and adjoints,
the lambda-bracket tables and flow commutators all read derivatives
through that one function.  The chain lives exactly as long as f does:
no module-level table holds it, so it never outgrows the values in
use.  The memo belongs to the object, not to its value: an equal
function built elsewhere builds its own chain.

Subalgebras
-----------
A :class:`SubalgebraTag` names a v-power interval: the monomials free
of log v whose power e of v has lo <= e <= hi, plus at most the one
pure power v^affine; ``tag.bounds`` is (lo, hi, affine), with None for
a missing bound, read from one table keyed by the tag's kind.  A tagged
:func:`antiderivative` must land in the tag's target space: a tag with
no lower bound targets its interval plus the pure power v^(hi + 1), so
V_MINUS targets affine_scaled(0) and scaled_v_minus(k) targets
affine_scaled(k); every other tag is its own target, except
scaled_plus, which has none.  :func:`monomials` enumerates the
monomials of one weight within a v-power interval (plus the pure power
v^affine); the ansatz spaces of the recursion and the v-only candidates
of exact integration both come from it, in the order of their tuple
forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import itemgetter, or_

from .errors import ExponentOverflow, MagriError

U, V, LOG_VAR = 0, 1, 2
VAR_NAMES = ("u", "v", "log")

QQ = Fraction

# -- packed monomials --------------------------------------------------------

EXP_BITS = 16
_MASK = (1 << EXP_BITS) - 1
_OFF = 1 << (EXP_BITS - 2)
MAX_EXP = (1 << (EXP_BITS - 1)) - 1
MIN_V_EXP, MAX_V_EXP = -_OFF, _OFF - 1
_LOG = 1 << EXP_BITS  # log v to the first power

# The memo table of total derivatives of monomials, _DX_MONO, is cleared
# when it reaches this many entries; the hierarchy benchmark fills about 30k.
MEMO_CAP = 1 << 18

_first = itemgetter(0)


def _slot(var, order):
    """The field that holds the generator (var, order)."""
    if var == U:
        return 2 * order + 2
    if var == V:
        return 2 * order + 1 if order else 0
    return 1


@lru_cache(maxsize=64)
def _guard(nfields):
    """The mask of the top bit of each of the lowest ``nfields`` fields."""
    return ((1 << EXP_BITS * nfields) - 1) // _MASK << (EXP_BITS - 1)


def pack_mono(mono):
    """The packed int of a monomial given as (var, order, exp) triples.

    The triples may come in any order, and exponents of a repeated
    generator add up.  Raises MagriError for an unknown generator or a
    negative exponent on a generator other than v, and ExponentOverflow
    for an exponent out of range.
    """
    exps = {}
    for g in mono:
        if len(g) != 3:
            raise MagriError(f"bad generator triple {g!r}")
        var, order, exp = g
        if var not in (U, V, LOG_VAR):
            raise MagriError(f"unknown variable code {var!r}")
        if order < 0:
            raise MagriError("negative jet order")
        if var == LOG_VAR and order != 0:
            raise MagriError("log generator has no jets")
        exps[var, order] = exps.get((var, order), 0) + exp
    m = 0
    for (var, order), e in sorted(exps.items()):
        if (var, order) != (V, 0):
            if e < 0:
                raise MagriError(f"negative exponent on {VAR_NAMES[var]}^({order})")
            if e > MAX_EXP:
                raise ExponentOverflow(f"exponent {e} is above {MAX_EXP}")
        elif not MIN_V_EXP <= e <= MAX_V_EXP:
            raise ExponentOverflow(f"power {e} of v is outside [{MIN_V_EXP}, {MAX_V_EXP}]")
        m += e << (EXP_BITS * _slot(var, order))
    return m


def unpack_mono(m):
    """The tuple form of a packed monomial: (var, order, exp) triples sorted by (var, order)."""
    x = m + _OFF
    e = (x & _MASK) - _OFF
    us, vs = [], [(V, 0, e)] if e else []
    x >>= EXP_BITS
    log = x & _MASK
    x >>= EXP_BITS
    n = 0
    while x:  # u^(n) in slot 2n + 2, then v^(n + 1) in slot 2n + 3
        e = x & _MASK
        if e:
            us.append((U, n, e))
        x >>= EXP_BITS
        n += 1
        e = x & _MASK
        if e:
            vs.append((V, n, e))
        x >>= EXP_BITS
    if log:
        vs.append((LOG_VAR, 0, log))
    return tuple(us + vs)


def mono_exp(m, var, order):
    """The exponent of the generator (var, order) in the packed monomial m."""
    s = _slot(var, order)
    if s:
        return ((m + _OFF) >> (EXP_BITS * s)) & _MASK
    return ((m + _OFF) & _MASK) - _OFF


def _as_coeff(c):
    """An exact coefficient in canonical form: int if integral, else Fraction."""
    if isinstance(c, str):
        c = Fraction(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)  # also turns a bool into a plain int
    raise TypeError(f"not an exact coefficient: {c!r}")


def coeff_div(a, b):
    """The exact quotient a / b of two coefficients, in canonical form.

    The one place coefficients are divided, so that int / int never
    gives a float.  Raises ZeroDivisionError when b is zero.
    """
    return _as_coeff(Fraction(a, b))


class Accumulator:
    """A sum in progress: the dict ``d`` of {packed monomial: int
    numerator} over one positive int denominator ``den``.

    Terms that cancel stay in ``d`` with numerator 0, and nothing is
    reduced; :meth:`DiffFunction.from_acc` drops the zeros, divides out
    the common factor and checks the exponents.
    """

    __slots__ = ("d", "den")

    def __init__(self, pairs=(), den=1):
        self.d = dict(pairs)
        self.den = den

    def fit(self, den):
        """The factor that puts a piece over ``den`` onto this sum's
        denominator; when ``den`` does not divide it, the whole sum is
        first rescaled to their lcm."""
        old = self.den
        if old % den:
            new = lcm(old, den)
            s = new // old
            d = self.d
            for m in d:
                d[m] *= s
            self.den = old = new
        return old // den


def addmul_into(acc, f, g, k=1):
    """Add k*f*g into ``acc``, an :class:`Accumulator`; k is an int or a Fraction."""
    den = f._den * g._den
    if type(k) is not int:
        den *= k.denominator
        k = k.numerator
    if den != acc.den:
        k *= acc.fit(den)
    d = acc.d
    get = d.get
    gt = g._t
    for m1, c1 in f._t:
        if k != 1:
            c1 = c1 * k
        for m2, c2 in gt:
            m = m1 + m2
            d[m] = get(m, 0) + c1 * c2


def add_into(acc, f, k=1):
    """Add k*f into ``acc``, an :class:`Accumulator`, as :func:`addmul_into`
    adds a product."""
    den = f._den
    if type(k) is not int:
        den *= k.denominator
        k = k.numerator
    if den != acc.den:
        k *= acc.fit(den)
    d = acc.d
    get = d.get
    for m, c in f._t:
        d[m] = get(m, 0) + c * k


def dot(a, b):
    """The sum of the products a_i * b_i of two vectors of functions."""
    acc = Accumulator()
    for x, y in zip(a, b):
        addmul_into(acc, x, y)
    return DiffFunction.from_acc(acc)


def denominator(fs):
    """The least positive int whose product with each function of ``fs``
    has integral coefficients: the lcm of their denominators."""
    return lcm(*[f._den for f in fs])


def divide_terms(f, div):
    """f with the coefficient of each packed monomial m divided by
    ``div(m)``, a positive int."""
    ds = [div(m) for m, _c in f._t]
    den = lcm(*ds)
    return _canon([(m, c * (den // d)) for (m, c), d in zip(f._t, ds)], f._den * den)


def packed_terms(f):
    """The (packed monomial, coefficient) pairs of f in increasing packed
    order; a coefficient is an int when integral, else a Fraction."""
    den = f._den
    return f._t if den == 1 else [(m, _rational(c, den)) for m, c in f._t]


def integral_terms(f, den):
    """The (packed monomial, int) pairs of den * f, for den a multiple of
    the denominator of f."""
    s = den // f._den
    return f._t if s == 1 else [(m, c * s) for m, c in f._t]


def _rational(c, den):
    """The coefficient c/den at the public face: an int when integral, else a Fraction."""
    if den == 1:
        return c
    q = Fraction(c, den)
    return q.numerator if q.denominator == 1 else q


_new = object.__new__


def _df(pairs, den=1):
    """A DiffFunction of a canonical tuple of (packed monomial, numerator) pairs over den."""
    f = _new(DiffFunction)
    f._t = pairs
    f._den = den
    f._hash = None
    f._terms = None
    f._d = None
    return f


def _overflow():
    """The error for an exponent that left its range."""
    return ExponentOverflow(
        f"an exponent left its range: at most {MAX_EXP}, "
        f"or [{MIN_V_EXP}, {MAX_V_EXP}] for the power of v"
    )


def _check_range(monos):
    """Raise ExponentOverflow unless every packed monomial of ``monos`` is
    in range; each must be a sum of two in-range monomials (or one shifted
    by a g'/g), so that no field has carried into the next."""
    # an exponent out of range sets the top bit of a field of m + _OFF,
    # or makes m + _OFF negative (see the module docstring)
    bits = reduce(or_, map(_OFF.__add__, monos), 0)
    if bits < 0 or bits & _guard(-(-bits.bit_length() // EXP_BITS)):
        raise _overflow()


def _mono_power(m, n):
    """n * m: the packed monomial m to the power n >= 1.

    Each exponent times n is checked against its bound before the
    product is formed: a field that overflows carries into the next one,
    where :func:`_check_range` cannot see it (u^70000 would pack to
    u^4464*v').
    """
    e = ((m + _OFF) & _MASK) - _OFF  # the power of v
    rest = (m - e) >> EXP_BITS  # the other fields, each in [0, MAX_EXP]
    top = _guard(-(-rest.bit_length() // EXP_BITS))
    # a field f of rest has f * n > MAX_EXP exactly when f + MAX_EXP - MAX_EXP // n
    # sets its top bit; that sum stays below 2^EXP_BITS, so nothing carries
    bump = (top >> (EXP_BITS - 1)) * (MAX_EXP - MAX_EXP // n)
    if not MIN_V_EXP <= e * n <= MAX_V_EXP or (rest + bump) & top:
        raise _overflow()
    return m * n


def _times_term(f, g):
    """f * g for a g of one term c * m: each monomial of f shifts by m,
    which keeps them distinct and in order."""
    (m0, c0), = g._t
    items = [(m + m0, c * c0) for m, c in f._t]
    _check_range([m for m, _c in items])
    return _canon(items, f._den * g._den)


def _canon(items, den):
    """The DiffFunction of a sorted list of distinct packed monomials with
    nonzero int numerators over den > 0, the common factor divided out."""
    if den != 1:
        g = gcd(den, *[c for _m, c in items])
        if g != 1:
            den //= g
            items = [(m, c // g) for m, c in items]
    return _df(tuple(items), den)


class DiffFunction:
    """A differential function in canonical sparse form."""

    __slots__ = ("_t", "_den", "_hash", "_terms", "_d")

    def __init__(self, terms=()):
        """Build from (monomial, coefficient) pairs, in canonical form.

        Monomials are tuples of (var, order, exp) triples, in any order,
        and exponents of a repeated generator add up; the coefficients of
        equal monomials are summed and zero sums dropped.  A coefficient
        that is not exact (a float) raises TypeError.
        """
        acc = Accumulator()
        d = acc.d
        for m, c in terms:
            m = pack_mono(m)
            c = _as_coeff(c)
            c = c.numerator * acc.fit(c.denominator)
            d[m] = d.get(m, 0) + c
        f = DiffFunction.from_acc(acc)
        self._t = f._t
        self._den = f._den
        self._hash = None
        self._terms = None
        self._d = None

    @staticmethod
    def from_acc(acc):
        """Build from an :class:`Accumulator`, dropping zeros.

        The common factor of the denominator and the numerators is
        divided out here, by one gcd, and every monomial of ``acc`` is
        checked to be in range (see the module docstring).
        """
        d = acc.d
        _check_range(d)
        items = [(m, c) for m, c in d.items() if c]
        items.sort(key=_first)
        if acc.den == 1:
            return _df(tuple(items))
        return _canon(items, acc.den)

    @staticmethod
    def from_terms(pairs):
        """Build from (coefficient, monomial) pairs, as the constructor
        builds from (monomial, coefficient) pairs."""
        return DiffFunction((m, c) for c, m in pairs)

    @staticmethod
    def from_packed(pairs):
        """Build from (coefficient, packed monomial) pairs with distinct
        monomials; a coefficient is an int or a Fraction."""
        pairs = list(pairs)
        den = lcm(*[c.denominator for c, _m in pairs])
        return DiffFunction.from_acc(
            Accumulator([(m, c.numerator * (den // c.denominator)) for c, m in pairs], den)
        )

    @property
    def terms(self):
        """The (monomial, coefficient) pairs with tuple monomials, sorted by
        monomial; a coefficient is an int when integral, else a Fraction."""
        t = self._terms
        if t is None:
            t = self._terms = tuple(
                sorted(((unpack_mono(m), c) for m, c in packed_terms(self)), key=_first)
            )
        return t

    def coeff(self, mono):
        m = pack_mono(mono)
        for mm, c in self._t:
            if mm == m:
                return _rational(c, self._den)
        return 0

    def constant_term(self):
        # only pure negative powers of v sort before the empty monomial 0
        for m, c in self._t:
            if m >= 0:
                return _rational(c, self._den) if m == 0 else 0
        return 0

    def __bool__(self):
        return bool(self._t)

    def __len__(self):
        """The number of terms."""
        return len(self._t)

    def __eq__(self, other):
        if isinstance(other, DiffFunction):
            return self._den == other._den and self._t == other._t
        if isinstance(other, (int, Fraction)):
            return self == const(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._t, self._den))
        return self._hash

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = const(other)
        if not isinstance(other, DiffFunction):
            return NotImplemented
        acc = Accumulator(self._t, self._den)
        add_into(acc, other)
        return DiffFunction.from_acc(acc)

    __radd__ = __add__

    def __neg__(self):
        return _df(tuple([(m, -c) for m, c in self._t]), self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = const(other)
        if not isinstance(other, DiffFunction):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = _as_coeff(other)
            if not k:
                return ZERO
            if k == 1:
                return self
            return _canon(
                [(m, c * k.numerator) for m, c in self._t], self._den * k.denominator
            )
        if not isinstance(other, DiffFunction):
            return NotImplemented
        if len(other._t) == 1:
            return _times_term(self, other)
        if len(self._t) == 1:
            return _times_term(other, self)
        acc = Accumulator()
        addmul_into(acc, self, other)
        return DiffFunction.from_acc(acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * coeff_div(1, other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise MagriError("powers of differential functions must be nonnegative integers")
        if n and len(self._t) == 1:  # (c * m)^n = c^n * m^n, in closed form
            (m, c), = self._t
            return _df(((_mono_power(m, n), c**n),), self._den**n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __repr__(self):
        return f"DiffFunction({to_text(self)!r})"


ZERO = _df(())
ONE = _df(((0, 1),))


def _term(m, q):
    """The one-term function q * m, for a packed monomial m and a nonzero rational q."""
    q = _as_coeff(q)
    return _df(((m, q.numerator),), q.denominator)


def const(q):
    q = _as_coeff(q)
    if not q:
        return ZERO
    return _term(0, q)


def jet(var, order, exp=1):
    """The generator (var, order) raised to ``exp``."""
    if exp == 0:
        return ONE
    return _df(((pack_mono(((var, order, exp),)), 1),))


def u_jet(n=0):
    return jet(U, n)


def v_jet(n=0):
    return jet(V, n)


def v_pow(k):
    return jet(V, 0, k)


def log_v():
    return jet(LOG_VAR, 0)


def normalize(raw):
    """Canonical form of a raw list of (coefficient, monomial) pairs.

    Accepts arbitrary generator order and repeated generators inside a
    monomial; returns the unique sorted, zero-free representation.
    """
    return DiffFunction.from_terms(raw)


# -- derivations -------------------------------------------------------------


# g'/g packed: v'/v for v, v'/(v log v) for log v, and x^(n+1)/x^(n) for a
# jet in slot s >= 2, which is _DX_STEP times the unit of slot s
_DX_V = (1 << 3 * EXP_BITS) - 1
_DX_LOG = _DX_V - _LOG
_DX_STEP = (1 << 2 * EXP_BITS) - 1

_DX_MONO = {}


def _dx_mono(m):
    """Total derivative of a packed monomial by the product rule.

    A factor g^e of m contributes e * m * g'/g.  Returns the sorted
    tuple of (packed monomial, coefficient) pairs, all distinct: the
    g'/g grow with the slot of g, except that log v's is below v's.
    """
    t = _DX_MONO.get(m)
    if t is None:
        t = []
        x = m + _OFF
        e = (x & _MASK) - _OFF
        x >>= EXP_BITS
        if x & _MASK:
            t.append((m + _DX_LOG, x & _MASK))
        if e:
            t.append((m + _DX_V, e))
        x >>= EXP_BITS
        step = _DX_STEP << 2 * EXP_BITS
        while x:
            e = x & _MASK
            if not e:
                # jump over the run of empty fields below the lowest set bit,
                # so a high jet order costs one shift, not one per field
                z = ((x & -x).bit_length() - 1) // EXP_BITS * EXP_BITS
                x >>= z
                step <<= z
                e = x & _MASK
            t.append((m + step, e))
            x >>= EXP_BITS
            step <<= EXP_BITS
        t = tuple(t)  # total_derivative checks the exponents
        if len(_DX_MONO) >= MEMO_CAP:
            _DX_MONO.clear()
        _DX_MONO[m] = t
    return t


def _dx_into(acc, f, k=1):
    """Add k times the total derivative of f into ``acc``, as addmul_into
    adds a product; k is an int."""
    if f._den != acc.den:
        k *= acc.fit(f._den)
    d = acc.d
    memo = _DX_MONO
    get = d.get
    for m, c in f._t:
        if k != 1:
            c = c * k
        t = memo.get(m)
        if t is None:
            t = _dx_mono(m)
        for dm, e in t:
            d[dm] = get(dm, 0) + c * e


def total_derivative(f, n=1):
    """Apply the total derivative ``n`` times.

    Walks the chain f, f', f'', ... of ``_d`` slots, computing and
    keeping each derivative not yet there; a zero derivative is ZERO
    itself, which ends the walk.
    """
    for _ in range(n):
        d = f._d
        if d is None:
            acc = Accumulator()
            _dx_into(acc, f)
            d = f._d = DiffFunction.from_acc(acc) or ZERO
        if d is ZERO:
            return d
        f = d
    return f


def partial_derivative(f, gen):
    """Partial derivative with respect to one generator.

    ``gen`` is a (variable, order) pair; variables may be given as the
    codes 0, 1, 2 or as the names "u", "v", "log".  Differentiating by v
    applies the chain rule to log v, which keeps the shift relation
    [d/dv, d] = d/dv' valid on the extended ring.
    """
    var, order = gen
    if isinstance(var, str):
        var = VAR_NAMES.index(var)
    if var not in (U, V, LOG_VAR) or order < 0 or (var == LOG_VAR and order):
        return ZERO
    s = _slot(var, order)
    if s == 0:
        # log v depends on v: d(log v)/dv = 1/v.
        acc = Accumulator((), f._den)
        d = acc.d
        get = d.get
        for m, c in f._t:
            x = m + _OFF
            e = (x & _MASK) - _OFF
            if e:
                d[m - 1] = get(m - 1, 0) + c * e
            j = (x >> EXP_BITS) & _MASK
            if j:
                m2 = m - _LOG - 1
                d[m2] = get(m2, 0) + c * j
        return DiffFunction.from_acc(acc)
    # lowering one positive exponent keeps the monomials distinct, in
    # range and in the same order
    shift = EXP_BITS * s
    unit = 1 << shift
    out = []
    for m, c in f._t:
        e = ((m + _OFF) >> shift) & _MASK
        if e:
            out.append((m - unit, c * e))
    return _canon(out, f._den)


def max_order(f, var=None):
    """Largest jet order present (None for a constant).

    v^0 counts as order 0, and log v counts as the order-0 v generator
    since it depends on v.
    """
    has_v = False
    bits = 0  # the fields from slot 1 up, or-ed over all monomials
    for m, _ in f._t:
        x = (m + _OFF) >> EXP_BITS
        bits |= x
        if m != x << EXP_BITS:
            has_v = True
    if var is None:
        if bits:
            return (bits.bit_length() - 1) // EXP_BITS // 2
        return 0 if has_v else None
    if var not in (U, V):
        return None
    # field i of bits is slot i + 1: v jets (and log v) in odd slots, u in even ones
    i = (bits.bit_length() - 1) // EXP_BITS
    if (i + 1) % 2 != (var == V):
        i -= 1
    while i >= 0:
        if (bits >> (EXP_BITS * i)) & _MASK:
            return i // 2
        i -= 2
    return 0 if var == V and has_v else None
def differential_order(f):
    """Max jet order with a nonvanishing partial derivative.

    Accepts a DiffFunction or a sequence of them; returns None when no
    generator appears at all (the order of a constant is minus infinity).
    """
    if isinstance(f, DiffFunction):
        comps = (f,)
    else:
        comps = tuple(f)
    best = None
    for g in comps:
        o = max_order(g)
        if o is not None and (best is None or o > best):
            best = o
    return best


class _Inhomogeneous:
    __slots__ = ()

    def __repr__(self):
        return "INHOMOGENEOUS"


INHOMOGENEOUS = _Inhomogeneous()


def mono_weight(m):
    """Weight of a packed monomial: order + 2 per jet factor, 0 for log v."""
    x = m + _OFF
    w = 2 * ((x & _MASK) - _OFF)
    x >>= 2 * EXP_BITS  # log v weighs 0
    s = 2
    while x:  # slots 2, 3, 4, 5, ... hold u, v', u', v'', ... of weight 2, 3, 3, 4, ...
        w += (x & _MASK) * ((s + 1) // 2 + 1)
        x >>= EXP_BITS
        s += 1
    return w


def mono_degree(m, var=None):
    """The sum of the exponents of the jets of ``var`` in a packed
    monomial, or of every generator, log v included, when ``var`` is None."""
    x = m + _OFF
    deg = 0 if var == U else (x & _MASK) - _OFF
    skip, step = {None: (1, 1), U: (2, 2), V: (3, 2)}[var]
    x >>= EXP_BITS * skip  # past v, and past log v unless var is None
    while x:  # every field, or every other one: u^(n) and v^(n+1) alternate
        deg += x & _MASK
        x >>= EXP_BITS * step
    return deg


def weight(f):
    """Common weight of all monomials, or the INHOMOGENEOUS sentinel.

    Jets of order n weigh n + 2, v^-1 weighs -2, log v weighs 0.  The
    zero function counts as homogeneous of weight 0.
    """
    w = None
    for m, _ in f._t:
        mw = mono_weight(m)
        if w is None:
            w = mw
        elif mw != w:
            return INHOMOGENEOUS
    return 0 if w is None else w


def homogeneous_parts(f, grade=mono_weight):
    """The homogeneous parts of f for ``grade``, a function of packed
    monomials (the weight by default), as (grade, part) pairs sorted by grade."""
    parts = {}
    for m, c in f._t:
        parts.setdefault(grade(m), []).append((m, c))
    # each part keeps the sorted order and no zeros of f
    return [(w, _canon(t, f._den)) for w, t in sorted(parts.items())]


def min_v_exponent(f):
    """Smallest exponent of v^0 over all monomials (0 for zero/absent)."""
    best = 0
    for m, _ in f._t:
        e = ((m + _OFF) & _MASK) - _OFF
        if e < best:
            best = e
    return best


def max_v_exponent(f):
    best = 0
    for m, _ in f._t:
        e = ((m + _OFF) & _MASK) - _OFF
        if e > best:
            best = e
    return best


# -- subalgebras -------------------------------------------------------------

# kind -> the v-power interval (lo, hi, affine) of a tag of power k
_TAG_BOUNDS = {
    "plus": lambda k: (0, None, None),
    "minus": lambda k: (None, 0, None),
    "zero": lambda k: (0, 0, None),
    "scaled_plus": lambda k: (k, None, None),
    "scaled_minus": lambda k: (None, -k, None),
    "affine_scaled": lambda k: (None, -k, 1 - k),
}


@dataclass(frozen=True)
class SubalgebraTag:
    """Names a subspace of the ring that exact integration can respect.

    ``bounds`` is its (lo, hi, affine) v-power interval; an unknown
    ``kind`` or a ``power`` that is not a nonnegative int raises
    MagriError.
    """

    kind: str
    power: int = 0
    bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _TAG_BOUNDS:
            raise MagriError(f"unknown subalgebra tag kind {self.kind!r}")
        if type(self.power) is not int or self.power < 0:
            raise MagriError(
                f"subalgebra tag power must be a nonnegative int, got {self.power!r}"
            )
        object.__setattr__(self, "bounds", _TAG_BOUNDS[self.kind](self.power))


V_PLUS = SubalgebraTag("plus")
V_MINUS = SubalgebraTag("minus")
V_ZERO = SubalgebraTag("zero")


def scaled_v_minus(k):
    """The space v^-k * (polynomials with nonpositive v powers), k >= 1."""
    if k < 1:
        raise MagriError("scaled tag needs k >= 1")
    return SubalgebraTag("scaled_minus", k)


def scaled_v_plus(k):
    """The space v^k * (polynomials with nonnegative v powers), k >= 1."""
    if k < 1:
        raise MagriError("scaled tag needs k >= 1")
    return SubalgebraTag("scaled_plus", k)


def affine_scaled(k):
    """Constants times v^(1-k) plus the v^-k scaled space, k >= 1."""
    if k < 1:
        raise MagriError("affine tag needs k >= 1")
    return SubalgebraTag("affine_scaled", k)


def _mono_in(m, lo, hi, affine):
    """Whether a packed monomial lies in the interval (lo, hi, affine)."""
    if m == affine:  # a pure power v^e packs to the int e
        return True
    if mono_exp(m, LOG_VAR, 0):
        return False
    e = mono_exp(m, V, 0)
    return (lo is None or lo <= e) and (hi is None or e <= hi)


def subalgebra_member(f, tag):
    """Exact membership test for the tagged subspace."""
    bounds = tag.bounds
    return all(_mono_in(m, *bounds) for m, _ in f._t)


def monomials(weight, order_bound, lo, hi=None, affine=None, fields=(U, V), include_log=False):
    """All monomials of one weight, as packed ints in the sorted order of
    their tuple forms.

    A monomial is a product of jets of ``fields`` of order 1 .. order_bound
    (u from order 0) times one power v^e with lo <= e <= hi (``hi`` None:
    no upper bound), which takes up the rest of the weight; the pure power
    v^affine joins them when it has the weight and affine >= lo.  With
    ``include_log``, log(v) * m is added for every m with no power of v.
    The order fixes the pivot columns of the linear solves over these
    candidates, and so the densities and gradients they print.  A
    monomial with an exponent out of range raises ExponentOverflow.
    """
    gens = [
        (var, n)
        for var in sorted(fields)
        for n in range(1 if var == V else 0, order_bound + 1)
    ]
    out = []
    stack = [(0, weight, ())]  # (next generator, weight left, factors so far)
    while stack:
        idx, rest, acc = stack.pop()
        if idx == len(gens):
            e, odd = divmod(rest, 2)  # v^e weighs 2e
            if not odd and (lo <= e and (hi is None or e <= hi) or not acc and e == affine):
                out.append(tuple(sorted(acc + ((V, 0, e),))) if e else acc)
            continue
        var, n = gens[idx]
        e = 0
        # jets only add weight, so v must absorb what is left: 2 * lo <= rest
        while rest - e * (n + 2) >= 2 * lo:
            factors = acc + ((var, n, e),) if e else acc
            stack.append((idx + 1, rest - e * (n + 2), factors))
            e += 1
    if include_log:
        out += [
            tuple(sorted(m + ((LOG_VAR, 0, 1),)))
            for m in out
            if not any(g[0] == V and g[1] == 0 for g in m)
        ]
    return tuple(map(pack_mono, sorted(out)))  # distinct by construction


# -- integration -------------------------------------------------------------


def euler_derivative(f, var):
    """Variational derivative in one variable: sum (-d)^n df/dx^(n).

    Evaluated in Horner form, acc <- df/dx^(k) - d(acc) for k = n-1 .. 0,
    so it takes n total derivatives, each subtracted straight into the
    dict of the next partial derivative.
    """
    n = max_order(f, var)
    if n is None:
        return ZERO
    acc = partial_derivative(f, (var, n))
    for k in range(n - 1, -1, -1):
        p = partial_derivative(f, (var, k))
        d = Accumulator(p._t, p._den)
        _dx_into(d, acc, -1)
        acc = DiffFunction.from_acc(d)
    return acc


def is_total_derivative(f):
    """Whether f lies in the image of the total derivative.

    On this ring the image is exactly the kernel of both Euler operators
    intersected with the functions of zero constant term.  This is the
    one Euler test of the package: :meth:`LocalFunctional.is_zero` and
    the zero tests of :mod:`magri.lenard` call it, and
    :func:`antiderivative` is tested against it.
    """
    if not f:
        return True
    if f.constant_term():
        return False
    return not euler_derivative(f, U) and not euler_derivative(f, V)


def _integrate_v_monomial(k, j):
    """Integral of v^k * log(v)^j dv inside F[v, v^-1, log v]."""
    if j < 0:
        raise MagriError("negative log exponent")
    if k == -1:
        return _term((j + 1) * _LOG, coeff_div(1, j + 1))
    out = _term(k + 1 + j * _LOG, coeff_div(1, k + 1))
    if j:
        out = out - _integrate_v_monomial(k, j - 1) * coeff_div(j, k + 1)
    return out


def _integrate_in_generator(b, var, order):
    """A primitive of b with respect to the generator (var, order).

    For the Laurent/log pair (v, log v) this is an honest indefinite
    integral in v; every other generator is an ordinary polynomial
    variable.
    """
    if var == V and order == 0:
        acc = Accumulator()
        for m, c in b._t:
            k = mono_exp(m, V, 0)
            j = mono_exp(m, LOG_VAR, 0)
            rest = _canon([(m - k - j * _LOG, c)], b._den)
            addmul_into(acc, _integrate_v_monomial(k, j), rest)
        return DiffFunction.from_acc(acc)
    return divide_terms(b, lambda m: mono_exp(m, var, order) + 1) * jet(var, order)


def antiderivative(f, tag=None):
    """A primitive g with total_derivative(g) == f, or None.

    Each round takes the top order n of what is left, integrates its
    coefficient of v^(n), or of u^(n) when v^(n) is absent, in the jet
    of order n - 1, and subtracts the derivative of that primitive, so
    no term in the jet just integrated is left.  For exact input
    D(G), G of order n - 1, a round in v^(n) leaves D of a function
    free of v^(n-1), and a round in u^(n) after it leaves a remainder of
    order below n.  So a round that would start at the order of the
    last round in u returns None: exact input never meets this rule,
    and every input takes at most two rounds per order, 2 * n in all.
    A remainder of order 0, or one nonlinear in its top jet or with a
    coefficient of order n or more, returns None too.  g is returned
    only when the remainder has reached 0, so the result is checked.
    When a round leaves the exponent range, the Euler test decides: input
    that is not exact returns None, and exact input, whose primitive
    the ring cannot hold, raises ExponentOverflow.

    The result is normalized to have zero constant term.  When ``tag``
    names a subspace, the primitive must land in its target space,
    otherwise None is returned: a tag with no lower bound on the power
    of v gains the one pure power v^(hi + 1) (input in v^-k times the
    nonpositive part has a primitive there up to c * v^(1-k)), and
    every other tag is its own target; scaled_plus has no target and
    raises MagriError.
    """
    g = Accumulator()  # the primitive so far
    work = f
    last_u = None  # the order of the last round in u
    try:
        while work:
            n = differential_order(work)
            if n is None or n == 0 or n == last_u:
                # a nonzero remainder of order 0 is never exact, and neither is
                # one left at the order of the last round in u
                return None
            # the fields of m + _OFF or-ed over the terms: v^(n) is read once
            bits = reduce(or_, [m + _OFF for m, _ in work._t])
            var = V if (bits >> EXP_BITS * _slot(V, n)) & _MASK else U
            top = partial_derivative(work, (var, n))
            if partial_derivative(top, (var, n)):
                return None
            t_ord = differential_order(top)
            if t_ord is not None and t_ord >= n:
                return None
            if var == U:
                last_u = n
            p = _integrate_in_generator(top, var, n - 1)
            add_into(g, p)
            d = Accumulator(work._t, work._den)
            _dx_into(d, p, -1)
            work = DiffFunction.from_acc(d)
        g = DiffFunction.from_acc(g)
    except ExponentOverflow:
        if is_total_derivative(f):
            raise
        return None
    if tag is not None:
        if tag.kind == "scaled_plus":
            raise MagriError(f"no antiderivative target space for tag {tag.kind!r}")
        lo, hi, affine = tag.bounds
        if lo is None:
            affine = hi + 1  # the primitive may carry one pure power v^(hi+1)
        if not all(_mono_in(m, lo, hi, affine) for m, _ in g._t):
            return None
    return g


# -- local functionals -------------------------------------------------------


class LocalFunctional:
    """A differential function considered modulo total derivatives.

    Two representatives are equal when their difference integrates to
    zero, i.e. lies in the image of the total derivative.  The class is
    hashable through the complete invariant (Euler derivatives in u and
    v, constant term).
    """

    __slots__ = ("rep", "_key")

    def __init__(self, rep):
        if isinstance(rep, (int, Fraction)):
            rep = const(rep)
        if not isinstance(rep, DiffFunction):
            raise MagriError("a local functional wraps a differential function")
        self.rep = rep
        self._key = None

    def _invariant(self):
        if self._key is None:
            self._key = (
                euler_derivative(self.rep, U),
                euler_derivative(self.rep, V),
                self.rep.constant_term(),
            )
        return self._key

    @classmethod
    def _of_gradient(cls, rep, grad):
        """The functional of ``rep``, given its Euler derivatives (d/du, d/dv).

        ``grad`` is taken as it is, so the caller must have checked it.
        """
        lf = cls(rep)
        lf._key = (grad[0], grad[1], rep.constant_term())
        return lf

    def variational_gradient(self):
        """The pair of Euler derivatives (d/du, d/dv)."""
        du, dv, _ = self._invariant()
        return (du, dv)

    def is_zero(self):
        if self._key is None:
            return is_total_derivative(self.rep)
        return not any(self._key)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, DiffFunction)):
            other = LocalFunctional(other)
        if not isinstance(other, LocalFunctional):
            return NotImplemented
        return self._invariant() == other._invariant()

    def __hash__(self):
        return hash(self._invariant())

    def __add__(self, other):
        if isinstance(other, (int, Fraction, DiffFunction)):
            other = LocalFunctional(other)
        if not isinstance(other, LocalFunctional):
            return NotImplemented
        return LocalFunctional(self.rep + other.rep)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, DiffFunction)):
            other = LocalFunctional(other)
        if not isinstance(other, LocalFunctional):
            return NotImplemented
        return LocalFunctional(self.rep - other.rep)

    def __neg__(self):
        return LocalFunctional(-self.rep)

    def __mul__(self, k):
        if isinstance(k, (int, Fraction)):
            return LocalFunctional(self.rep * k)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"LocalFunctional({to_text(self.rep)!r})"


def functional_equal(a, b):
    """Whether two densities define the same local functional."""
    if isinstance(a, (DiffFunction, int, Fraction)):
        a = LocalFunctional(a)
    if isinstance(b, (DiffFunction, int, Fraction)):
        b = LocalFunctional(b)
    return a == b


# -- plain-text form ---------------------------------------------------------


def _gen_text(var, order, exp):
    if var == LOG_VAR:
        s = "log(v)"
    else:
        name = VAR_NAMES[var]
        if order == 0:
            s = name
        elif order <= 2:
            s = name + "'" * order
        else:
            s = f"{name}^({order})"
    if exp != 1:
        if order > 2 or var == LOG_VAR:
            s = f"({s})" if var == LOG_VAR else s
            s += f"^{exp}"
        elif order > 0:
            s = f"({s})^{exp}"
        else:
            s += f"^{exp}"
    return s


def to_text(f):
    """Render in the grammar accepted by the expression parser."""
    if not f:
        return "0"
    parts = []
    for m, c in f.terms:
        factors = [_gen_text(*g) for g in m]
        num, den = c.numerator, c.denominator
        body = "*".join(factors)
        if not factors:
            frag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        else:
            frag = body
            if abs(num) != 1:
                frag = f"{abs(num)}*{frag}"
            if den != 1:
                frag = f"{frag}/{den}"
        sign = "-" if num < 0 else "+"
        parts.append((sign, frag))
    first_sign, first_frag = parts[0]
    out = ("-" if first_sign == "-" else "") + first_frag
    for sign, frag in parts[1:]:
        out += f" {sign} {frag}"
    return out
