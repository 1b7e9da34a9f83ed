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
integer per generator, and one exponent is read with one shift and one
mask (:func:`mono_exp`).  Every reader of a monomial's jets walks only
its nonzero jet fields, one step per jet whatever the order: two
constant masks, ``_U_JETS`` and ``_V_JETS``, pick out the jet fields of
u and those of log v and v, and each step reads and clears the field
of the top set bit; :func:`max_order` reads the top set bit of the
masked OR of the monomials of f.  A monomial has jet orders of at
most ``MAX_ORDER``: one read in is refused above it, and so is a
derivative that would go past it, with an
:class:`~magri.errors.ExponentOverflow`.

The v field, in slot 0, is the only signed one; a negative exponent
borrows from the fields above it, which is why v sits in the lowest
slot: adding ``_OFF`` = 2^(W-2) to a monomial makes every field
nonnegative, and then each field is a plain W-bit group.  Exponents
must stay in range: 0 <= e <= ``MAX_EXP`` = 2^(W-1) - 1 for every field
but v, and ``MIN_V_EXP`` <= e <= ``MAX_V_EXP`` (+-2^(W-2)) for v.  The
sum of two in-range monomials, or a monomial shifted by one g'/g,
stays exact, and an exponent out of range sets the top bit of a field
once ``_OFF`` is added (or makes the sum negative).  One constant mask,
``_GUARD``, holds the top bit of every field that a monomial of jet
order at most ``MAX_ORDER`` has, and :func:`_check_range` tests the OR
of its monomials against it.  So the range is checked once per distinct
result monomial, where a sum of products is made canonical
(:meth:`DiffFunction.from_acc`), never per product; an exponent out of
range raises :class:`~magri.errors.ExponentOverflow`, a ``MagriError``,
and never yields a wrong monomial.

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
:func:`normalize` and :func:`jet`.  One key, :func:`flat_mono`, a
monomial's triples laid end to end, fixes the order of terms: the
writers read :func:`text_terms`, the terms in that order with each
coefficient as an int numerator and denominator, no ``Fraction`` made
and nothing cached, and :attr:`DiffFunction.terms` is built once per
value from the same rows.  Every int is written by :func:`int_text`
and read by :func:`text_int`, at any length.  The engine reads no
``terms``: the linear solver keys its rows by packed monomials
(:func:`integral_terms`), the kernel markers of the recursion are
packed (:func:`packed_terms`), candidate spaces are packed ints
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

A factor g^e of a monomial m contributes e * m * g'/g to its total
derivative, and g'/g is one packed int per slot: ``_DX_V`` for v,
``_DX_LOG`` for log v and ``_DX_STEP`` times the unit of the slot for
a jet.  The factors of m are read off m + ``_OFF`` by one loop,
:func:`_dx_fields_into`: v and log v by a shift and a mask, and the jets
by the walk of the fields above them, one step per jet.
Every total derivative, those of :func:`antiderivative` included, is
taken by one kernel, :func:`add_derivative_into`, which picks one of
two ways by the length of the operand.  An operand of more than
``MEMO_TERMS`` terms (a tower level, a gradient, a partial sum of a
Horner chain) goes through that loop term by term: its monomials
seldom recur, so a memo of them would mostly grow.  A shorter one, as
the Poisson checks and the one-shot queries differentiate, looks each
monomial up in the memo ``_DX_MONO``, whose entry is the tuple of its
(g'/g, e) pairs, one per factor, read back off the derivative that the
same loop takes of the monomial alone, once; those monomials recur.  A
pair is one object, kept in ``_DX_PAIRS`` and shared by every entry
with that factor, so an entry costs its key, its tuple and its dict
slot: about 160 bytes for a monomial of the chains.  Both tables are
cleared together when the memo's bytes would pass ``MEMO_CAP``, each
entry counting its key's bytes and a fixed ``_DX_ENTRY``, so lone
high jets, whose keys are long, clear it sooner.

Each value keeps its own derivative tower.  The ``_d`` slot of a
:class:`DiffFunction` is None until :func:`total_derivative` first
differentiates it, and from then on holds f' (ZERO itself when f' is
zero), so d^n f is a walk along f, f', f'', ... that computes each
step once per value.  Operator application, composition and adjoints
and the lambda-bracket tables all read derivatives through that one
function.  A Horner sum reads none: the Euler derivatives and the
Horner chains of flow commutators (:func:`magri.diffop.apply_adjoints`)
differentiate each partial sum once, straight into the next one
(:func:`add_derivative_into`), and keep no tower on any value, the
flows included.  The chain lives exactly as long as f does:
no module-level table holds it, so it never outgrows the values in
use.  The memo belongs to the object, not to its value: an equal
function built elsewhere builds its own chain.  :func:`drop_derivatives`
lets the chains of values that are still in use but done with
derivatives go early, as ``magri hierarchy`` does before it writes a
finished run.

Euler operators and antiderivatives
-----------------------------------
:func:`partial_derivatives` sorts the terms of f by the jets of one
field they hold, in one pass, and makes each partial derivative from
its own terms; :func:`euler_derivative` does the same, one partial at a
time as its Horner sum needs them, and the Frechet rows of
:mod:`magri.varcalc` take all of them.  :func:`antiderivative`
integrates top order by top order with one remainder for the whole
loop: an :class:`Accumulator` indexed by jet order, of which each round
reads only the top order and into which it subtracts the derivative of
its primitive, so no round rebuilds, re-sorts or rescans what is left.

One procedure decides whether a function lies in the image of the
total derivative: :func:`antiderivative`, which returns a primitive
exactly when there is one, and :func:`is_total_derivative` asks it.
The Euler derivatives serve variational derivatives and the invariant
of a :class:`LocalFunctional`; they decide exactness only where a
round of the antiderivative leaves the exponent range, as for
v^16383*v', exact with the primitive v^16384/16384 that the ring
cannot hold.

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
of exact integration both come from it, sorted by :func:`flat_mono`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import itemgetter, or_

from .errors import DimensionMismatch, ExponentOverflow, MagriError

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

# The highest jet order a monomial holds; the chains reach 37.  pack_mono
# and the text parser refuse a higher order where it is read, and every
# other new monomial passes _check_range, which refuses a field above the
# slot of u^(MAX_ORDER), so a derivative cannot go past it either and
# every value reads back.  A reader takes one step per nonzero jet field of
# a monomial (_U_JETS, _V_JETS), so reading is linear in its jets.
MAX_ORDER = 4096

# The memo of total derivatives of monomials, _DX_MONO, and its pair table
# are cleared when the memo's entries would pass this many bytes, each
# counting the bytes of its key and _DX_ENTRY for its tuple and dict slot
# (an entry of the chains takes about 160 bytes in all).  As counted here,
# the calculus benchmark's queries (seed 1) leave 10,282 entries in it,
# 1.7 MB, and the hierarchy's four chains 5,842, 1.0 MB; a key holds at
# most the 16 KB of a monomial of jet order MAX_ORDER, and the Euler
# derivative of u^(4096)*v alone filled 36 MB when the cap counted 2^18
# entries.
MEMO_CAP = 1 << 23
_DX_ENTRY = 120

# An operand of more than this many terms is differentiated straight off
# its packed fields, and one of at most this many through the memo.  When
# every operand went through the memo, 78% of the 41,339 terms that the
# hierarchy benchmark differentiated (seed 1) and 88% of the involution
# report's 24,718 lay in longer operands, whose lookups missed 57% and 45%
# of the time and filled the memo; none of the Poisson checks' 30,503,
# whose ~500 monomials recur across pencil members, did, nor any of the
# one-shot queries' 23,338.
MEMO_TERMS = 128

# The jet fields of each field, in closed form from the repunit of
# 2 * EXP_BITS-bit digits: _V_JETS those of log v, v', ..., v^(MAX_ORDER)
# (slots 1, 3, ...), _U_JETS those of u, u', ..., u^(MAX_ORDER) (slots 2, 4,
# ...).  A reader ANDs m + _OFF with one, which CPython sizes by the shorter
# operand, never shifting or combining a mask, and walks down the nonzero
# fields: the top one starts at bit b, the top set bit less b % EXP_BITS,
# and is y >> b.
_V_JETS = ((1 << 2 * EXP_BITS * (MAX_ORDER + 1)) - 1) // ((1 << 2 * EXP_BITS) - 1) * _MASK << EXP_BITS
_U_JETS = _V_JETS << EXP_BITS

_first = itemgetter(0)


def _slot(var, order):
    """The field that holds the generator (var, order)."""
    if var == U:
        return 2 * order + 2
    if var == V:
        return 2 * order + 1 if order else 0
    return 1


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
        if order > MAX_ORDER:
            raise MagriError(f"jet order of {VAR_NAMES[var]} is above {MAX_ORDER}")
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


def flat_mono(m):
    """The triples of the packed monomial m, (var, order, exp) sorted by
    (var, order), laid end to end in one flat tuple.

    As sort keys, flat tuples order monomials as their tuple forms do,
    and they compare in about half the time.
    """
    x = m + _OFF
    log = (x >> EXP_BITS) & _MASK
    # the walks go down the fields, so the tuple is built back to front
    out = [log, 0, LOG_VAR] if log else []
    y = (x & _V_JETS) ^ (log << EXP_BITS)
    while y:  # v^(n) in slot 2n + 1
        b = y.bit_length() - 1
        b -= b % EXP_BITS
        e = y >> b
        y ^= e << b
        out += e, b // (2 * EXP_BITS), V
    e = (x & _MASK) - _OFF
    if e:
        out += e, 0, V
    y = x & _U_JETS
    while y:  # u^(n) in slot 2n + 2
        b = y.bit_length() - 1
        b -= b % EXP_BITS
        e = y >> b
        y ^= e << b
        out += e, b // (2 * EXP_BITS) - 1, U
    out.reverse()
    return tuple(out)


def unpack_mono(m):
    """The tuple form of a packed monomial: (var, order, exp) triples sorted by (var, order)."""
    it = iter(flat_mono(m))
    return tuple(zip(it, it, it))


def text_terms(f):
    """The terms of f as the writers read them: (key, numerator,
    denominator) with key the :func:`flat_mono` of the monomial and the
    coefficient in lowest terms over a positive denominator, in the order
    of :attr:`DiffFunction.terms`.  Each monomial is decoded once, no
    ``Fraction`` is made and the ``terms`` cache is left unfilled.
    """
    den = f._den
    if den == 1:
        rows = [(flat_mono(m), c, 1) for m, c in f._t]
    else:
        rows = []
        for m, c in f._t:
            g = gcd(c, den)
            rows.append((flat_mono(m), c // g, den // g))
    rows.sort(key=_first)
    return rows


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
    gives a float, and the one reader of a numerator over a denominator
    at the public face.  Raises ZeroDivisionError when b is zero.
    """
    if b == 1 and type(a) is int:
        return a
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
    """The sum of the products a_i * b_i of two vectors of functions of
    one length; vectors of unequal lengths raise DimensionMismatch."""
    if len(a) != len(b):
        raise DimensionMismatch(f"a dot product of vectors of {len(a)} and {len(b)} components")
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
    return f._t if den == 1 else [(m, coeff_div(c, den)) for m, c in f._t]


def integral_terms(f, den):
    """The (packed monomial, int) pairs of den * f, for den a multiple of
    the denominator of f."""
    s = den // f._den
    return f._t if s == 1 else [(m, c * s) for m, c in f._t]


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


# m + _OFF has at most this many bits for a monomial m of jet orders of at
# most MAX_ORDER, whose top field is that of u^(MAX_ORDER); _GUARD holds the
# top bit of each of those fields, which an exponent out of range sets
_MAX_BITS = EXP_BITS * (2 * MAX_ORDER + 3)
_GUARD = ((1 << _MAX_BITS) - 1) // _MASK << (EXP_BITS - 1)


def _overflow(bits=0):
    """The error for an exponent out of range, or for a monomial m, with
    bits = m + _OFF, out of range."""
    if bits.bit_length() > _MAX_BITS:
        return ExponentOverflow(f"a jet order left its range: at most {MAX_ORDER}")
    return ExponentOverflow(
        f"an exponent left its range: at most {MAX_EXP}, "
        f"or [{MIN_V_EXP}, {MAX_V_EXP}] for the power of v"
    )


def _check_range(monos):
    """Raise ExponentOverflow unless every packed monomial of ``monos`` is
    in range, its jet orders at most MAX_ORDER included; each must be a
    sum of two in-range monomials (or one shifted by a g'/g), so that no
    field has carried into the next."""
    _check_bits(reduce(or_, map(_OFF.__add__, monos), 0))


def _check_bits(bits):
    """Raise ExponentOverflow unless ``bits``, the OR of m + _OFF over
    packed monomials m, is that of monomials in range (:func:`_check_range`)."""
    # an exponent out of range sets the top bit of a field of m + _OFF,
    # or makes m + _OFF negative (see the module docstring)
    if bits < 0 or bits.bit_length() > _MAX_BITS or bits & _GUARD:
        raise _overflow(bits)


def _mono_power(m, n):
    """n * m: the packed monomial m to the power n >= 1.

    Each exponent times n is checked against its bound before the
    product is formed: a field that overflows carries into the next one,
    where :func:`_check_range` cannot see it (u^70000 would pack to
    u^4464*v').
    """
    e = ((m + _OFF) & _MASK) - _OFF  # the power of v
    rest = (m - e) >> EXP_BITS  # the other fields, each in [0, MAX_EXP]
    top = _GUARD & ((1 << rest.bit_length() + EXP_BITS) - 1)
    # a field f of rest has f * n > MAX_EXP exactly when f + MAX_EXP - MAX_EXP // n
    # sets its top bit; that sum stays below 2^EXP_BITS, so nothing carries
    bump = (top >> (EXP_BITS - 1)) * (MAX_EXP - MAX_EXP // n)
    if not MIN_V_EXP <= e * n <= MAX_V_EXP or (rest + bump) & top:
        raise _overflow()
    return m * n


def _times_term(f, g):
    """f * g for a g of one term c * m: each monomial of f shifts by m,
    which keeps them distinct and in order; an f of one term too makes
    its one product term with no list."""
    (m0, c0), = g._t
    if len(f._t) == 1:
        (m, c), = f._t
        m += m0
        _check_bits(m + _OFF)
        c *= c0
        den = f._den * g._den
        q = gcd(c, den)
        return _df(((m, c // q),), den // q)
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
                (tuple(zip(*[iter(key)] * 3)), coeff_div(num, den))
                for key, num, den in text_terms(self)
            )
        return t

    def coeff(self, mono):
        m = pack_mono(mono)
        for mm, c in self._t:
            if mm == m:
                return coeff_div(c, self._den)
        return 0

    def constant_term(self):
        # only pure negative powers of v sort before the empty monomial 0
        for m, c in self._t:
            if m >= 0:
                return coeff_div(c, self._den) if m == 0 else 0
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
        if type(other) is not DiffFunction:  # before the ABC test of Fraction
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            k = _as_coeff(other)
            if not k:
                return ZERO
            if k == 1:
                return self
            return _canon(
                [(m, c * k.numerator) for m, c in self._t], self._den * k.denominator
            )
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
        if n and len(self._t) < 2:  # 0^n = 0 and (c * m)^n = c^n * m^n, in closed form
            if not self._t:
                return self
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


def as_function(f):
    """f as a DiffFunction: f itself, or the constant f for an int or a
    Fraction; anything else raises MagriError."""
    if isinstance(f, DiffFunction):
        return f
    if isinstance(f, (int, Fraction)):
        return const(f)
    raise MagriError(f"a differential function or a constant, not {type(f).__name__}")


def jet(var, order, exp=1):
    """The generator (var, order) raised to ``exp``.

    The variable code, the order and the exponent are ints; anything else,
    a bool or a float included, raises MagriError.
    """
    if type(var) is not int or type(order) is not int or type(exp) is not int:
        raise MagriError(
            f"a jet takes an int variable code, order and exponent, got {var!r}, {order!r}, {exp!r}"
        )
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
_DX_PAIRS = {}  # each (g'/g, exponent) pair of the _DX_MONO entries, stored once
_dx_bytes = 0  # the bytes of the _DX_MONO entries, as MEMO_CAP counts them


def _dx_fields_into(d, terms, k):
    """Add k times the total derivative of ``terms``, a sorted tuple of
    (packed monomial, int) pairs, into the dict d, by the product rule: a
    factor g^e of a term c * m adds k * c * e at m + g'/g.

    The jets of m + ``_OFF`` are read by the walk of the nonzero fields
    above those of v and log v (see ``_U_JETS``), so a term takes one step
    per jet it holds, and then v and log v by a shift and a mask.  The
    monomials m + g'/g of one m come in decreasing order: the g'/g grow
    with the slot of g, except that log v's is below v's.
    """
    get = d.get
    for m, c in terms:
        if k != 1:
            c = c * k
        x = m + _OFF
        y = x >> 2 * EXP_BITS << 2 * EXP_BITS  # the jets, u in slot 2
        while y:
            b = y.bit_length() - 1
            b -= b % EXP_BITS
            e = y >> b
            y ^= e << b
            dm = m + (_DX_STEP << b)
            d[dm] = get(dm, 0) + c * e
        e = (x & _MASK) - _OFF
        if e:
            dm = m + _DX_V
            d[dm] = get(dm, 0) + c * e
        e = (x >> EXP_BITS) & _MASK
        if e:
            dm = m + _DX_LOG
            d[dm] = get(dm, 0) + c * e


def _dx_mono(m):
    """The memo entry of a packed monomial m: the tuple of the (packed
    g'/g, exponent) pairs of its factors g^e, in increasing order of g'/g,
    so the monomials m + g'/g are distinct and sorted.  A miss reads them
    back off the derivative that :func:`_dx_fields_into` takes of m
    alone, as (m + g'/g - m, e) in the reverse of the order it adds them.
    Each pair is the one object of ``_DX_PAIRS`` for its value, shared by
    every entry that holds it.  Both tables are cleared when the entry would take the
    memo past ``MEMO_CAP`` bytes.
    """
    global _dx_bytes
    t = _DX_MONO.get(m)
    if t is None:
        pairs = _DX_PAIRS
        size = sys.getsizeof(m) + _DX_ENTRY
        if _dx_bytes + size > MEMO_CAP:
            _DX_MONO.clear()
            pairs.clear()
            _dx_bytes = 0
        _dx_bytes += size
        d = {}
        _dx_fields_into(d, ((m, 1),), 1)
        t = [(dm - m, e) for dm, e in reversed(d.items())]
        # total_derivative checks the exponents of the m + g'/g
        t = _DX_MONO[m] = tuple([pairs.setdefault(p, p) for p in t])
    return t


def add_derivative_into(acc, f, k=1):
    """Add k times the total derivative of f into ``acc``, an
    :class:`Accumulator`, as :func:`add_into` adds k*f; k is an int.
    This is the one kernel of total derivatives, and it keeps nothing on
    f: :func:`total_derivative` keeps its result in the tower of f, and a
    Horner sum differentiates each partial sum once, into the next one.

    An f of at most ``MEMO_TERMS`` terms reads the factors of each
    monomial from the memo ``_DX_MONO``, filling it on a miss; a longer
    f reads them off the packed fields (:func:`_dx_fields_into`) and
    leaves the memo as it is.
    """
    if f._den != acc.den:
        k *= acc.fit(f._den)
    d = acc.d
    if len(f._t) > MEMO_TERMS:
        _dx_fields_into(d, f._t, k)
        return
    get = d.get
    memo = _DX_MONO
    for m, c in f._t:
        if k != 1:
            c = c * k
        t = memo.get(m)
        if t is None:
            t = _dx_mono(m)
        for step, e in t:
            dm = m + step
            d[dm] = get(dm, 0) + c * e


def total_derivative(f, n=1):
    """Apply the total derivative ``n`` times.

    Walks the chain f, f', f'', ... of ``_d`` slots, computing and
    keeping each derivative not yet there; a zero derivative is ZERO
    itself, which ends the walk.  An ``n`` that is not a nonnegative int
    (a bool included) raises MagriError.
    """
    f = as_function(f)
    if type(n) is not int or n < 0:
        raise MagriError("the order of a total derivative must be a nonnegative integer")
    for _ in range(n):
        d = f._d
        if d is None:
            acc = Accumulator()
            add_derivative_into(acc, f)
            d = f._d = DiffFunction.from_acc(acc) or ZERO
        if d is ZERO:
            return d
        f = d
    return f


def drop_derivatives(fs):
    """Let go of the derivative towers kept on the functions ``fs``; a
    later :func:`total_derivative` builds them again."""
    for f in fs:
        f._d = None


def partial_derivative(f, gen):
    """Partial derivative with respect to one generator.

    ``gen`` is a (variable, order) pair; variables may be given as the
    int codes 0, 1, 2 or as the names "u", "v", "log", and the order as
    a nonnegative int; anything else (a bool included) raises
    MagriError.  Differentiating by v applies the chain rule to log v,
    which keeps the shift relation [d/dv, d] = d/dv' valid on the
    extended ring.  No value holds a jet of order above ``MAX_ORDER``, so
    the derivative by one is ZERO.
    """
    f = as_function(f)
    var, order = gen
    if isinstance(var, str) and var in VAR_NAMES:
        var = VAR_NAMES.index(var)
    elif type(var) is not int or var not in (U, V, LOG_VAR):
        raise MagriError(f"unknown variable {var!r}: not one of u, v, log or 0, 1, 2")
    if type(order) is not int or order < 0:
        raise MagriError(f"a partial derivative's order must be a nonnegative int, got {order!r}")
    if (var == LOG_VAR and order) or order > MAX_ORDER:
        return ZERO
    return DiffFunction.from_acc(_partial_acc(f._t, var, order, f._den))


def _field(var):
    """The code of a field given as U, V or the names "u", "v"; anything
    else (log v, a bool or another code included) raises MagriError."""
    if isinstance(var, str) and var in VAR_NAMES[:2]:
        return VAR_NAMES.index(var)
    if type(var) is not int or var not in (U, V):
        raise MagriError(f"unknown field {var!r}: not one of u, v or 0, 1")
    return var


def _partial_buckets(f, var):
    """The terms of f that each partial derivative by a jet x^(k) of the
    field ``var`` reads, from one pass over f: buckets[k] holds, in f's
    order, the very (monomial, numerator) pairs of f that hold x^(k), or
    for v^(0) a power of v or log v.  The list ends at the top order."""
    buckets = []
    mask = _V_JETS if var == V else _U_JETS
    for t in f._t:
        x = t[0] + _OFF
        y = x & mask
        if var == V and (x & _MASK) != _OFF:
            y |= _LOG  # a power of v goes with log v, into buckets[0]
        while y:  # x^(k) in slot 2k + 1 or 2k + 2, log v in slot 1
            b = y.bit_length() - 1
            b -= b % EXP_BITS
            y ^= y >> b << b
            k = (b - EXP_BITS) // (2 * EXP_BITS)
            while len(buckets) <= k:
                buckets.append([])
            buckets[k].append(t)
    return buckets


def _partial_acc(terms, var, k, den):
    """The partial derivative by the generator (var, k), over ``den``, of
    the (monomial, numerator) pairs ``terms``, as an :class:`Accumulator`.
    By v^(0) the chain rule takes in log v: d(log v)/dv = 1/v."""
    acc = Accumulator((), den)
    d = acc.d
    if var == V and k == 0:
        get = d.get
        for m, c in terms:
            x = m + _OFF
            e = (x & _MASK) - _OFF
            if e:
                d[m - 1] = get(m - 1, 0) + c * e
            j = (x >> EXP_BITS) & _MASK
            if j:
                m2 = m - _LOG - 1
                d[m2] = get(m2, 0) + c * j
        return acc
    # lowering one positive exponent keeps the monomials distinct, in range
    # and in the same order
    shift = EXP_BITS * _slot(var, k)
    unit = 1 << shift
    for m, c in terms:
        e = ((m + _OFF) >> shift) & _MASK
        if e:
            d[m - unit] = c * e
    return acc


def partial_derivatives(f, var):
    """The partial derivatives of f by every jet of one field.

    ``var`` is U, V, "u" or "v"; anything else raises MagriError.  Returns
    the list [df/dx^(0), ..., df/dx^(n)], each equal to
    ``partial_derivative(f, (var, k))``, with n the top order of the jets
    of ``var`` in f (:func:`max_order`), or [] when there is none.  One
    pass over f sorts its terms by the jets they hold, and each partial
    then reads only its own terms.
    """
    f = as_function(f)
    var = _field(var)
    buckets = _partial_buckets(f, var)
    return [DiffFunction.from_acc(_partial_acc(b, var, k, f._den)) for k, b in enumerate(buckets)]


def max_order(f, var=None):
    """Largest jet order present (None for a constant).

    v^0 counts as order 0, and log v counts as the order-0 v generator
    since it depends on v.  ``var`` is None for every jet, or one field,
    U, V, "u" or "v"; anything else raises MagriError.
    """
    f = as_function(f)
    bits = reduce(or_, [m + _OFF for m, _ in f._t], 0)
    if var is not None:
        var = _field(var)
        bits &= _V_JETS if var == V else _U_JETS
    top = (bits.bit_length() - 1) // EXP_BITS  # the top nonzero field
    if top > 0:  # x^(k) in slot 2k + 1 or 2k + 2, log v in slot 1
        return (top - 1) // 2
    if var != U and any(((m + _OFF) & _MASK) != _OFF for m, _ in f._t):
        return 0  # a power of v
    return None


def differential_order(f):
    """Max jet order with a nonvanishing partial derivative.

    Accepts a function or a constant (see :func:`as_function`), or a
    tuple or list of them; returns None when no generator appears at all
    (the order of a constant is minus infinity).
    """
    best = None
    for g in f if isinstance(f, (tuple, list)) else (f,):
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
    y = x >> 2 * EXP_BITS << 2 * EXP_BITS  # log v, in slot 1, weighs 0
    while y:  # slots 2, 3, 4, 5, ... hold u, v', u', v'', ... of weight 2, 3, 3, 4, ...
        b = y.bit_length() - 1
        b -= b % EXP_BITS
        e = y >> b
        y ^= e << b
        w += (b // EXP_BITS + 3) // 2 * e
    return w


def mono_degree(m, var=None):
    """The sum of the exponents of the jets of ``var`` in a packed
    monomial, or of every generator, log v included, when ``var`` is None."""
    x = m + _OFF
    if var == U:
        deg, y = 0, x & _U_JETS
    elif var == V:  # less log v, which the walk of _V_JETS counts
        deg, y = (x & _MASK) - _OFF - ((x >> EXP_BITS) & _MASK), x & _V_JETS
    else:
        deg, y = (x & _MASK) - _OFF, x >> EXP_BITS
    while y:
        b = y.bit_length() - 1
        b -= b % EXP_BITS
        e = y >> b
        y ^= e << b
        deg += e
    return deg


def weight(f):
    """Common weight of all monomials, or the INHOMOGENEOUS sentinel.

    Jets of order n weigh n + 2, v^-1 weighs -2, log v weighs 0.  The
    zero function counts as homogeneous of weight 0.
    """
    f = as_function(f)
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
    f = as_function(f)
    best = 0
    for m, _ in f._t:
        e = ((m + _OFF) & _MASK) - _OFF
        if e < best:
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
    f = as_function(f)
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
    monomial with an exponent out of range raises ExponentOverflow, and so
    does a space whose exponents could carry into the next field.
    """
    # every exponent tried lies in [low, weight // 2 - low], but a pure
    # power of v, which is its own packed int; there no field carries into
    # the next, so _check_range sees each exponent out of range
    low = min(lo, 0)
    if low <= -_MASK // 2 or weight // 2 - low >= _MASK - _OFF:
        raise _overflow()
    units = [  # (the packed unit of a generator, its weight)
        (1 << EXP_BITS * _slot(var, n), n + 2)
        for var in sorted(fields)
        for n in range(1 if var == V else 0, order_bound + 1)
    ]
    out = []
    stack = [(0, weight, 0)]  # (next generator, weight left, product so far)
    while stack:
        idx, rest, m = stack.pop()
        if idx == len(units):
            e, odd = divmod(rest, 2)  # v^e weighs 2e
            if not odd and (lo <= e and (hi is None or e <= hi) or not m and e == affine):
                out.append(m + e)
                if include_log and not e:
                    out.append(m + _LOG)
            continue
        unit, w = units[idx]
        while rest >= 2 * lo:  # jets only add weight: v takes up what is left
            stack.append((idx + 1, rest, m))
            rest -= w
            m += unit
    _check_range(out)
    out.sort(key=flat_mono)  # distinct by construction
    return tuple(out)


# -- integration -------------------------------------------------------------


def euler_derivative(f, var):
    """Variational derivative in one field: sum (-d)^n df/dx^(n).

    ``var`` is U, V, "u" or "v"; anything else raises MagriError.  One
    pass over f sorts its terms by the jets they hold (as
    :func:`partial_derivatives` does), and the sum is taken in Horner
    form, acc <- df/dx^(k) - d(acc) for k = n .. 0: each partial is made
    in its own dict, from its own terms, only when its turn comes, and
    the derivative of acc is subtracted straight into it.
    """
    f = as_function(f)
    var = _field(var)
    buckets = _partial_buckets(f, var)
    acc = ZERO
    for k in range(len(buckets) - 1, -1, -1):
        d = _partial_acc(buckets.pop(), var, k, f._den)
        add_derivative_into(d, acc, -1)
        acc = DiffFunction.from_acc(d)
    return acc


def _euler_exact(f):
    """Whether f lies in the image of the total derivative, by the Euler test.

    On this ring the image is exactly the kernel of both Euler operators
    intersected with the functions of zero constant term.  Only the
    ExponentOverflow handlers of :func:`antiderivative` and
    :func:`is_total_derivative` call it, where a round of the
    antiderivative has left the exponent range.  It raises
    ExponentOverflow too where an Euler derivative leaves the range: the
    partial derivative by v lowers the power of v, so E_v of
    v^-16384*v'*v'' passes through v^-16385.
    """
    if not f:
        return True
    if f.constant_term():
        return False
    return not euler_derivative(f, U) and not euler_derivative(f, V)


def is_total_derivative(f):
    """Whether f lies in the image of the total derivative.

    :func:`antiderivative` decides: f is exact exactly when it returns a
    primitive.  The Casimir pairing and the brackets of
    :mod:`magri.lenard` and :meth:`LocalFunctional.is_zero` all ask this.

    Exact input whose primitive the ring cannot hold, such as
    v^16383*v' (its primitive is v^16384/16384), makes
    :func:`antiderivative` raise ExponentOverflow; the Euler test then
    decides, and says True.  Where the Euler test leaves the range too,
    as on v^-16384*v'*v'', ExponentOverflow is raised: the ring cannot
    decide.
    """
    f = as_function(f)
    try:
        return antiderivative(f) is not None
    except ExponentOverflow:
        return _euler_exact(f)


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
    variable.  A term c * m gains one power of the generator and is
    divided by its new exponent, so its monomial is m plus the unit of
    the generator's slot, one int sum, and distinct sorted monomials
    shifted by one int stay distinct and sorted.  In v, a term with
    log v or with v^-1 goes through the recursive v-integral instead.
    """
    if var == V and order == 0:
        acc = Accumulator()
        d = acc.d
        for m, c in b._t:
            k = mono_exp(m, V, 0)
            j = mono_exp(m, LOG_VAR, 0)
            if j or k == -1:
                rest = _canon([(m - k - j * _LOG, c)], b._den)
                addmul_into(acc, _integrate_v_monomial(k, j), rest)
            else:  # c * m / (k + 1) at v^(k + 1): m + 1, since v is slot 0
                q = k + 1
                if q < 0:
                    c, q = -c, -q
                c *= acc.fit(b._den * q)
                d[m + 1] = d.get(m + 1, 0) + c
        return DiffFunction.from_acc(acc)
    shift = EXP_BITS * _slot(var, order)
    ds = [(((m + _OFF) >> shift) & _MASK) + 1 for m, _c in b._t]
    den = lcm(*ds)
    unit = 1 << shift
    items = [(m + unit, c * (den // e)) for (m, c), e in zip(b._t, ds)]
    _check_range([m for m, _c in items])
    return _canon(items, b._den * den)


def _mono_order(m):
    """The jet order of a packed monomial: 0 for a function of v and log v
    alone, -1 for the monomial 1."""
    x = (m + _OFF) >> EXP_BITS
    if x:
        return (x.bit_length() - 1) // EXP_BITS // 2
    return 0 if m else -1


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
    only when the remainder has reached 0, so the result is checked, and
    None is returned only for input that is not exact: this is the
    exactness test of the package, which :func:`is_total_derivative`
    asks.  Only when a round leaves the exponent range does the Euler
    test decide: input that is not exact returns None, and exact input,
    whose primitive the ring cannot hold, raises ExponentOverflow.  When
    the Euler test leaves the range too, neither can decide, and
    ExponentOverflow is raised for input that is not exact as well: a
    round on v^-16384*v'*v'' reaches v^-16385, and so does its partial
    derivative by v, which lowers the power of v.

    The remainder is one :class:`Accumulator` for the whole loop, with
    an index from jet order to its monomials.  Only the monomials of the
    top order can hold v^(n) or u^(n), so a round reads those alone.  It
    differentiates its primitive by :func:`add_derivative_into`, as every
    total derivative is taken, so a long primitive leaves the memo alone; the
    derivative goes into a dict of its own, whose monomials are checked
    for range before it is subtracted from the remainder, and each term
    that cancels is dropped, so the remainder never holds a zero.

    The result is normalized to have zero constant term.  When ``tag``
    names a subspace, the primitive must land in its target space,
    otherwise None is returned: a tag with no lower bound on the power
    of v gains the one pure power v^(hi + 1) (input in v^-k times the
    nonpositive part has a primitive there up to c * v^(1-k)), and
    every other tag is its own target; scaled_plus has no target and
    raises MagriError.
    """
    f = as_function(f)
    g = Accumulator()  # the primitive so far
    rest = Accumulator(f._t, f._den)  # what is left
    d = rest.d
    get = d.get
    by_order = {}  # jet order -> the monomials of rest of that order
    for m, _c in f._t:
        by_order.setdefault(_mono_order(m), set()).add(m)
    last_u = None  # the order of the last round in u
    try:
        while by_order:
            n = max(by_order)
            top = by_order[n]
            if not top:
                del by_order[n]
                continue
            if n <= 0 or n == last_u:
                # a nonzero remainder of order 0 is never exact, and neither is
                # one left at the order of the last round in u
                return None
            var = V if any(mono_exp(m, V, n) for m in top) else U
            shift = EXP_BITS * _slot(var, n)
            unit = 1 << shift
            coeff = []  # the coefficient of the jet (var, n)
            for m in top:
                x = (m + _OFF) >> shift
                e = x & _MASK
                if e:
                    # nonlinear in the top jet, or a coefficient of order n: for
                    # var = V the field above v^(n) is u^(n), and for var = U
                    # it is v^(n + 1), absent at the top order n
                    if e > 1 or (x >> EXP_BITS) & _MASK:
                        return None
                    coeff.append((m - unit, d[m]))
            coeff.sort(key=_first)
            if var == U:
                last_u = n
            p = _integrate_in_generator(_canon(coeff, rest.den), var, n - 1)
            add_into(g, p)
            # subtract the derivative of p, made in a dict of its own and
            # checked before any order is read off its monomials
            dp = Accumulator((), p._den)
            add_derivative_into(dp, p, -rest.fit(p._den))
            _check_range(dp.d)
            for dm, c in dp.d.items():
                old = get(dm)
                if old is None:
                    if c:
                        d[dm] = c
                        by_order.setdefault(_mono_order(dm), set()).add(dm)
                else:
                    old += c
                    if old:
                        d[dm] = old
                    else:
                        del d[dm]
                        by_order[_mono_order(dm)].discard(dm)
        g = DiffFunction.from_acc(g)
    except ExponentOverflow:
        if _euler_exact(f):
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
        self.rep = as_function(rep)
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


def int_text(n):
    """The decimal text of the int n, at any length; every writer calls this.

    ``str`` refuses an int of more digits than
    ``sys.get_int_max_str_digits()`` (4300 by default) with ValueError;
    then ``Decimal`` converts it exactly, and no process-wide setting
    changes.
    """
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def frac_text(num, den):
    """The text "num", or "num/den" when den != 1, of ints of any length."""
    return int_text(num) if den == 1 else f"{int_text(num)}/{int_text(den)}"


def text_int(digits):
    """The int of ASCII digits, with an optional sign, at any length; the readers call this.

    ``int`` refuses more digits than ``sys.get_int_max_str_digits()``
    with ValueError; then ``Decimal`` reads them exactly.
    """
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def _text(f):
    """The text of a nonzero f."""
    parts = []
    for key, num, den in text_terms(f):
        it = iter(key)
        frag = "*".join([_gen_text(var, order, exp) for var, order, exp in zip(it, it, it)])
        p = -num if num < 0 else num
        if not frag:
            frag = frac_text(p, den)
        else:
            if p != 1:
                frag = f"{int_text(p)}*{frag}"
            if den != 1:
                frag = f"{frag}/{int_text(den)}"
        parts.append((" - " if num < 0 else " + ") + frag)
    out = "".join(parts)
    return "-" + out[3:] if out[1] == "-" else out[3:]


def to_text(f):
    """Render in the grammar accepted by the expression parser."""
    return _text(f) if f else "0"
