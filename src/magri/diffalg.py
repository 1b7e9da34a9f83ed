"""Exact arithmetic for differential functions in two jet variables.

Ring conventions
----------------
Generators are the jet variables u, u', u'', ... and v, v', v'', ...,
encoded as pairs (variable, order) with u = 0 and v = 1.  The zeroth v
generator is a Laurent variable: negative powers of v are allowed, every
other generator carries nonnegative exponents.  One extra generator
``log v`` (code 2, order 0) makes the ring closed under integration of
total derivatives; its total derivative is v'/v and partial derivatives
treat it as a function of v.

A monomial is a tuple of (variable, order, exponent) triples sorted by
(variable, order).  A :class:`DiffFunction` is a tuple of (monomial,
coefficient) pairs sorted by monomial, with no zero entries, so equal
functions are equal tuples.  A coefficient is an ``int`` when it is
integral and otherwise a ``Fraction`` with denominator > 1; it is never
a float or a bool.  Most coefficients are integers, and plain ``int``
arithmetic is several times faster than ``Fraction`` arithmetic.
Values are immutable and every operation returns a canonical form;
every division of coefficients goes through :func:`coeff_div`, so
nothing here touches floating point.

A sum of products is built in one pass: :func:`addmul_into` adds each
product into a plain ``{monomial: coefficient}`` dict, and
:meth:`DiffFunction.from_dict` turns the dict into a canonical value
once at the end.  Summing with ``acc = acc + a * b`` instead would copy
and re-sort the whole partial sum on every step.

The total derivative acts by u_i^(n) -> u_i^(n+1) extended as a
derivation, with d(v^-1) = -v'*v^-2 and d(log v) = v'/v.  Partial
derivatives satisfy the shift relation [d/du_i^(n), d] = d/du_i^(n-1).
Grading: a jet of order n has weight n + 2, v^-1 has weight -2 and
log v has weight 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import FuelExhausted, MagriError

U, V, LOG_VAR = 0, 1, 2
VAR_NAMES = ("u", "v", "log")

QQ = Fraction

EMPTY_MONO = ()


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


def mono_mul(m1, m2):
    """Merge two sorted monomials, adding exponents."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, b = m1[i], m2[j]
        ka, kb = (a[0], a[1]), (b[0], b[1])
        if ka < kb:
            out.append(a)
            i += 1
        elif kb < ka:
            out.append(b)
            j += 1
        else:
            e = a[2] + b[2]
            if e:
                out.append((a[0], a[1], e))
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def addmul_into(acc, f, g, k=1):
    """Add k*f*g into ``acc``, a {monomial: coefficient} dict.

    Terms that cancel stay in the dict with coefficient 0, and sums of
    coefficients are left as they come; :meth:`DiffFunction.from_dict`
    drops the zeros and makes the rest canonical.
    """
    get = acc.get
    gt = g._t
    for m1, c1 in f._t:
        if k != 1:
            c1 = c1 * k
        for m2, c2 in gt:
            m = mono_mul(m1, m2)
            acc[m] = get(m, 0) + c1 * c2


def dot(a, b):
    """The sum of the products a_i * b_i of two vectors of functions."""
    acc = {}
    for x, y in zip(a, b):
        addmul_into(acc, x, y)
    return DiffFunction.from_dict(acc)


def common_denominator(fs):
    """The lcm of the coefficient denominators of the functions ``fs``."""
    den = 1
    for f in fs:
        for _m, c in f._t:
            den = lcm(den, c.denominator)
    return den


def mono_exp(m, var, order):
    for g in m:
        if g[0] == var and g[1] == order:
            return g[2]
    return 0


def _mono_shift(m, var, order, delta):
    """Return m with the exponent of (var, order) changed by delta."""
    out = []
    hit = False
    for g in m:
        if g[0] == var and g[1] == order:
            hit = True
            e = g[2] + delta
            if e:
                out.append((var, order, e))
        else:
            out.append(g)
    if not hit:
        out.append((var, order, delta))
        out.sort(key=lambda g: (g[0], g[1]))
    return tuple(out)


def _check_mono(m):
    last = None
    for g in m:
        if len(g) != 3:
            raise MagriError(f"bad generator triple {g!r}")
        var, order, exp = g
        if var not in (U, V, LOG_VAR):
            raise MagriError(f"unknown variable code {var!r}")
        if order < 0:
            raise MagriError("negative jet order")
        if var == LOG_VAR and order != 0:
            raise MagriError("log generator has no jets")
        if exp < 0 and not (var == V and order == 0):
            raise MagriError(f"negative exponent on {VAR_NAMES[var]}^({order})")
        key = (var, order)
        if last is not None and key <= last:
            raise MagriError("monomial not sorted")
        last = key
    return m


class DiffFunction:
    """A differential function in canonical sparse form."""

    __slots__ = ("_t", "_hash")

    def __init__(self, terms=()):
        # terms must already be canonical; use from_dict / from_terms.
        self._t = tuple(terms)
        self._hash = None

    @staticmethod
    def from_dict(d):
        """Build from {monomial: coefficient}, dropping zeros.

        Sums and products of coefficients become canonical here: an
        integral Fraction is stored as an int.
        """
        items = [
            (m, c if type(c) is int or c.denominator != 1 else c.numerator)
            for m, c in d.items()
            if c
        ]
        items.sort(key=lambda t: t[0])
        return DiffFunction(items)

    @staticmethod
    def from_terms(pairs):
        """Build from (coefficient, monomial) pairs, merging duplicates.

        Monomials may be given unsorted; exponents of repeated generators
        are added up.
        """
        acc = {}
        for c, m in pairs:
            c = _as_coeff(c)
            mono = EMPTY_MONO
            for var, order, exp in m:
                mono = mono_mul(mono, ((var, order, exp),))
            _check_mono(mono)
            acc[mono] = acc.get(mono, 0) + c
        return DiffFunction.from_dict(acc)

    @property
    def terms(self):
        return self._t

    def coeff(self, mono):
        for m, c in self._t:
            if m == mono:
                return c
        return 0

    def constant_term(self):
        if self._t and self._t[0][0] == EMPTY_MONO:
            return self._t[0][1]
        return 0

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, DiffFunction):
            return self._t == other._t
        if isinstance(other, (int, Fraction)):
            return self == const(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._t)
        return self._hash

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = const(other)
        if not isinstance(other, DiffFunction):
            return NotImplemented
        d = dict(self._t)
        for m, c in other._t:
            s = d.get(m, 0) + c
            if s:
                d[m] = s
            else:
                d.pop(m, None)
        return DiffFunction.from_dict(d)

    __radd__ = __add__

    def __neg__(self):
        return DiffFunction([(m, -c) for m, c in self._t])

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
            return DiffFunction([(m, _as_coeff(c * k)) for m, c in self._t])
        if not isinstance(other, DiffFunction):
            return NotImplemented
        acc = {}
        addmul_into(acc, self, other)
        return DiffFunction.from_dict(acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * coeff_div(1, other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise MagriError("powers of differential functions must be nonnegative integers")
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


ZERO = DiffFunction()
ONE = DiffFunction([(EMPTY_MONO, 1)])


def const(q):
    q = _as_coeff(q)
    if not q:
        return ZERO
    return DiffFunction([(EMPTY_MONO, q)])


def jet(var, order, exp=1):
    """The generator (var, order) raised to ``exp``."""
    if exp == 0:
        return ONE
    m = _check_mono(((var, order, exp),))
    return DiffFunction([(m, 1)])


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

_DX_SHIFT = {}


def _dx_shift(var, order):
    """The monomial g'/g for the generator g = (var, order).

    For a jet x^(n) that is x^(n+1)/x^(n); for log v it is v'/(v log v).
    One tuple per generator, so that the memo entries of _dx_mono share
    the factors they gain.
    """
    key = (var, order)
    shift = _DX_SHIFT.get(key)
    if shift is None:
        if var == LOG_VAR:
            shift = ((V, 0, -1), (V, 1, 1), (LOG_VAR, 0, -1))
        else:
            shift = ((var, order, -1), (var, order + 1, 1))
        _DX_SHIFT[key] = shift
    return shift


_DX_MONO = {}


def _dx_mono(m):
    """Total derivative of a monomial by the product rule.

    A factor g^e of m contributes e * m * g'/g.
    """
    f = _DX_MONO.get(m)
    if f is None:
        acc = {}
        for var, order, exp in m:
            dm = mono_mul(m, _dx_shift(var, order))
            acc[dm] = acc.get(dm, 0) + exp
        _DX_MONO[m] = f = DiffFunction.from_dict(acc)
    return f


def total_derivative(f, n=1):
    """Apply the total derivative ``n`` times."""
    for _ in range(n):
        acc = {}
        for m, c in f.terms:
            for dm, dc in _dx_mono(m).terms:
                s = acc.get(dm, 0) + c * dc
                if s:
                    acc[dm] = s
                else:
                    acc.pop(dm, None)
        f = DiffFunction.from_dict(acc)
    return f


_PD_MONO = {}


def _pd_mono(m, var, order):
    key = (m, var, order)
    f = _PD_MONO.get(key)
    if f is None:
        acc = {}
        e = mono_exp(m, var, order)
        if e:
            acc[_mono_shift(m, var, order, -1)] = e
        if var == V and order == 0:
            # log v depends on v: d(log v)/dv = 1/v.
            j = mono_exp(m, LOG_VAR, 0)
            if j:
                m2 = _mono_shift(_mono_shift(m, LOG_VAR, 0, -1), V, 0, -1)
                acc[m2] = acc.get(m2, 0) + j
        f = DiffFunction.from_dict(acc)
        _PD_MONO[key] = f
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
    acc = {}
    for m, c in f.terms:
        for dm, dc in _pd_mono(m, var, order).terms:
            s = acc.get(dm, 0) + c * dc
            if s:
                acc[dm] = s
            else:
                acc.pop(dm, None)
    return DiffFunction.from_dict(acc)


def max_order(f, var=None):
    """Largest jet order present (None for a constant).

    v^0 counts as order 0, and log v counts as the order-0 v generator
    since it depends on v.
    """
    best = None
    for m, _ in f.terms:
        for gvar, order, _exp in m:
            evar, eorder = (V, 0) if gvar == LOG_VAR else (gvar, order)
            if var is not None and evar != var:
                continue
            if best is None or eorder > best:
                best = eorder
    return best


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
    w = 0
    for var, order, exp in m:
        if var == LOG_VAR:
            continue
        w += exp * (order + 2)
    return w


def weight(f):
    """Common weight of all monomials, or the INHOMOGENEOUS sentinel.

    Jets of order n weigh n + 2, v^-1 weighs -2, log v weighs 0.  The
    zero function counts as homogeneous of weight 0.
    """
    w = None
    for m, _ in f.terms:
        mw = mono_weight(m)
        if w is None:
            w = mw
        elif mw != w:
            return INHOMOGENEOUS
    return 0 if w is None else w


def min_v_exponent(f):
    """Smallest exponent of v^0 over all monomials (0 for zero/absent)."""
    best = 0
    for m, _ in f.terms:
        e = mono_exp(m, V, 0)
        if e < best:
            best = e
    return best


def max_v_exponent(f):
    best = 0
    for m, _ in f.terms:
        e = mono_exp(m, V, 0)
        if e > best:
            best = e
    return best


# -- subalgebras -------------------------------------------------------------


@dataclass(frozen=True)
class SubalgebraTag:
    """Names a subspace of the ring that exact integration can respect."""

    kind: str
    power: int = 0


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


def _mono_in_tag(m, tag):
    has_log = mono_exp(m, LOG_VAR, 0) != 0
    ve = mono_exp(m, V, 0)
    if tag.kind == "plus":
        return not has_log and ve >= 0
    if tag.kind == "minus":
        return not has_log and ve <= 0
    if tag.kind == "zero":
        return not has_log and ve == 0
    if tag.kind == "scaled_minus":
        return not has_log and ve <= -tag.power
    if tag.kind == "scaled_plus":
        return not has_log and ve >= tag.power
    if tag.kind == "affine_scaled":
        if has_log:
            return False
        if ve <= -tag.power:
            return True
        # the affine part: a pure power c * v^(1-k)
        want = 1 - tag.power
        return ve == want and all(g[0] == V and g[1] == 0 for g in m)
    raise MagriError(f"unknown subalgebra tag {tag!r}")


def subalgebra_member(f, tag):
    """Exact membership test for the tagged subspace."""
    return all(_mono_in_tag(m, tag) for m, _ in f.terms)


# -- integration -------------------------------------------------------------


def euler_derivative(f, var):
    """Variational derivative in one variable: sum (-d)^n df/dx^(n)."""
    n = max_order(f, var)
    if n is None:
        return ZERO
    acc = partial_derivative(f, (var, n))
    for k in range(n - 1, -1, -1):
        acc = partial_derivative(f, (var, k)) - total_derivative(acc)
    return acc


def is_total_derivative(f):
    """Whether f lies in the image of the total derivative.

    On this ring the image is exactly the kernel of both Euler operators
    intersected with the functions of zero constant term.
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
        return DiffFunction.from_terms([(coeff_div(1, j + 1), ((LOG_VAR, 0, j + 1),))])
    lead = [(coeff_div(1, k + 1), ((V, 0, k + 1),) + (((LOG_VAR, 0, j),) if j else ()))]
    out = DiffFunction.from_terms(lead)
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
        acc = {}
        for m, c in b.terms:
            k = mono_exp(m, V, 0)
            j = mono_exp(m, LOG_VAR, 0)
            rest = m
            if k:
                rest = _mono_shift(rest, V, 0, -k)
            if j:
                rest = _mono_shift(rest, LOG_VAR, 0, -j)
            addmul_into(acc, _integrate_v_monomial(k, j), DiffFunction([(rest, 1)]), c)
        return DiffFunction.from_dict(acc)
    # raising the exponent of one generator maps distinct monomials to
    # distinct monomials, so no two terms merge
    return DiffFunction.from_dict(
        {
            _mono_shift(m, var, order, 1): coeff_div(c, mono_exp(m, var, order) + 1)
            for m, c in b.terms
        }
    )


_TAG_RESULT = {
    "plus": lambda tag: V_PLUS,
    "minus": lambda tag: SubalgebraTag("affine_scaled", 0),
    "scaled_minus": lambda tag: affine_scaled(tag.power),
    "affine_scaled": lambda tag: tag,
    "zero": lambda tag: tag,
}


def _mono_in_minus_affine(m):
    # F*v + V_MINUS: the integrated image of V_MINUS
    if mono_exp(m, LOG_VAR, 0):
        return False
    ve = mono_exp(m, V, 0)
    if ve <= 0:
        return True
    return ve == 1 and all(g[0] == V and g[1] == 0 for g in m)


# Rounds of top-order integration antiderivative may take before it gives up.
_ANTIDERIVATIVE_FUEL = 100000


def antiderivative(f, tag=None):
    """A primitive g with total_derivative(g) == f, or None.

    The result is normalized to have zero constant term.  When ``tag``
    names a subspace, the primitive must land in the subspace paired to
    it by the structure of the derivative image (v-positive input gives
    a v-positive primitive; input in v^-k times the nonpositive part
    gives a primitive there up to one affine power of v), otherwise
    None is returned.  Raises FuelExhausted if the integration takes
    more than ``_ANTIDERIVATIVE_FUEL`` rounds.
    """
    if not is_total_derivative(f):
        return None
    g = ZERO
    work = f
    fuel = 0
    while work:
        fuel += 1
        if fuel > _ANTIDERIVATIVE_FUEL:
            raise FuelExhausted(
                f"antiderivative gave up after {_ANTIDERIVATIVE_FUEL} rounds"
            )
        n = differential_order(work)
        if n is None or n == 0:
            # a nonzero remainder in v and log v alone is never exact
            return None
        var = V if any(mono_exp(m, V, n) for m, _ in work.terms) else U
        top = partial_derivative(work, (var, n))
        if partial_derivative(top, (var, n)):
            return None
        t_ord = differential_order(top)
        if t_ord is not None and t_ord >= n:
            return None
        p = _integrate_in_generator(top, var, n - 1)
        g = g + p
        work = work - total_derivative(p)
    if tag is not None:
        if tag.kind == "minus":
            ok = all(_mono_in_minus_affine(m) for m, _ in g.terms)
        else:
            paired = _TAG_RESULT.get(tag.kind)
            if paired is None:
                raise MagriError(f"no antiderivative target space for tag {tag.kind!r}")
            ok = subalgebra_member(g, paired(tag))
        if not ok:
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

    def variational_gradient(self):
        """The pair of Euler derivatives (d/du, d/dv)."""
        du, dv, _ = self._invariant()
        return (du, dv)

    def is_zero(self):
        if self._key is None:
            c = self.rep.constant_term()
            du = euler_derivative(self.rep, U)
            if c or du:
                # settled without the Euler derivative in v
                return False
            self._key = (du, euler_derivative(self.rep, V), c)
        du, dv, c = self._key
        return not du and not dv and not c

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
