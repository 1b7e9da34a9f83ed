"""References for differential tests of the text layer and the exactness test.

The per-character tokenizer and recursive-descent parser that
:mod:`magri.expr` replaced, and the plain-text and LaTeX writers that
read :attr:`DiffFunction.terms`, which :func:`magri.diffalg.to_text` and
:func:`magri.render.latex` replaced.  The Euler test of exactness, which
:func:`magri.diffalg.is_total_derivative` ran before it asked
:func:`magri.diffalg.antiderivative`, and the one-generator integral
that built each round's primitive from jets, products and the recursive
v-integral.  The tower form of the flow commutator, which
:func:`magri.varcalc.evolutionary_commutator` used before it went
through the higher Euler operators, and of the Euler derivative and the
sum of adjoints, which :func:`magri.diffalg.euler_derivative` and
:func:`magri.diffop.apply_adjoints` take as Horner chains.  The
shift-and-mask readers of packed monomials, one step per field: the
decoders that :func:`magri.diffalg.flat_mono`,
:func:`magri.diffalg.mono_weight` and
:func:`magri.diffalg.mono_degree` were, the stride loop that sorted the
terms of :func:`magri.diffalg.partial_derivatives` and the scan of
:func:`magri.diffalg.max_order`, before each walked only the nonzero
fields of one mask.  Each gives the
values, errors and text the package gave before; the tests compare the
package with them.
"""

from __future__ import annotations

from magri import diffalg as da
from magri import diffop as dop
from magri import render
from magri import varcalc as vc
from magri.diffalg import (
    _MASK,
    _OFF,
    EXP_BITS,
    LOG_VAR,
    MAX_V_EXP,
    MIN_V_EXP,
    DiffFunction,
    U,
    V,
    _df,
    _slot,
)
from magri.errors import DimensionMismatch, ExponentError, ExprSyntaxError

_NAMES = ("u", "v", "d", "D", "log")
_DIGITS = "0123456789"  # str.isdigit would also take '²', which int() rejects


def _tokenize(text):
    """The tokens of text as (kind, text, line, col) tuples, ending with
    an 'end' token."""
    toks = []
    line, start = 1, 0  # start: the index where the current line begins
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch == "\n":
            line, start = line + 1, j
        elif ch in "+-*/^(),;":
            toks.append((ch, ch, line, j - start))
        elif not ch.isspace():
            if ch in _DIGITS:
                kind, same = "int", _DIGITS.__contains__
            elif ch.isalpha():
                kind, same = "name", str.isalpha
            elif ch == "'":
                kind, same = "primes", "'".__eq__
            else:
                raise ExprSyntaxError(f"unexpected character {ch!r}", line, j - start)
            while j < n and same(text[j]):
                j += 1
            word = text[i:j]
            if kind == "name" and word not in _NAMES:
                raise ExprSyntaxError(f"unknown name {word!r}", line, i + 1 - start)
            toks.append((kind, word, line, i + 1 - start))
        i = j
    toks.append(("end", "", line, n + 1 - start))
    return toks


def _unit(var, order):
    """The generator (var, order) as a value: its packed unit, coefficient 1."""
    return _df(((1 << EXP_BITS * _slot(var, order), 1),))


def _as_operator(val):
    """val as a scalar operator: a function becomes its multiplication."""
    return dop.multiplication(val) if isinstance(val, DiffFunction) else val


class _Parser:
    """Recursive descent over the token list; values are DiffFunction
    or ScalarDiffOp depending on the mode."""

    def __init__(self, toks, operator_mode):
        self.toks = toks
        self.pos = 0
        self.operator_mode = operator_mode

    def peek(self, ahead=0):
        return self.toks[self.pos + ahead]

    def take(self, kind=None):
        t = self.toks[self.pos]
        if kind is not None and t[0] != kind:
            raise ExprSyntaxError(f"expected {kind}, found {t[1] or 'end of input'!r}", t[2], t[3])
        self.pos += 1
        return t

    def fail(self, msg, tok):
        raise ExprSyntaxError(msg, tok[2], tok[3])

    # items := expr, or items separated by seps[0] (the rest of seps inside)
    def items(self, seps):
        if not seps:
            val = self.expr()
            return _as_operator(val) if self.operator_mode else val
        vals = [self.items(seps[1:])]
        while self.peek()[0] == seps[0]:
            self.pos += 1
            vals.append(self.items(seps[1:]))
        return vals

    # expr := ['-'] term (('+'|'-') term)*
    def expr(self):
        neg = self.peek()[0] == "-"
        if neg:
            self.pos += 1
        acc = -self.term() if neg else self.term()
        while self.peek()[0] in ("+", "-"):
            add = self.take()[0] == "+"
            rhs = self.term()
            if type(acc) is not type(rhs):  # a function and an operator
                acc, rhs = _as_operator(acc), _as_operator(rhs)
            acc = acc + rhs if add else acc - rhs
        return acc

    # term := factor (('*'|'/') factor)*; * of a function and an operator
    # composes with the multiplication operator of the function
    def term(self):
        acc = self.factor()
        while self.peek()[0] in ("*", "/"):
            if self.take()[0] == "*":
                acc = acc * self.factor()
            else:
                tok = self.peek()
                acc = acc * self._inverse(self.factor(), tok)
        return acc

    # factor := atom ['^' ['-'] int]
    def factor(self):
        tok = self.peek()
        val = self.atom()
        if self.peek()[0] == "^":
            self.pos += 1
            neg = self.peek()[0] == "-"
            if neg:
                self.pos += 1
            e = self._int(self.take("int"), "exponent")
            val = (self._inverse(val, tok, power=True) if neg else val) ** e
        return val

    def atom(self):
        t = self.take()
        kind, text = t[0], t[1]
        if kind == "int":
            n = da.text_int(text)  # int() refuses a literal of over 4300 digits
            return _df(((0, n),)) if n else da.ZERO
        if kind == "(":
            val = self.expr()
            self.take(")")
            return val
        if kind == "name":
            if text in ("u", "v"):
                return self._variable(U if text == "u" else V)
            if text == "log":
                self.take("(")
                inner = self.take("name")
                if inner[1] != "v":
                    self.fail("log takes v only", inner)
                self.take(")")
                return _unit(LOG_VAR, 0)
            if text == "D":
                self.take("(")
                val = self.expr()
                self.take(")")
                if isinstance(val, dop.ScalarDiffOp):
                    self.fail("D(...) takes a function", t)
                return da.total_derivative(val)
            if not self.operator_mode:  # text is "d"
                self.fail("the operator symbol d needs an operator context", t)
            return dop.D
        self.fail(f"unexpected {text or 'end of input'!r}", t)

    def _variable(self, var):
        order = 0
        kind = self.peek()[0]
        if kind == "primes":
            order = len(self.take()[1])
        elif kind == "^" and self.peek(1)[0] == "(":
            self.pos += 2
            order = self._int(self.take("int"), "jet order")
            self.take(")")
        return _unit(var, order)

    def _int(self, tok, what):
        """The int of an exponent or jet order token; one of more digits
        than int() reads is out of range."""
        try:
            return int(tok[1])
        except ValueError:
            self.fail(f"{what} of {len(tok[1])} digits is out of range", tok)

    def _inverse(self, val, tok, power=False):
        """1/val for a term c*v^e with c a nonzero rational, the values
        that division (or, with ``power``, a negative power) accepts."""
        if isinstance(val, dop.ScalarDiffOp):
            self.fail("operators take nonnegative powers only" if power else "cannot divide by an operator", tok)
        if len(val) == 1 and MIN_V_EXP <= val._t[0][0] <= MAX_V_EXP:
            # a pure power v^e packs to the int e itself
            (e, c), = val._t
            if e == MIN_V_EXP:
                da.v_pow(-e)  # out of range: pack_mono raises its error
            den = val._den
            return _df(((-e, den if c > 0 else -den),), abs(c))
        if power:
            raise ExponentError("negative exponents are allowed on v only", tok[2], tok[3])
        if not val:
            self.fail("division by zero", tok)
        if len(val) > 1:
            self.fail("division needs a single invertible factor", tok)
        self.fail("only rationals and powers of v can be inverted", tok)


def _parse(text, operator_mode, seps=""):
    """The value of the whole of text: one expression, or for each
    separator in seps (outermost first) a list of the values between them."""
    p = _Parser(_tokenize(text), operator_mode)
    val = p.items(seps)
    p.take("end")
    return val


def parse(text):
    return _parse(text, False)


def parse_scalar_operator(text):
    return _parse(text, True)


def parse_operator(text):
    return dop.MatrixDiffOp(_parse(text, True, ";,"))


def parse_vector(text):
    return tuple(_parse(text, False, ";"))


# -- writers that read DiffFunction.terms --------------------------------------


def to_text(f):
    """The plain text of f, made from its ``terms``."""
    if not f:
        return "0"
    parts = []
    for m, c in f.terms:
        factors = [da._gen_text(*g) for g in m]
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


def _term_latex(mono, c):
    num, den = [], []
    for var, order, exp in mono:
        if exp < 0:
            den.append(render._gen_latex(var, order, -exp))
        else:
            num.append(render._gen_latex(var, order, exp))
    sign = "-" if c < 0 else ""
    p, q = abs(c.numerator), c.denominator
    if p != 1 or not num:
        num.insert(0, str(p))
    if q != 1:
        den.insert(0, str(q))
    num_s = " ".join(num)
    if den:
        return sign + rf"\frac{{{num_s}}}{{{' '.join(den)}}}"
    return sign + num_s


def latex(f):
    """The LaTeX of f, made from its ``terms``."""
    if isinstance(f, da.LocalFunctional):
        return rf"\textstyle\int {latex(f.rep)}\, dx"
    if not f:
        return "0"
    parts = []
    for i, (mono, c) in enumerate(f.terms):
        t = _term_latex(mono, c)
        if i == 0:
            parts.append(t)
        elif t.startswith("-"):
            parts.append(" - " + t[1:])
        else:
            parts.append(" + " + t)
    return "".join(parts)


# -- the Euler test of exactness ------------------------------------------------


def is_total_derivative(f):
    """Whether f lies in the image of the total derivative, by both Euler
    derivatives.

    On this ring the image is exactly the kernel of both Euler operators
    intersected with the functions of zero constant term.  An Euler
    derivative that leaves the exponent range raises ExponentOverflow:
    the partial derivative by v lowers the power of v, so the test raises
    on v^-16384*v'*v'', whose E_u is zero and whose E_v passes through
    v^-16385.
    """
    if not f:
        return True
    if f.constant_term():
        return False
    return not da.euler_derivative(f, U) and not da.euler_derivative(f, V)


def integrate_in_generator(b, var, order):
    """A primitive of b in the generator (var, order), through the ring's
    products: ``divide_terms`` times the jet, and ``_integrate_v_monomial``
    for every term in v."""
    if var == V and order == 0:
        acc = da.Accumulator()
        for m, c in b._t:
            k = da.mono_exp(m, V, 0)
            j = da.mono_exp(m, LOG_VAR, 0)
            rest = da._canon([(m - k - j * da._LOG, c)], b._den)
            da.addmul_into(acc, da._integrate_v_monomial(k, j), rest)
        return DiffFunction.from_acc(acc)
    return da.divide_terms(b, lambda m: da.mono_exp(m, var, order) + 1) * da.jet(var, order)


def euler_derivative(f, var):
    """sum_n (-d)^n df/dx^(n) in tower form, each partial differentiated
    n times by :func:`magri.diffalg.total_derivative`."""
    acc = da.Accumulator()
    for n, fn in enumerate(da.partial_derivatives(f, var)):
        da.add_into(acc, da.total_derivative(fn, n), (-1) ** n)
    return DiffFunction.from_acc(acc)


def apply_adjoints(pairs):
    """The sum of B*(x) over (B, x) pairs, each adjoint built in tower
    form by :func:`magri.diffop.adjoint_scalar` and applied to x."""
    acc = da.Accumulator()
    for b, x in pairs:
        da.add_into(acc, dop.apply_scalar(dop.adjoint_scalar(b), x))
    return DiffFunction.from_acc(acc)


def evolutionary_commutator(p, q):
    """D_Q(P) - D_P(Q) in tower form: entry (i, j) of each Frechet
    derivative, sum_n dF_i/du_j^(n) d^n, applied to d^n P_j and d^n Q_j,
    which :func:`magri.diffalg.total_derivative` keeps on the components."""
    p, q = tuple(p), tuple(q)
    if len(p) != len(q):
        raise DimensionMismatch("commutated fields have different numbers of components")
    out = []
    for dq_row, dp_row in zip(vc.frechet(q).entries, vc.frechet(p).entries):
        acc = da.Accumulator()
        for pj, qj, dq, dp in zip(p, q, dq_row, dp_row):
            for n, c in dq.terms:
                da.addmul_into(acc, c, da.total_derivative(pj, n))
            for n, c in dp.terms:
                da.addmul_into(acc, c, da.total_derivative(qj, n), -1)
        out.append(DiffFunction.from_acc(acc))
    return tuple(out)


# -- the shift-and-mask readers of packed monomials -----------------------------


def flat_mono(m):
    """The triples of the packed monomial m laid end to end, by one shift
    of the whole int per field."""
    x = m + _OFF
    e = (x & _MASK) - _OFF
    vs = [V, 0, e] if e else []
    x >>= EXP_BITS
    log = x & _MASK
    x >>= EXP_BITS
    us = []
    n = 0
    while x:  # u^(n) in slot 2n + 2, then v^(n + 1) in slot 2n + 3
        e = x & _MASK
        if e:
            us += U, n, e
        x >>= EXP_BITS
        n += 1
        e = x & _MASK
        if e:
            vs += V, n, e
        x >>= EXP_BITS
    if log:
        vs += LOG_VAR, 0, log
    return tuple(us + vs)


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


def partial_buckets(f, var):
    """The terms of f by the jet x^(k) of the field ``var`` they hold, or
    for v^(0) a power of v or log v, by a stride loop over every field."""
    buckets = []
    start = EXP_BITS * _slot(var, 1 if var == V else 0)
    stride = 2 * EXP_BITS  # from x^(n) to x^(n+1): the fields alternate u, v
    for t in f._t:
        x = t[0] + _OFF
        k = 0
        if var == V:
            if (x & _MASK) != _OFF or (x >> EXP_BITS) & _MASK:
                if not buckets:
                    buckets.append([])
                buckets[0].append(t)
            k = 1
        x >>= start
        while x:
            if x & _MASK:
                while len(buckets) <= k:
                    buckets.append([])
                buckets[k].append(t)
            x >>= stride
            k += 1
    return buckets


def partial_derivatives(f, var):
    """The partial derivatives of f by every jet of the field ``var``,
    from the buckets of :func:`partial_buckets`."""
    return [DiffFunction.from_acc(da._partial_acc(b, var, k, f._den)) for k, b in enumerate(partial_buckets(f, var))]


def max_order(f, var=None):
    """The top jet order of f (of the field ``var``), by a scan down the
    fields of the OR of its monomials."""
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
    # field i of bits is slot i + 1: v jets (and log v) in odd slots, u in even ones
    i = (bits.bit_length() - 1) // EXP_BITS
    if (i + 1) % 2 != (var == V):
        i -= 1
    while i >= 0:
        if (bits >> (EXP_BITS * i)) & _MASK:
            return i // 2
        i -= 2
    return 0 if var == V and has_v else None
