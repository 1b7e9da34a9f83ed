"""Text grammar for differential functions and scalar operators.

Functions:  u, v, primes (u', v'') or parenthesized jet suffixes
(u^(4)), integer and rational coefficients (3, 3/2), products with *,
powers with ^ (negative powers only on v itself), log(v), and D(...)
for the total derivative of the enclosed expression.  Division is
restricted to invertible factors: rationals and pure powers of v.

Operators: the same grammar plus the symbol d for the total-derivative
operator, with * meaning composition; functions embed as zero-order
multiplication operators.

Separators are part of the grammar: a vector is ``expr (';' expr)*``
and a matrix operator is rows separated by ';' of entries separated by
','.  Parentheses, D(...) included, nest at most ``MAX_NESTING`` deep,
and a power of a rational coefficient has at most ``MAX_POWER_BITS``
bits in its numerator and in its denominator.  A power of a function
of two or more terms, or of an operator, is taken by squaring, and no
product in it pairs more than ``MAX_POWER_PAIRS`` terms or multiplies
coefficients of more than ``MAX_POWER_BITS`` bits together.  An
exponent or jet order of more digits than ``int`` reads is out of
range, an error placed at its digits, and so is a jet order above
:data:`~magri.diffalg.MAX_ORDER`.

Example inputs:  "u'' + 4*u^2",  "1/v^2",  "-3/2*(v')^2*v^-4",
"d^3 + 2*u*d + u'",  "D(u*u')",  "d, u; u, d".

Each input text is split into tokens by one ``re.findall`` pass, and
one ``set`` difference finds whether any of them is not in the grammar;
only then, or when the parser raises, are the tokens walked again to
find the line and column of the error, which count from the start of
the whole input.

Values are ring values: every function is a
:class:`~magri.diffalg.DiffFunction` and every operator a
:class:`~magri.diffop.ScalarDiffOp`.  A jet or log(v) is the one-term
function of its packed unit (see :mod:`magri.diffalg`), an integer
literal a one-term constant, a product the ring's ``*`` and the inverse
of c*v^e a one-term function; the terms of a sum go into one
:class:`~magri.diffalg.Accumulator`.  Products are formed left to
right, and the ring checks each exponent as it forms it, so an exponent
that leaves its range raises ExponentOverflow there.  The parser's own
guards are the coefficient-size and term-pair bounds on powers above,
checked before the ring forms the power.  The parser before this one
is kept in the tests as the reference.
"""

from __future__ import annotations

import re

from . import diffalg as da
from . import diffop as dop
from .diffalg import (
    _LOG,
    EXP_BITS,
    MAX_ORDER,
    MAX_V_EXP,
    MIN_V_EXP,
    Accumulator,
    DiffFunction,
    U,
    V,
    _df,
    _mono_power,
    _slot,
    add_into,
)
from .errors import ExponentError, ExprSyntaxError

# Each level of parentheses takes three frames of the interpreter's
# stack, so 249 levels stay well inside its default limit of 1000, and
# they include the 245 that the fully recursive parser of earlier
# versions reached before it overflowed.
MAX_NESTING = 249

# A power c^e of a numerator or denominator c is refused when e times the
# bit length of c, a bound on the bits of c^e, passes this: 2^20000 is 20001
# bits long and 2^32768 the largest power of 2 taken; 3^10000000, of 15.8
# million bits, took seconds to form.
MAX_POWER_BITS = 1 << 16

# A power of a function of two or more terms, or of an operator, is taken
# by repeated squaring, and each product in it may pair at most this many
# terms of its two factors, an operator's terms being those of all its
# coefficients; the coefficients of the two factors together may have at
# most MAX_POWER_BITS bits.  (2 + u)^2000 took 4.3 s and (2 + u)^4000 52 s,
# and the operator (3*u*d)^100 ran out of memory; d^2000 pairs one term.
MAX_POWER_PAIRS = 1 << 16

# ASCII digit runs, runs of word characters that are not digits (names,
# checked below against str.isalpha), runs of primes, and any other
# character that is not white space
_TOKEN = re.compile(r"[0-9]+|[^\W\d_]+|'+|\S")
_NAMES = frozenset(("u", "v", "d", "D", "log"))
_KNOWN = _NAMES | frozenset("+-*/^(),;")
_END = ""  # the token after the last one
_SIGNS = {"+": 1, "-": -1}


def _place(text, p):
    """The 1-based (line, column) of index p of text."""
    return text.count("\n", 0, p) + 1, p - text.rfind("\n", 0, p)


def _bad_token(text, bad):
    """The error for the first token of text in ``bad``, the tokens of
    text that are not in the grammar."""
    for match in _TOKEN.finditer(text):
        t = match.group()
        if t in bad:
            p = match.start()
            k = 0  # the names are the runs of str.isalpha characters
            while k < len(t) and t[k].isalpha():
                k += 1
            if k and t[:k] not in _NAMES:
                return ExprSyntaxError(f"unknown name {t[:k]!r}", *_place(text, p))
            return ExprSyntaxError(f"unexpected character {t[k]!r}", *_place(text, p + k))


def _as_operator(val):
    """val as a scalar operator: a function becomes its multiplication."""
    return dop.multiplication(val) if isinstance(val, DiffFunction) else val


def _size(val):
    """(terms, bits) of a function or an operator: its terms, those of
    every coefficient for an operator, and the largest bit length of a
    numerator or denominator among them."""
    fs = [val] if type(val) is DiffFunction else [f for _k, f in val.terms]
    n = bits = 0
    for f in fs:
        n += len(f._t)
        bits = max(bits, f._den.bit_length(), *[abs(c).bit_length() for _m, c in f._t])
    return n, bits


class _Parser:
    """Recursive descent over the token list of one text.

    ``_sum``, ``_term`` and ``_atom`` return a DiffFunction or, in
    operator mode, a ScalarDiffOp, built by the ring's own arithmetic;
    the bounds on powers (``MAX_POWER_BITS``, ``MAX_POWER_PAIRS``) are
    the only checks of its own.
    """

    def __init__(self, text, operator_mode):
        toks = _TOKEN.findall(text)
        if not _KNOWN.issuperset(toks):
            # what is left besides ints and primes is not in the grammar
            bad = {t for t in set(toks).difference(_KNOWN) if t[0] not in "0123456789'"}
            if bad:
                raise _bad_token(text, bad)
        toks.append(_END)
        self.text = text
        self.toks = toks
        self.pos = 0
        self.depth = 0
        self.operator_mode = operator_mode

    def fail(self, msg, i):
        """Raise ExprSyntaxError(msg) at token i."""
        raise self.error(ExprSyntaxError, msg, i)

    def error(self, cls, msg, i):
        """The error cls(msg) placed at token i: the end of input when i
        is the last index, else the start of the i-th match of _TOKEN."""
        text = self.text
        p = len(text)
        if i < len(self.toks) - 1:
            for j, match in enumerate(_TOKEN.finditer(text)):
                if j == i:
                    p = match.start()
                    break
        return cls(msg, *_place(text, p))

    def expect(self, kind):
        """Take the next token, which must be ``kind``: a token text, or
        'int', 'name' or 'end'."""
        i = self.pos
        t = self.toks[i]
        if kind == "int":
            ok = t.isdigit()
        elif kind == "name":
            ok = t in _NAMES
        elif kind == "end":
            ok = not t
        else:
            ok = t == kind
        if not ok:
            self.fail(f"expected {kind}, found {t or 'end of input'!r}", i)
        self.pos = i + 1
        return t

    # items := expr, or items separated by seps[0] (the rest of seps inside)
    def items(self, seps):
        if not seps:
            val = self._sum()
            return _as_operator(val) if self.operator_mode else val
        vals = [self.items(seps[1:])]
        while self.toks[self.pos] == seps[0]:
            self.pos += 1
            vals.append(self.items(seps[1:]))
        return vals

    # expr := ['-'] term (('+'|'-') term)*
    def _sum(self):
        toks = self.toks
        sign = 1
        if toks[self.pos] == "-":
            self.pos += 1
            sign = -1
        val = self._term()
        more = _SIGNS.get(toks[self.pos])
        if more is None:  # one term
            return val if sign == 1 else -val
        acc = Accumulator()
        ops = None  # the sum of the operator terms
        while True:
            if type(val) is DiffFunction:
                add_into(acc, val, sign)
            elif ops is None:
                ops = val if sign == 1 else -val
            else:
                ops = ops + val if sign == 1 else ops - val
            if more is None:
                break
            sign = more
            self.pos += 1
            val = self._term()
            more = _SIGNS.get(toks[self.pos])
        f = DiffFunction.from_acc(acc)
        if ops is None:
            return f
        return dop.multiplication(f) + ops

    # term := factor (('*'|'/') factor)*, factor := atom ['^' ['-'] int];
    # * of a function and an operator composes with the multiplication
    # operator of the function
    def _term(self):
        toks = self.toks
        i = self.pos
        val = None  # the product of the factors so far
        div = False  # whether the factor divides
        while True:
            start = i
            t = toks[i]
            i += 1
            if t == "u" or t == "v":  # a jet: the one-term function of its packed unit
                t = toks[i]
                at = i  # the token of the order
                if t[:1] == "'":
                    order = len(t)
                    i += 1
                elif t == "^" and toks[i + 1] == "(":
                    at = self.pos = i + 2
                    self.expect("int")
                    order = self._int(at, "jet order")
                    self.expect(")")
                    i = self.pos
                else:
                    order = 0
                if order > MAX_ORDER:
                    self.fail(f"jet order {order} is above {MAX_ORDER}", at)
                x = _df(((1 << EXP_BITS * _slot(U if toks[start] == "u" else V, order), 1),))
            elif t.isdigit():
                n = da.text_int(t)
                x = _df(((0, n),)) if n else da.ZERO
            else:
                self.pos = start
                x = self._atom()
                i = self.pos
            if toks[i] == "^":
                neg = toks[i + 1] == "-"
                i += 1 + neg
                if not toks[i].isdigit():
                    self.pos = i
                    self.expect("int")
                e = self._int(i, "exponent")
                i += 1
                if neg:
                    x = self._inverse(x, start, True)
                if type(x) is not DiffFunction or len(x._t) > 1:
                    x = self._power(x, e, i - 1)
                else:
                    if x._t:
                        (m, c), = x._t
                        # c**e has at most e * c.bit_length() bits, and is 1 or -1
                        # for a c of bit length 1
                        b = max(c.bit_length(), x._den.bit_length())
                        if b > 1 and b * e > MAX_POWER_BITS:
                            _mono_power(m, e)  # an exponent out of range is the error first
                            self.fail(f"a coefficient power has more than {MAX_POWER_BITS} bits", i - 1)
                    x = x**e
            if div:
                x = self._inverse(x, start, False)
            val = x if val is None else val * x
            t = toks[i]
            if t == "*":
                div = False
            elif t == "/":
                div = True
            else:
                self.pos = i
                return val
            i += 1

    def _int(self, i, what):
        """The int of the digits token i, an exponent or a jet order; one of
        more digits than ``int`` reads is out of range, an error at token i."""
        t = self.toks[i]
        try:
            return int(t)
        except ValueError:
            self.fail(f"{what} of {len(t)} digits is out of range", i)

    def _power(self, x, e, i):
        """x^e for a function of two or more terms or an operator x, by
        repeated squaring as ``x**e`` takes it; each product is checked
        against ``MAX_POWER_PAIRS`` and ``MAX_POWER_BITS`` before it is
        formed, and errors are placed at token i, the exponent."""
        if not e:
            return x**0
        out = None
        while True:
            if e & 1:
                out = x if out is None else self._times(out, x, i)
            e >>= 1
            if not e:
                return out
            x = self._times(x, x, i)

    def _times(self, a, b, i):
        """a * b, a product of a power, unless it pairs more than
        ``MAX_POWER_PAIRS`` terms or its factors' coefficients together
        have more than ``MAX_POWER_BITS`` bits; errors at token i."""
        (na, ba), (nb, bb) = _size(a), _size(b)
        if na * nb > MAX_POWER_PAIRS:
            self.fail(f"a power takes a product of more than {MAX_POWER_PAIRS} term pairs", i)
        if ba + bb > MAX_POWER_BITS:
            self.fail(f"a power has coefficients of more than {MAX_POWER_BITS} bits", i)
        return a * b

    def _atom(self):
        """A parenthesized sum, log(v), D(...) or d, at token self.pos."""
        i = self.pos
        t = self.toks[i]
        self.pos = i + 1
        if t == "(" or t == "D":
            if t == "D":
                self.expect("(")
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail(f"parentheses nest deeper than {MAX_NESTING}", self.pos - 1)
            val = self._sum()
            self.expect(")")
            self.depth -= 1
            if t == "(":
                return val
            if isinstance(val, dop.ScalarDiffOp):
                self.fail("D(...) takes a function", i)
            return da.total_derivative(val)
        if t == "log":
            self.expect("(")
            j = self.pos
            if self.expect("name") != "v":
                self.fail("log takes v only", j)
            self.expect(")")
            return _df(((_LOG, 1),))
        if t == "d":
            if not self.operator_mode:
                self.fail("the operator symbol d needs an operator context", i)
            return dop.D
        self.fail(f"unexpected {t or 'end of input'!r}", i)

    def _inverse(self, val, i, power):
        """1/val for a term c*v^e with c a nonzero rational, the values
        that division (or, with ``power``, a negative power) accepts;
        errors are placed at token i."""
        if type(val) is not DiffFunction:
            self.fail("operators take nonnegative powers only" if power else "cannot divide by an operator", i)
        if len(val._t) == 1:
            (m, c), = val._t
            if MIN_V_EXP <= m <= MAX_V_EXP:  # a pure power v^e packs to the int e
                if m == MIN_V_EXP:
                    da.v_pow(-m)  # out of range: pack_mono raises its error
                q = val._den
                return _df(((-m, q if c > 0 else -q),), abs(c))
        if power:
            raise self.error(ExponentError, "negative exponents are allowed on v only", i)
        if not val._t:
            self.fail("division by zero", i)
        if len(val._t) > 1:
            self.fail("division needs a single invertible factor", i)
        self.fail("only rationals and powers of v can be inverted", i)


def _parse(text, operator_mode, seps=""):
    """The value of the whole of text: one expression, or for each
    separator in seps (outermost first) a list of the values between them."""
    p = _Parser(text, operator_mode)
    val = p.items(seps)
    p.expect("end")
    return val


def parse(text):
    """Parse a differential function from text."""
    return _parse(text, False)


def parse_scalar_operator(text):
    """Parse one scalar operator (functions promote to multiplications)."""
    return _parse(text, True)


def parse_operator(text):
    """Parse a matrix operator: rows separated by ';', entries by ','."""
    return dop.MatrixDiffOp(_parse(text, True, ";,"))


def parse_vector(text):
    """Parse a vector of functions: components separated by ';'."""
    return tuple(_parse(text, False, ";"))
