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
','.  Each input text is tokenized once and parsed from that one token
stream, so the line and column of every error count from the start of
the whole input.

Example inputs:  "u'' + 4*u^2",  "1/v^2",  "-3/2*(v')^2*v^-4",
"d^3 + 2*u*d + u'",  "D(u*u')",  "d, u; u, d".

Values are built straight from packed monomials (see :mod:`magri.diffalg`):
a jet or log(v) is its packed unit 1 << EXP_BITS*slot, an integer n the
one pair (0, n), and the divisor of '/' or the base of a negative power,
a term c*v^e, is read from its one pair, whose packed monomial is the
int e itself.  A product with a one-term operand shifts the monomials
of the other, and a power of one term is closed-form, so a product of
one-term factors never sorts or hashes a monomial.  Products are
still formed left to right, so an exponent that leaves its range
raises ExponentOverflow on the same inputs, with the same message, as
when every product went through the general multiply-accumulate.
"""

from __future__ import annotations

from . import diffalg as da
from . import diffop as dop
from .diffalg import EXP_BITS, LOG_VAR, MAX_V_EXP, MIN_V_EXP, DiffFunction, U, V, _df, _slot
from .errors import ExponentError, ExprSyntaxError

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
            e = int(self.take("int")[1])
            val = (self._inverse(val, tok, power=True) if neg else val) ** e
        return val

    def atom(self):
        t = self.take()
        kind, text = t[0], t[1]
        if kind == "int":
            n = int(text)
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
            order = int(self.take("int")[1])
            self.take(")")
        return _unit(var, order)

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
