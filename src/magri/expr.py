"""Text grammar for differential functions and scalar operators.

Functions:  u, v, primes (u', v'') or parenthesized jet suffixes
(u^(4)), integer and rational coefficients (3, 3/2), products with *,
powers with ^ (negative powers only on v itself), log(v), and D(...)
for the total derivative of the enclosed expression.  Division is
restricted to invertible factors: rationals and pure powers of v.

Operators: the same grammar plus the symbol d for the total-derivative
operator, with * meaning composition; functions embed as zero-order
multiplication operators.  A matrix operator is rows separated by ';'
with entries separated by ','.

Example inputs:  "u'' + 4*u^2",  "1/v^2",  "-3/2*(v')^2*v^-4",
"d^3 + 2*u*d + u'",  "D(u*u')".
"""

from __future__ import annotations

from fractions import Fraction

from . import diffalg as da
from . import diffop as dop
from .diffalg import DiffFunction, U, V
from .errors import ExponentError, ExprSyntaxError


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"_Tok({self.kind},{self.text!r})"


def _tokenize(text):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in ("u", "v", "d", "D", "log"):
                raise ExprSyntaxError(f"unknown name {word!r}", line, col)
            toks.append(_Tok("name", word, line, col))
            col += j - i
            i = j
            continue
        if ch == "'":
            j = i
            while j < n and text[j] == "'":
                j += 1
            toks.append(_Tok("primes", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^(),;":
            toks.append(_Tok(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("end", "", line, col))
    return toks


class _Parser:
    """Recursive descent over the token list; values are DiffFunction
    or ScalarDiffOp depending on the mode."""

    def __init__(self, toks, operator_mode):
        self.toks = toks
        self.pos = 0
        self.operator_mode = operator_mode

    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def take(self, kind=None):
        t = self.toks[self.pos]
        if kind is not None and t.kind != kind:
            raise ExprSyntaxError(f"expected {kind}, found {t.text or 'end of input'!r}", t.line, t.col)
        self.pos += 1
        return t

    def fail(self, msg, tok=None):
        t = tok or self.peek()
        raise ExprSyntaxError(msg, t.line, t.col)

    # expr := ['-'] term (('+'|'-') term)*
    def expr(self):
        if self.peek().kind == "-":
            self.take()
            acc = self._negate(self.term())
        else:
            acc = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            acc = self._combine(acc, rhs, add=(op == "+"))
        return acc

    # term := factor (('*'|'/') factor)*
    def term(self):
        acc = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            tok = self.peek()
            rhs = self.factor()
            if op == "*":
                acc = self._mul(acc, rhs)
            else:
                acc = self._mul(acc, self._as_inverse(rhs, tok))
        return acc

    # factor := atom ['^' ['-'] int]
    def factor(self):
        tok = self.peek()
        val = self.atom()
        if self.peek().kind == "^":
            self.take()
            neg = False
            if self.peek().kind == "-":
                self.take()
                neg = True
            t = self.take("int")
            e = int(t.text)
            if neg:
                val = self._invert_pow(val, e, tok)
            else:
                val = val ** e
        return val

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            self.take()
            return da.const(int(t.text))
        if t.kind == "(":
            self.take()
            val = self.expr()
            self.take(")")
            return val
        if t.kind == "name":
            if t.text in ("u", "v"):
                return self._variable()
            if t.text == "log":
                self.take()
                self.take("(")
                inner = self.take("name")
                if inner.text != "v":
                    self.fail("log takes v only", inner)
                self.take(")")
                return da.log_v()
            if t.text == "D":
                self.take()
                self.take("(")
                val = self.expr()
                self.take(")")
                if isinstance(val, dop.ScalarDiffOp):
                    self.fail("D(...) takes a function", t)
                return da.total_derivative(val)
            if t.text == "d":
                if not self.operator_mode:
                    self.fail("the operator symbol d needs an operator context", t)
                self.take()
                return dop.D
        self.fail(f"unexpected {t.text or 'end of input'!r}")

    def _variable(self):
        t = self.take("name")
        var = U if t.text == "u" else V
        order = 0
        if self.peek().kind == "primes":
            order = len(self.take().text)
        elif self.peek().kind == "^" and self.peek(1).kind == "(":
            self.take()
            self.take("(")
            num = self.take("int")
            order = int(num.text)
            self.take(")")
        return da.jet(var, order)

    # -- value helpers (promote functions to operators as needed) ------------

    def _promote(self, val):
        if isinstance(val, DiffFunction):
            return dop.multiplication(val)
        return val

    def _combine(self, a, b, add):
        if isinstance(a, dop.ScalarDiffOp) or isinstance(b, dop.ScalarDiffOp):
            a, b = self._promote(a), self._promote(b)
            return a + b if add else a - b
        return a + b if add else a - b

    def _negate(self, a):
        return -a

    def _mul(self, a, b):
        if isinstance(a, dop.ScalarDiffOp) or isinstance(b, dop.ScalarDiffOp):
            return dop.compose(self._promote(a), self._promote(b))
        return a * b

    def _as_inverse(self, val, tok):
        """Invert a rational or a pure v-power term."""
        if isinstance(val, dop.ScalarDiffOp):
            self.fail("cannot divide by an operator", tok)
        if not val:
            self.fail("division by zero", tok)
        if len(val.terms) != 1:
            self.fail("division needs a single invertible factor", tok)
        mono, c = val.terms[0]
        if any(g[0] != V or g[1] != 0 for g in mono):
            self.fail("only rationals and powers of v can be inverted", tok)
        e = mono[0][2] if mono else 0
        return da.v_pow(-e) * da.coeff_div(1, c)

    def _invert_pow(self, val, e, tok):
        if isinstance(val, dop.ScalarDiffOp):
            self.fail("operators take nonnegative powers only", tok)
        bad = (
            not val
            or len(val.terms) != 1
            or any(g[0] != V or g[1] != 0 for g in val.terms[0][0])
        )
        if bad:
            raise ExponentError(
                "negative exponents are allowed on v only", tok.line, tok.col
            )
        return self._as_inverse(val, tok) ** e


def parse(text):
    """Parse a differential function from text."""
    p = _Parser(_tokenize(text), operator_mode=False)
    val = p.expr()
    p.take("end")
    if not isinstance(val, DiffFunction):
        raise ExprSyntaxError("expected a function, found an operator")
    return val


def parse_scalar_operator(text):
    """Parse one scalar operator (functions promote to multiplications)."""
    p = _Parser(_tokenize(text), operator_mode=True)
    val = p.expr()
    p.take("end")
    if isinstance(val, DiffFunction):
        val = dop.multiplication(val)
    return val


def parse_operator(text):
    """Parse a matrix operator: rows split by ';', entries by ','."""
    rows = []
    for row_text in text.split(";"):
        row = []
        for entry in row_text.split(","):
            row.append(parse_scalar_operator(entry))
        rows.append(row)
    return dop.MatrixDiffOp(rows)


def parse_vector(text):
    """Parse a vector of functions: components split by ';'."""
    return tuple(parse(part) for part in text.split(";"))
