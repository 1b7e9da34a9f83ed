"""Command line behavior: exit codes, round trips, output formats."""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import reference
from magri import cli, expr, lenard, pva, render
from magri import diffalg as da
from magri import diffop as dop
from magri import varcalc as vc
from magri.errors import (
    DimensionMismatch,
    ExponentError,
    ExponentOverflow,
    ExprSyntaxError,
    MagriError,
    NoSolution,
)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_text_grammar_roundtrips_a_fixed_corpus():
    corpus = [
        "u",
        "v^-2",
        "u*v - (v')^2/2",
        "12*u*u'' + 32*u^3/3 + 6*(u')^2 + u^(4) + v^3/3",
        "2*log(v) - u'*v^-1",
        "u*v^-1 - v^-3*(v')^2/2",
        "3/4",
        "0",
    ]
    for text in corpus:
        f = expr.parse(text)
        assert expr.parse(da.to_text(f)) == f


def test_text_grammar_roundtrips_random_functions():
    rng = random.Random(7)
    for _ in range(80):
        f = helpers.rand_function(rng, log_ok=True)
        assert expr.parse(da.to_text(f)) == f


def test_operator_text_roundtrips():
    rng = random.Random(11)
    ops = [lenard.structure(0), lenard.structure(1)]
    ops += [helpers.rand_matrix_op(rng) for _ in range(10)]
    for op in ops:
        assert expr.parse_operator(render.op_text(op)) == op


def test_function_json_roundtrips():
    rng = random.Random(13)
    for _ in range(40):
        f = helpers.rand_function(rng, log_ok=True)
        blob = json.dumps(render.function_to_json(f))
        assert render.function_from_json(json.loads(blob)) == f


def test_operator_json_roundtrips():
    rng = random.Random(17)
    for op in (lenard.structure(0), lenard.structure(1), helpers.rand_matrix_op(rng)):
        blob = json.dumps(render.operator_to_json(op))
        assert render.operator_from_json(json.loads(blob)) == op


def _outcome(fn, text):
    """fn(text), or the type, message, line and column of the error it raises."""
    try:
        return fn(text)
    except MagriError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


# each parse function of the package, with the reference parser's
_PARSERS = [
    (expr.parse, reference.parse),
    (expr.parse_scalar_operator, reference.parse_scalar_operator),
    (expr.parse_operator, reference.parse_operator),
    (expr.parse_vector, reference.parse_vector),
]

# texts at the edges: the exponent range, tokens outside the grammar
# (names are runs of str.isalpha characters, integers ASCII digits),
# white space that is not ASCII, errors on later lines, and one-term
# powers, products and inverses whose checks come in a fixed order (an
# exponent out of range before the coefficient-size bound, each factor's
# range before a product by zero)
_EDGE_TEXTS = [
    "u^32767*v^-16384", "u^32768", "v^16383*v", "v^-16384", "v^-16385", "1/v^-16384",
    "(v^-1)^16384", "(v^-1)^16385", "(2*v)^-16384", "0*v^16383*v", "v^16383*v*0",
    "v^16383*0*v", "0^0", "0^-1", "u^0*v^-0", "(u + v)^0", "(u - u)^-1", "2/(u - u + 3)",
    "u^(0)*v^(2)^3", "u'^(2)", "(u)^(2)", "u^(2+1)", "log(v)^32767*log(v)", "D(v^-16384)",
    "u²", "x²", "²u", "uv", "ué", "é", "u_v", "٣", "v\u00a0+ u", "u\u2028+ v", "log(x)",
    "u +\n\n  v*q", "u +\n* v", "(u\n", "u;\n;v", "d,\nx", "1" * 4400,
    "u^" + "9" * 4400, "D(d)", "d^3*u - u*d^3", "(d + u)^2", "d/(2*v^-1)", "d^-1", "-d*(u + 1)",
    "(2*u)^70000", "u^70000*3^70000", "0*u^70000", "(3/4*v^2)^-1", "(2/4)^2*u", "u/2/3*6", "D(0)^2",
    "log(v)^0",
]


def _fuzz_texts(rng):
    """Seeded texts for the parser: characters drawn from the grammar's
    alphabet, and expressions with Laurent and log terms, parentheses,
    D(...) and exponents at the edge of the range, as functions,
    operators, vectors and matrices, some with one character changed."""
    alphabet = "uvd'()^*/+- 0123456789;,.logxD\n"
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 24))) for _ in range(400)]
    for _ in range(300):
        a, b, c = (_rand_expr(rng, rng.randint(1, 3))[0] for _ in range(3))
        k = rng.choice((16383, 16384, 32767, 32768, 8192))
        texts += [
            a,
            f"{a} - ({b})*v^-{k}*v^{k}",
            f"({a})*d^2 + d*({b}) - {c}",
            f"{a}; D({b}); {c}",
            f"{a}, d*({b}); d^2, {c}",
        ]
    for i, text in enumerate(texts[400:]):
        if i % 4 == 0:  # one character replaced, dropped or put in
            j = rng.randrange(len(text) + 1)
            texts.append(text[:j] + rng.choice(["(", ")", "x", "^", "-", "", ";", ",", "\n", "'"]) + text[j + 1:])
    return texts + _EDGE_TEXTS


def test_parser_fuzz_raises_only_syntax_errors():
    """Differential against the reference parser: every text gives an
    equal value, or an error of the same type and message at the same
    line and column, in each mode."""
    rng = random.Random(23)
    seen = set()
    for text in _fuzz_texts(rng):
        for fn, ref in _PARSERS:
            got = _outcome(fn, text)
            assert got == _outcome(ref, text), (fn.__name__, text)
            seen.add(got[0] if isinstance(got, tuple) and isinstance(got[0], type) else "value")
    assert seen == {"value", ExprSyntaxError, ExponentError, ExponentOverflow, DimensionMismatch}


def test_syntax_error_positions_are_one_based():
    with pytest.raises(ExprSyntaxError) as info:
        expr.parse("u +\n* v")
    assert (info.value.line, info.value.col) == (2, 1)


# (parse function, input, error class, message, line, col) for every error
# the text grammar raises; the positions of the separator cases count from
# the start of the whole input, not of the entry the error is in
GRAMMAR_ERRORS = [
    (expr.parse, "u + x", ExprSyntaxError, "unknown name 'x'", 1, 5),
    (expr.parse, "u.v", ExprSyntaxError, "unexpected character '.'", 1, 2),
    (expr.parse, "(u", ExprSyntaxError, "expected ), found 'end of input'", 1, 3),
    (expr.parse, "u v", ExprSyntaxError, "expected end, found 'v'", 1, 3),
    (expr.parse, "u^v", ExprSyntaxError, "expected int, found 'v'", 1, 3),
    (expr.parse, "log v", ExprSyntaxError, "expected (, found 'v'", 1, 5),
    (expr.parse, "log(2)", ExprSyntaxError, "expected name, found '2'", 1, 5),
    (expr.parse, "log(u)", ExprSyntaxError, "log takes v only", 1, 5),
    (expr.parse, "u +* v", ExprSyntaxError, "unexpected '*'", 1, 4),
    (expr.parse, "u +\n  ) v", ExprSyntaxError, "unexpected ')'", 2, 3),
    (expr.parse, "u*d", ExprSyntaxError, "the operator symbol d needs an operator context", 1, 3),
    (expr.parse, "u/0", ExprSyntaxError, "division by zero", 1, 3),
    (expr.parse, "u/(u + v)", ExprSyntaxError, "division needs a single invertible factor", 1, 3),
    (expr.parse, "1/(2*u)", ExprSyntaxError, "only rationals and powers of v can be inverted", 1, 3),
    (expr.parse, "u^-1", ExponentError, "negative exponents are allowed on v only", 1, 1),
    (expr.parse, "v*(v + 1)^-2", ExponentError, "negative exponents are allowed on v only", 1, 3),
    (expr.parse, "0^-1", ExponentError, "negative exponents are allowed on v only", 1, 1),
    (expr.parse_scalar_operator, "D(d)", ExprSyntaxError, "D(...) takes a function", 1, 1),
    (expr.parse_scalar_operator, "u/d", ExprSyntaxError, "cannot divide by an operator", 1, 3),
    (expr.parse_scalar_operator, "u*d^-1", ExprSyntaxError, "operators take nonnegative powers only", 1, 3),
    (expr.parse_scalar_operator, "d, u", ExprSyntaxError, "expected end, found ','", 1, 2),
    (expr.parse_operator, "d, u; x, d", ExprSyntaxError, "unknown name 'x'", 1, 7),
    (expr.parse_operator, "d,,d", ExprSyntaxError, "unexpected ','", 1, 3),
    (expr.parse_operator, "d, u;\nu, d^-1", ExprSyntaxError, "operators take nonnegative powers only", 2, 4),
    (expr.parse_vector, "u; v*q", ExprSyntaxError, "unknown name 'q'", 1, 6),
    (expr.parse_vector, "u;", ExprSyntaxError, "unexpected 'end of input'", 1, 3),
    (expr.parse_vector, "u, v", ExprSyntaxError, "expected end, found ','", 1, 2),
    (expr.parse_vector, "u; u^-1", ExponentError, "negative exponents are allowed on v only", 1, 4),
]


@pytest.mark.parametrize("fn, text, cls, message, line, col", GRAMMAR_ERRORS)
def test_grammar_errors_name_their_place_in_the_whole_input(fn, text, cls, message, line, col):
    with pytest.raises(ExprSyntaxError) as info:
        fn(text)
    err = info.value
    assert (type(err), err.message, err.line, err.col) == (cls, message, line, col)


def _plain_mul(f, g):
    """f * g through the general multiply-accumulate, as every product was
    formed before one-term operands shifted monomials."""
    acc = da.Accumulator()
    da.addmul_into(acc, f, g)
    return da.DiffFunction.from_acc(acc)


def _plain_pow(f, n):
    out = da.ONE
    for _ in range(n):
        out = _plain_mul(out, f)
    return out


# precedence levels of the random expression texts below: a sum, a term (a
# product or a quotient), a factor (a power, or v^-k), and an atom, which
# alone takes a power without parentheses of its own
_SUM, _TERM, _FACTOR, _ATOM = range(4)
_KINDS = ("sum",) * 3 + ("product",) * 3 + ("neg", "quotient", "power", "inverse", "group", "D")


def _wrap(tree, level):
    """The text of tree, parenthesized unless it binds at least as tightly as level."""
    text, lvl, _val = tree
    return text if lvl >= level else f"({text})"


def _rand_expr(rng, depth):
    """(text, level, value) of a random expression over Laurent and log
    atoms, its value built with the plain ring operations."""
    if depth == 0 or rng.random() < 0.2:
        kind = rng.randrange(5)
        if kind == 0:
            n = rng.randint(0, 9)
            return str(n), _ATOM, da.const(n)
        if kind == 1:
            return "log(v)", _ATOM, da.log_v()
        if kind == 2:
            k = rng.randint(1, 4)
            return f"v^-{k}", _FACTOR, da.v_pow(-k)
        var, n = rng.choice("uv"), rng.randint(0, 3)
        text = var + "'" * n if n < 3 else f"{var}^({n})"
        return text, _ATOM, da.jet(da.U if var == "u" else da.V, n)
    kind = rng.choice(_KINDS)
    if kind in ("quotient", "inverse"):
        # a divisor c*v^e, and its inverse from the tuple form of one term
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 3))
        e = rng.randint(-3, 3)
        div = f"({c.numerator}/{c.denominator}*v^{e})"
        if c.denominator == 1:
            div = str(c) if e == 0 and c > 0 else f"({c}*v^{e})"
        inv = da.DiffFunction([(((da.V, 0, -e),), 1 / c)])
        if kind == "inverse":
            n = rng.randint(1, 3)
            return f"{div}^-{n}", _FACTOR, _plain_pow(inv, n)
        a = _rand_expr(rng, depth - 1)
        return f"{_wrap(a, _TERM)}/{div}", _TERM, _plain_mul(a[2], inv)
    a = _rand_expr(rng, depth - 1)
    if kind == "sum":
        b = _rand_expr(rng, depth - 1)
        if rng.random() < 0.5:
            return f"{a[0]} + {_wrap(b, _TERM)}", _SUM, a[2] + b[2]
        return f"{a[0]} - {_wrap(b, _TERM)}", _SUM, a[2] - b[2]
    if kind == "neg":
        return f"-{_wrap(a, _TERM)}", _SUM, -a[2]
    if kind == "product":
        b = _rand_expr(rng, depth - 1)
        return f"{_wrap(a, _TERM)}*{_wrap(b, _FACTOR)}", _TERM, _plain_mul(a[2], b[2])
    if kind == "power":
        n = rng.randint(0, 3 if len(a[2]) < 4 else 1)
        return f"{_wrap(a, _ATOM)}^{n}", _FACTOR, _plain_pow(a[2], n)
    if kind == "group":
        return f"({a[0]})", _ATOM, a[2]
    return f"D({a[0]})", _ATOM, da.total_derivative(a[2])


def test_parsed_values_equal_the_plain_ring_operations():
    rng = random.Random(29)
    trees = [_rand_expr(rng, rng.randint(1, 5)) for _ in range(300)]
    for text, _lvl, val in trees:
        assert expr.parse(text) == val, text
    assert sum(len(val) > 1 for _t, _l, val in trees) > 100
    # operator mode: functions embed as multiplications, d composes
    for (a, _, fa), (b, _, fb), (c, _, fc) in zip(trees[:30:3], trees[1:30:3], trees[2:30:3]):
        ma, mb, mc = (dop.multiplication(f) for f in (fa, fb, fc))
        assert expr.parse_scalar_operator(a) == ma, a
        assert expr.parse_scalar_operator(f"({a})*d + d*({b})") == ma * dop.D + dop.D * mb
        assert expr.parse_operator(f"{a}, d*({b}); {c}, d") == dop.MatrixDiffOp(
            [[ma, dop.D * mb], [mc, dop.D]]
        )


def test_division_and_negative_powers_invert_one_term_of_v():
    assert expr.parse("2/v^3 - 3/(2*v)") == 2 * da.v_pow(-3) - Fraction(3, 2) * da.v_pow(-1)
    assert expr.parse("(2*v^2)^-2") == Fraction(1, 4) * da.v_pow(-4)
    assert expr.parse_scalar_operator("d/(3*v^0)") == dop.D * Fraction(1, 3)


def test_missing_operator_names_its_flags_without_a_position(capsys):
    code, out, err = _run(capsys, "bracket", "--f", "u", "--g", "v")
    assert (code, out, err) == (4, "", "SYNTAX_ERROR: no operator given (use --builtin, --op, or --op-expr)\n")
    code, out, err = _run(capsys, "verify-compatible", "--op-expr", "d")
    assert (code, out, err) == (4, "", "SYNTAX_ERROR: no operator given (use --builtin, --op2, or --op2-expr)\n")


def test_high_jet_orders_differentiate_in_linear_time(capsys):
    # a jet of order n sits in field 2n + 2 of its packed monomial; the
    # product rule once stepped over every field below it, one shift of the
    # whole monomial each, and took seconds per derivative at this order
    t0 = time.perf_counter()
    code, out, err = _run(capsys, "varder", "u^(2000)*v")
    assert time.perf_counter() - t0 < 4
    assert (code, out, err) == (0, "[1] v^(2000)\n[2] u^(2000)\n", "")


def test_high_jet_memo_stays_within_its_byte_budget(capsys, monkeypatch):
    # the Euler derivative of a lone high jet is a Horner chain and leaves
    # the memo alone; when it went through the memo and MEMO_CAP counted
    # 2^18 entries, the memo held 4,113 of them after this command, with
    # 36 MB of keys
    helpers.fresh_dx_memo(monkeypatch)
    assert _run(capsys, "varder", "u^(4096)*v") == (0, "[1] v^(4096)\n[2] u^(4096)\n", "")
    assert da._DX_MONO == {} and da._dx_bytes == 0
    # the tower of a short high-jet operand goes through the memo, and its
    # 70 levels hold 2,485 monomials whose long keys pass the budget
    want = sum((da.u_jet(4000 + j) * da.v_jet(70 - j) * comb(70, j) for j in range(71)), da.ZERO)
    cap = da.MEMO_CAP
    for budget in (cap, 1 << 20, 1 << 17):
        helpers.fresh_dx_memo(monkeypatch)
        monkeypatch.setattr(da, "MEMO_CAP", budget)
        f = da.u_jet(4000) * da.v_jet(0)
        assert da.total_derivative(f, 70) == want
        levels = [f]
        while len(levels) < 70:
            levels.append(levels[-1]._d)
        filled = sum(sys.getsizeof(m) + da._DX_ENTRY for g in levels for m, _c in da.packed_terms(g))
        assert filled > cap >= budget
        assert 0 < helpers.dx_memo_bytes() == da._dx_bytes <= budget


def test_json_coefficients_are_strings_or_integers(capsys, tmp_path):
    assert render.function_from_json([{"c": 3, "m": [["u", 0, 1]]}]) == 3 * da.u_jet()
    assert render.function_from_json([{"c": "-1/10", "m": []}]) == da.const(Fraction(-1, 10))
    for c in (0.1, 1e30, 2.0, True, None, [1]):
        with pytest.raises(ExprSyntaxError, match="a coefficient is a string or an integer") as info:
            render.function_from_json([{"c": c, "m": []}])
        assert repr(c) in info.value.message
    path = tmp_path / "op.json"
    path.write_text(json.dumps([[[{"k": 0, "c": [{"c": 0.5, "m": []}]}]]]))
    code, out, err = _run(capsys, "verify-poisson", "--op", str(path))
    assert (code, out) == (4, "")
    assert err == "SYNTAX_ERROR: bad coefficient 0.5: a coefficient is a string or an integer\n"


def test_verify_poisson_builtin_exits_zero(capsys):
    code, out, _ = _run(capsys, "verify-poisson", "--builtin", "h0")
    assert code == 0
    assert out.strip() == "POISSON"


def test_verify_poisson_rejects_a_skew_non_poisson_operator(capsys):
    code, out, _ = _run(
        capsys, "verify-poisson", "--op-expr", "d^3 + 2*u^2*d + 2*u*u'"
    )
    assert code == 2
    assert out.strip() == "NOT_POISSON"


def test_verify_poisson_rejects_a_non_skew_operator(capsys):
    code, out, _ = _run(capsys, "verify-poisson", "--op-expr", "d^2")
    assert code == 2
    assert out.strip() == "NOT_SKEW"


def test_verify_compatible_builtin_pair(capsys):
    code, out, _ = _run(capsys, "verify-compatible", "--builtin")
    assert code == 0
    assert out.strip() == "COMPATIBLE"


def test_builtin_structures_are_the_recursion_pair(capsys, monkeypatch):
    # --builtin with one structure or two reads the pair the recursion uses
    seen = []
    monkeypatch.setattr(pva, "is_poisson", lambda h: seen.append((h,)) or True)
    monkeypatch.setattr(pva, "is_compatible", lambda h, k: seen.append((h, k)) or True)
    for argv in (("verify-poisson", "--builtin", "h0"), ("verify-poisson", "--builtin", "h1")):
        assert _run(capsys, *argv)[:2] == (0, "POISSON\n")
    assert _run(capsys, "verify-compatible", "--builtin")[:2] == (0, "COMPATIBLE\n")
    want = [(lenard.H0,), (lenard.H1,), (lenard.H0, lenard.H1)]
    assert [list(map(id, ops)) for ops in seen] == [list(map(id, ops)) for ops in want]


def test_verify_compatible_detects_a_broken_pencil(capsys):
    code, out, _ = _run(
        capsys,
        "verify-compatible",
        "--op-expr",
        "2*u*d + u', 0; 0, d",
        "--op2-expr",
        "0, d; d, 0",
    )
    assert code == 2
    assert out.strip() == "NOT_COMPATIBLE"


def test_syntax_errors_exit_four(capsys):
    code, _, err = _run(capsys, "varder", "u +* v")
    assert code == 4
    assert err.startswith("SYNTAX_ERROR at 1:4")


def test_integers_are_ascii_digits(capsys):
    # str.isdigit takes '²' and str.isdecimal takes '٣'; neither is an integer here
    for ch in ("²", "٣"):
        code, out, err = _run(capsys, "varder", f"u^{ch}")
        assert (code, out, err) == (4, "", f"SYNTAX_ERROR at 1:3: unexpected character {ch!r}\n")
    code, out, err = _run(capsys, "varder", "12²")
    assert (code, err) == (4, "SYNTAX_ERROR at 1:3: unexpected character '²'\n")
    assert expr.parse("u^12*v^-10") == da.u_jet(0) ** 12 * da.v_pow(-10)


def test_coefficient_powers_are_bounded_at_the_exponent(capsys):
    # e times the bit length of the base bounds the bits of c^e: 2^32768
    # passes the bound of 65536 exactly, 2^32769 is refused before it is
    # formed (3^10000000*u took seconds), and an exponent out of range keeps
    # its own error
    assert expr.MAX_POWER_BITS == 65536
    assert expr.parse("2^32768") == da.const(2**32768)
    assert expr.parse("u*(3/2)^-32768") == da.u_jet(0) * Fraction(2**32768, 3**32768)
    assert expr.parse("1^100000 + (-1)^70001*u") == 1 - da.u_jet(0)
    message = "a coefficient power has more than 65536 bits"
    for text, col in (
        ("2^32769", 3),
        ("3^10000000*u", 3),
        ("u + (3/2)^-32769*v", 12),
        ("v*(2^3)^21846", 9),
        ("3^40000/3^40000", 3),  # refused before the quotient, which is 1
        ("(" + "1" * 4400 + ")^5", 4404),
    ):
        with pytest.raises(ExprSyntaxError) as info:
            expr.parse(text)
        err = info.value
        assert (type(err), err.message, err.line, err.col) == (ExprSyntaxError, message, 1, col), text
        assert _run(capsys, "fmt", text) == (4, "", f"SYNTAX_ERROR at 1:{col}: {message}\n")
    assert _run(capsys, "fmt", "(3*u)^70000") == (4, "", f"INPUT_ERROR: {_LEFT_RANGE}\n")


def test_powers_of_sums_and_operators_are_bounded_at_the_exponent(capsys):
    # a power of a sum or an operator is taken by squaring, and each product
    # pairs at most MAX_POWER_PAIRS terms and multiplies coefficients of at
    # most MAX_POWER_BITS bits together: a sum of 256 terms squares, one of
    # 257 does not, and 2^32767, of 32768 bits, squares exactly at the bound
    assert expr.MAX_POWER_PAIRS == 65536
    s256 = " + ".join(f"u^{k}" for k in range(1, 257))
    f = expr.parse(s256)
    assert len(f) == 256 and expr.parse(f"({s256})^2") == f * f
    g = expr.parse("2^32767*u + 1")
    assert expr.parse("(2^32767*u + 1)^2") == g * g
    assert expr.parse("(2 + u)^500") == (2 + da.u_jet(0)) ** 500
    assert expr.parse_scalar_operator("d^2000") == dop.D**2000
    assert expr.parse_scalar_operator("(d^2 + 1)^0") == dop.multiplication(da.ONE)
    pairs = "a power takes a product of more than 65536 term pairs"
    bits = "a power has coefficients of more than 65536 bits"
    # (2 + u)^2000 took 4.3 s, (3*u*d)^100 ran out of memory and
    # (3*d)^1000000 built a coefficient of 1.58 million bits
    for fn, text, message in (
        (expr.parse, f"({s256} + u^257)^2", pairs),
        (expr.parse, "(2^32768*u + 1)^2", bits),
        (expr.parse, "(2 + u)^2000", pairs),
        (expr.parse, "v + (2 + u)^4000", pairs),
        (expr.parse_scalar_operator, "(3*u*d)^100", pairs),
        (expr.parse_scalar_operator, "(3*d)^1000000", bits),
    ):
        col = text.rindex("^") + 2
        with pytest.raises(ExprSyntaxError) as info:
            fn(text)
        err = info.value
        assert (type(err), err.message, err.line, err.col) == (ExprSyntaxError, message, 1, col), text
        argv = ["--operator", text] if fn is expr.parse_scalar_operator else [text]
        assert _run(capsys, "fmt", *argv) == (4, "", f"SYNTAX_ERROR at 1:{col}: {message}\n")


def test_long_exponents_and_jet_orders_are_placed_errors(capsys):
    # int() refuses more than 4300 digits; such an exponent or jet order is
    # out of range, and the error names its line and column
    nines = "9" * 4400
    for text, line, col, what in (
        (f"u^{nines}", 1, 3, "exponent"),
        (f"u^({nines})", 1, 4, "jet order"),
        (f"v'*(u + 1)^{nines}", 1, 12, "exponent"),
        (f"u +\n  v^({nines})", 2, 6, "jet order"),
    ):
        message = f"{what} of 4400 digits is out of range"
        with pytest.raises(ExprSyntaxError) as info:
            expr.parse(text)
        err = info.value
        assert (err.message, err.line, err.col) == (message, line, col), text
        assert _run(capsys, "fmt", text) == (4, "", f"SYNTAX_ERROR at {line}:{col}: {message}\n")


def test_jet_orders_are_bounded(capsys, tmp_path):
    # u^(999999999999) packed to an int of 3.2e13 bits and ran out of
    # memory; the bound lies far above the chains' orders (37 at most) and
    # at or above the order 4000 that CI differentiates
    n = da.MAX_ORDER
    assert n >= 4000
    assert _run(capsys, "fmt", f"u^({n})*v") == (0, f"u^({n})*v\n", "")
    assert _run(capsys, "fmt", "v" + "'" * n) == (0, f"v^({n})\n", "")
    for text, col, order in (
        (f"u^({n + 1})*v", 4, n + 1),
        ("v" + "'" * (n + 1), 2, n + 1),
        ("u + v^(999999999999)", 8, 999999999999),
    ):
        want = f"SYNTAX_ERROR at 1:{col}: jet order {order} is above {n}\n"
        assert _run(capsys, "fmt", text) == (4, "", want), text[:20]
    # the JSON reader, the jet constructors and pack_mono hold the same bound
    term = {"c": "1", "m": [["u", n, 1]]}
    assert render.function_from_json([term]) == da.jet(da.U, n)
    path = tmp_path / "op.json"
    for order in (n + 1, 999999999999):
        term["m"][0][1] = order
        with pytest.raises(ExprSyntaxError, match=f"jet order of u is above {n}"):
            render.function_from_json([term])
        path.write_text(json.dumps([[[{"k": 0, "c": [term]}]]]))
        code, out, err = _run(capsys, "verify-poisson", "--op", str(path))
        assert (code, out, err) == (4, "", f"SYNTAX_ERROR: jet order of u is above {n}\n")
    for make in (
        lambda: da.jet(da.V, n + 1),
        lambda: da.u_jet(n + 1),
        lambda: da.DiffFunction([(((da.U, n + 1, 1),), 1)]),
        lambda: da.pack_mono(((da.V, 999999999999, 1),)),
    ):
        with pytest.raises(MagriError, match=f"jet order of [uv] is above {n}"):
            make()


def test_no_value_goes_past_the_jet_order_bound(capsys):
    # D(u^(4096)) printed u^(4097), which the JSON reader refused, and
    # total_derivative went to any order
    n = da.MAX_ORDER
    message = f"a jet order left its range: at most {n}"
    assert da.total_derivative(da.u_jet(n - 1)) == da.u_jet(n)
    assert da.total_derivative(da.u_jet(0), n) == da.u_jet(n)
    assert expr.parse(f"D(v^({n - 1}))") == da.v_jet(n)
    code, out, err = _run(capsys, "fmt", "--json", f"D(u^({n - 1}))")
    assert (code, err) == (0, "")
    assert render.function_from_json(json.loads(out)) == da.u_jet(n)
    for make in (
        lambda: expr.parse(f"D(u^({n}))"),
        lambda: expr.parse(f"D(v^({n})*u)"),
        lambda: da.total_derivative(da.u_jet(0), 5000),
        lambda: vc.variational_derivative(da.u_jet(n) ** 2),
    ):
        with pytest.raises(ExponentOverflow) as info:
            make()
        assert str(info.value) == message
    for argv in (["fmt", "--json", f"D(u^({n}))"], ["varder", f"u^({n})^2"], ["reduce", f"u^({n})^2"]):
        assert _run(capsys, *argv) == (4, "", f"INPUT_ERROR: {message}\n")


def test_partial_derivative_by_an_order_past_the_bound_is_zero():
    # the shift to the slot of u^(10^12) ran out of memory under a 2 GB
    # address-space limit, with a bare MemoryError
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from magri import diffalg as da\n"
        "f = da.u_jet(0) * da.v_jet(3)\n"
        "for var in ('u', 'v', 0, 1):\n"
        "    assert da.partial_derivative(f, (var, 10**12)) is da.ZERO\n"
        f"    assert da.partial_derivative(f, (var, {da.MAX_ORDER + 1})) is da.ZERO\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


def _digits_value(text):
    """The int of a run of decimal digits, read digit by digit."""
    n = 0
    for ch in text:
        n = 10 * n + "0123456789".index(ch)
    return n


def test_integers_of_any_length_are_written_and_read_back(capsys):
    # str() and int() refuse more than 4300 digits; 2^20000 has 6021
    big = "1234567890" * 440 + "7"  # a literal of 4401 digits, odd
    cases = [
        ("2^20000", Fraction(2**20000)),
        (big, Fraction(_digits_value(big))),
        (f"-{big}*u/2^20000 + v", None),
    ]
    for text, value in cases:
        f = expr.parse(text)
        if value is not None:
            assert f == da.const(value)
            digits = da.to_text(f)
            assert _digits_value(digits) == value
            assert _run(capsys, "fmt", text) == (0, digits + "\n", "")
            assert _run(capsys, "fmt", "--latex", text) == (0, digits + "\n", "")
            code, out, _ = _run(capsys, "reduce", "--json", text)
            assert code == 0 and json.loads(out)["constant_term"] == digits
        # text, JSON (from the packed terms and from Fractions) and LaTeX
        assert expr.parse(da.to_text(f)) == f
        code, out, err = _run(capsys, "fmt", "--json", text)
        assert (code, err) == (0, "")
        assert render.function_from_json(json.loads(out)) == f
        assert render.function_from_json(json.loads(json.dumps(render.function_to_json(f)))) == f
    f = expr.parse(cases[2][0])
    assert render.latex(f) == rf"-\frac{{{big} u}}{{{da.to_text(da.const(2**20000))}}} + v"


def test_long_integers_take_one_pass_of_each_writer(monkeypatch):
    # a numerator and a denominator of 4400 digits each, more than str()
    # writes: to_text and latex write them in one pass, where each ran its
    # whole writer a second time, and every form reads back exactly
    n_text, d_text = "1" + "0" * 4398 + "1", "1" + "0" * 4399
    c = Fraction(-(10**4399 + 1), 10**4399)
    f = da.DiffFunction([(((da.U, 0, 1),), c), (((da.V, 1, 2),), 1)])
    calls = []
    for mod, name in ((da, "_text"), (render, "_latex_terms")):
        def counted(*args, fn=getattr(mod, name), name=name):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(mod, name, counted)
    text, tex = da.to_text(f), render.latex(f)
    monkeypatch.undo()
    assert calls == ["_text", "_latex_terms"]
    assert text == f"-{n_text}*u/{d_text} + (v')^2"
    assert tex == rf"-\frac{{{n_text} u}}{{{d_text}}} + (v')^2"
    assert expr.parse(text) == f
    pieces = []
    render.write_json(pieces.append, f)
    assert render.function_from_json(json.loads("".join(pieces))) == f
    assert render.function_from_json(json.loads(json.dumps(render.function_to_json(f)))) == f


def test_an_explicit_double_dash_is_the_value_of_its_option(capsys, monkeypatch, tmp_path):
    # --opt=-- gives the option the string "--" on every Python version,
    # off the table and through argparse (an abbreviated option takes that
    # path); argparse up to 3.12 dropped it and stored [], on which these
    # commands exited 1 with a TypeError
    for argv in (
        ["flow", "--density=--", "--builtin", "h0"],
        ["flow", "--dens=--", "--builtin", "h0"],
        ["frechet", "--vec=--"],
        ["frechet", "--ve=--"],
        ["bracket", "--f=--", "--g", "u", "--builtin", "h0"],
    ):
        assert _exit(capsys, argv) == (4, "", "SYNTAX_ERROR at 1:2: unexpected '-'\n"), argv
    code, out, err = _exit(capsys, ["hierarchy", "--eps=--", "--alpha", "0", "--steps", "1"])
    assert code == 2 and err.endswith("error: argument --eps: invalid int value: '--'\n")
    monkeypatch.chdir(tmp_path)
    argv = ["hierarchy", "--eps", "1", "--alpha", "1", "--steps", "1"]
    code, out, _err = _exit(capsys, argv)
    assert (code, _exit(capsys, argv + ["--out=--"])) == (0, (0, "", ""))
    assert (tmp_path / "--").read_text() == out


def test_negative_exponent_on_u_exits_four(capsys):
    code, _, err = _run(capsys, "varder", "u^-1")
    assert code == 4
    assert err.startswith("EXPONENT_ERROR")


def test_missing_operator_argument_exits_four(capsys):
    code, _, err = _run(capsys, "bracket", "--f", "u", "--g", "v")
    assert code == 4
    assert "no operator given" in err


def test_unreadable_operator_file_exits_four(capsys, tmp_path):
    path = tmp_path / "op.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, "verify-poisson", "--op", str(path))
    assert code == 4
    assert err.startswith("INPUT_ERROR")


def test_missing_operator_file_exits_four(capsys, tmp_path):
    # an OSError of the input, not of the output, is still bad input
    code, out, err = _run(capsys, "verify-poisson", "--op", str(tmp_path / "none.json"))
    assert (code, out) == (4, "")
    assert err.startswith("INPUT_ERROR") and "No such file" in err


def test_closed_stdout_exits_one_without_an_input_error():
    # the reader has gone before magri writes, as with `magri ... | head`:
    # print raises BrokenPipeError, an OSError, which once reached the
    # INPUT_ERROR handler and exited 4
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "magri.cli", "hierarchy", "--eps", "1", "--alpha", "1", "--steps", "1"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_json_readers_take_only_integer_orders_and_exponents(capsys, tmp_path):
    one = {"c": "1", "m": []}
    path = tmp_path / "op.json"
    for k in (1.5, 1.0, "1", True, None):
        path.write_text(json.dumps([[[{"k": k, "c": [one]}]]]))
        code, out, err = _run(capsys, "verify-poisson", "--op", str(path))
        assert (code, out) == (4, ""), k
        assert "integer" in err, k
    for gen in (["u", 0.7, 1], ["u", 0, 1.0], ["v", True, 1], ["u", 0, True], ["u", "0", 1]):
        with pytest.raises(ExprSyntaxError, match="integers"):
            render.function_from_json([{"c": "1", "m": [gen]}])
    assert render.function_from_json([{"c": "2", "m": [["u", 1, 2]]}]) == 2 * da.u_jet(1) ** 2


def test_json_readers_reject_non_list_monomials_and_rows(capsys, tmp_path):
    one = {"c": "1", "m": []}
    path = tmp_path / "op.json"
    for blob, msg in (
        ([[[{"k": 0, "c": [{"c": "1", "m": 5}]}]]], "'m' is a list"),
        ([[[{"k": 0, "c": [{"c": "1", "m": None}]}]]], "'m' is a list"),
        ([5], "row is a list"),
        ([[[{"k": 0, "c": [one]}]], 7], "row is a list"),
    ):
        path.write_text(json.dumps(blob))
        code, out, err = _run(capsys, "verify-poisson", "--op", str(path))
        assert (code, out) == (4, ""), blob
        assert msg in err, blob
    with pytest.raises(ExprSyntaxError, match="'m' is a list"):
        render.function_from_json([{"c": "1", "m": 5}])
    with pytest.raises(ExprSyntaxError, match="row is a list"):
        render.operator_from_json([5])


def test_operator_file_loading(capsys, tmp_path):
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(render.operator_to_json(lenard.structure(1))))
    code, out, _ = _run(capsys, "verify-poisson", "--op", str(path))
    assert code == 0
    assert out.strip() == "POISSON"


def test_operator_json_in_any_term_order_is_canonical(capsys, tmp_path):
    blob = render.operator_to_json(lenard.structure(0))
    reversed_terms = [[entry[::-1] for entry in row] for row in blob]
    assert reversed_terms != blob
    path = tmp_path / "h0.json"
    path.write_text(json.dumps(reversed_terms))
    code, out, _ = _run(capsys, "verify-poisson", "--op", str(path))
    assert (code, out.strip()) == (0, "POISSON")
    assert render.operator_from_json(reversed_terms) == lenard.structure(0)
    # equal orders are summed and a zero sum is dropped
    one = {"c": "1", "m": []}
    cancel = render.scalar_op_from_json([{"k": 1, "c": [one]}, {"k": 1, "c": [dict(one, c="-1")]}])
    assert cancel == dop.ScalarDiffOp()
    assert render.op_text(cancel) == "0"


def test_casimir_check_passes(capsys):
    code, out, _ = _run(capsys, "casimir-check")
    assert code == 0
    assert "CASIMIR_CHECK PASSED" in out
    code, out, _ = _run(capsys, "casimir-check", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["seeds"]) == 4


def test_hierarchy_json_output(capsys):
    code, out, _ = _run(
        capsys, "hierarchy", "--eps", "1", "--alpha", "0", "--steps", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["eps"] == 1 and data["alpha"] == 0 and data["steps"] == 1
    assert len(data["gradients"]) == 2 and len(data["flows"]) == 2
    assert all(v is True for v in data["checks"].values())
    assert data["orders"][1] == [4, 0]
    xi1 = render.vector_from_json(data["gradients"][1])
    assert xi1 == lenard.lm_step(1, lenard.seed(1, 0).gradient)


def test_hierarchy_latex_to_file(capsys, tmp_path):
    path = tmp_path / "chain.tex"
    code, out, _ = _run(
        capsys,
        "hierarchy",
        "--eps",
        "1",
        "--alpha",
        "1",
        "--steps",
        "0",
        "--latex",
        "--out",
        str(path),
    )
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert r"\xi_{0} =" in text and r"\begin{pmatrix}" in text


def test_hierarchy_no_solution_exits_three(capsys, monkeypatch):
    def _no(*a, **kw):
        raise NoSolution("synthetic")

    monkeypatch.setattr(cli.lenard, "run_hierarchy", _no)
    code, _, err = _run(
        capsys, "hierarchy", "--eps", "0", "--alpha", "0", "--steps", "1"
    )
    assert code == 3
    assert err.startswith("NO_SOLUTION")


def test_bracket_of_commuting_functionals_prints_zero(capsys):
    code, out, _ = _run(
        capsys, "bracket", "--builtin", "h1", "--f", "u", "--g", "u*u''/2 + 4*u^3/3 + v^3/6"
    )
    assert code == 0
    assert out.strip() == "0"


def test_flow_matches_the_engine(capsys):
    code, out, _ = _run(
        capsys,
        "flow",
        "--op-expr",
        "0, d; d, 0",
        "--density",
        "u^2/2 + v^2/2",
    )
    assert code == 0
    assert out.splitlines() == ["[1] v'", "[2] u'"]
    code, out, _ = _run(
        capsys, "flow", "--builtin", "h0", "--density", "u*v", "--json"
    )
    assert code == 0
    got = render.vector_from_json(json.loads(out))
    h0 = lenard.structure(0)
    f = da.LocalFunctional(expr.parse("u*v"))
    assert got == pva.hamiltonian_flow(h0, f)


def test_reduce_reports_an_antiderivative(capsys):
    code, out, _ = _run(capsys, "reduce", "u'*v + u*v'")
    assert code == 0
    assert out.strip() == "exact: u*v"
    code, out, _ = _run(capsys, "reduce", "u*v", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["in_derivative_image"] is False
    assert render.function_from_json(data["euler_u"]) == da.v_jet(0)
    # not exact, though the top-order loop meets v^(MAX_V_EXP + 1) first
    code, out, _ = _run(capsys, "reduce", "v^16383*v'*u")
    assert (code, out) == (0, "not exact\neuler_u: v^16383*v'\neuler_v: -u'*v^16383\n")


def test_reduce_takes_each_euler_derivative_once(capsys, monkeypatch):
    calls = []
    euler = da.euler_derivative

    def counted(f, var):
        calls.append(var)
        return euler(f, var)

    monkeypatch.setattr(da, "euler_derivative", counted)
    code, out, _ = _run(capsys, "reduce", "u*v''")
    assert (code, out) == (0, "not exact\neuler_u: v''\neuler_v: u''\n")
    assert calls == [da.U, da.V]


def test_varder_prints_components(capsys):
    code, out, _ = _run(capsys, "varder", "u*v^2")
    assert code == 0
    assert out.splitlines() == ["[1] v^2", "[2] 2*u*v"]


def test_frechet_json_matches_the_engine(capsys):
    code, out, _ = _run(capsys, "frechet", "--vec", "u*v'; u'' + v^2", "--json")
    assert code == 0
    got = render.operator_from_json(json.loads(out))
    vec = expr.parse_vector("u*v'; u'' + v^2")
    assert got == vc.frechet(vec)


def test_fmt_normalizes_text(capsys):
    code, out, _ = _run(capsys, "fmt", "v*u + u*v")
    assert code == 0
    assert out.strip() == "2*u*v"
    code, out, _ = _run(capsys, "fmt", "--operator", "d^3 + 2*u*d + u'")
    assert code == 0
    assert expr.parse_scalar_operator(out.strip()) == expr.parse_scalar_operator(
        "d^3 + 2*u*d + u'"
    )


def test_fmt_latex_fragment(capsys):
    code, out, _ = _run(capsys, "fmt", "--latex", "v''/v^3 - u/v^2 - 3*(v')^2/(2*v^4)")
    assert code == 0
    assert out.strip() == r"-\frac{u}{v^2} - \frac{3 (v')^2}{2 v^4} + \frac{v''}{v^3}"


def test_negative_steps_exit_four(capsys):
    code, out, err = _run(
        capsys, "hierarchy", "--eps", "1", "--alpha", "0", "--steps", "-1"
    )
    assert code == 4
    assert out == ""
    assert err.startswith("INPUT_ERROR")


def test_exponent_out_of_range_exits_four(capsys):
    for text in ("u^40000", "v^-20000", "u^20000*u^20000"):
        code, out, err = _run(capsys, "fmt", text)
        assert code == 4, text
        assert out == ""
        assert err.startswith("INPUT_ERROR")
        assert "exponent" in err or "power of v" in err
    code, out, _ = _run(capsys, "fmt", "u^32767*v^-16384")
    assert (code, out) == (0, "u^32767*v^-16384\n")


_LEFT_RANGE = "an exponent left its range: at most 32767, or [-16384, 16383] for the power of v"

# (input, the ExponentOverflow message, or None when the input parses):
# values are built from packed ints, and a field that overflows would
# carry into the next one (u^70000 would read as u^4464*v'), so each of
# these must keep the error it gave when every value went through the
# general product
EXPONENT_RANGE = [
    ("v^16383*(v + 1)*v^-1", _LEFT_RANGE),
    ("u^70000", _LEFT_RANGE),
    ("(v^-2)^-8192", _LEFT_RANGE),
    ("v^-16385", _LEFT_RANGE),
    ("(u*v')^20000*u^20000", _LEFT_RANGE),
    ("1/v^-16384", "power 16384 of v is outside [-16384, 16383]"),
    ("v^-16384", None),
    ("u^32767*v^-16384", None),
]


@pytest.mark.parametrize("text, message", EXPONENT_RANGE)
def test_exponent_range_through_parse_and_fmt(capsys, text, message):
    if message is None:
        assert da.to_text(expr.parse(text)) == text
        assert _run(capsys, "fmt", text) == (0, text + "\n", "")
        return
    with pytest.raises(ExponentOverflow) as info:
        expr.parse(text)
    assert (type(info.value), str(info.value)) == (ExponentOverflow, message)
    assert _run(capsys, "fmt", text) == (4, "", f"INPUT_ERROR: {message}\n")


def test_verify_poisson_exponent_overflow_exits_four(capsys):
    # the entries parse, but a bracket of them leaves the exponent range
    code, out, err = _run(capsys, "verify-poisson", "--op-expr", "d*u^20000 + u^20000*d")
    assert (code, out) == (4, "")
    assert err == (
        "INPUT_ERROR: an exponent left its range: at most 32767, "
        "or [-16384, 16383] for the power of v\n"
    )


def _three_calls(capsys, path):
    seen = []
    for argv in (
        ["hierarchy", "--eps", "1", "--alpha", "0", "--steps", "1", "--out", str(path)],
        ["fmt", "--json", "v*u + u'/2"],
        ["fmt", "u^"],
    ):
        seen.append(_run(capsys, *argv))
    return seen, path.read_text()


def test_main_reuses_one_parser_with_unchanged_results(capsys, tmp_path, monkeypatch):
    shared = _three_calls(capsys, tmp_path / "a.json")
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = _three_calls(capsys, tmp_path / "b.json")
    assert shared == fresh
    assert [code for code, _o, _e in shared[0]] == [0, 0, 4]


def _querygen():
    """The query generator of the benchmark's calculus workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "querygen.py"
    spec = importlib.util.spec_from_file_location("querygen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exit(capsys, argv):
    """The exit code, stdout and stderr of main(argv), usage errors included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# command lines that argparse answers itself: help, a missing or unknown
# command, left-over words, a missing option, a bad type or choice, an
# abbreviated or repeated option, which it takes, a separate value that
# starts with '-', and a '--' that no one word follows
USAGE_ARGVS = [
    [],
    ["-h"],
    ["nope"],
    ["varder"],
    ["varder", "-h"],
    ["varder", "--bogus", "u"],
    ["varder", "u", "v"],
    ["bracket", "--f", "u"],
    ["bracket", "--f=u", "--g=v", "--builtin", "h2"],
    ["fmt", "--js", "u"],
    ["hierarchy", "--eps=2", "--alpha", "0", "--steps", "1"],
    ["hierarchy", "--eps", "1", "--alpha", "1", "--steps", "x"],
    ["varder", "--json", "--json", "u"],
    ["bracket", "--f", "-u", "--g", "v", "--builtin", "h0"],
    ["fmt", "--", "u", "v"],
    ["varder", "--json", "--"],
]


def _sub_parsers(top):
    return next(a for a in top._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_main_goes_straight_to_the_command_parser(capsys, monkeypatch):
    # one command line of each shape the calculus workload sends
    shapes = {q["kind"]: q["argv"] for q in _querygen().make_queries(7, 100) if q["argv"]}
    assert len(shapes) == 13
    argvs = USAGE_ARGVS + list(shapes.values())
    top = cli._shared_parser()
    calls = []
    monkeypatch.setattr(top, "parse_args", lambda argv: calls.append(argv) or type(top).parse_args(top, argv))
    sub_calls = []
    for name, sub in _sub_parsers(top).items():
        def spy(words, namespace=None, name=name, sub=sub):
            sub_calls.append([name] + words)
            return type(sub).parse_known_args(sub, words, namespace)

        monkeypatch.setattr(sub, "parse_known_args", spy)
    direct = [_exit(capsys, argv) for argv in argvs]
    # the table read every shape of the workload, and the command's
    # sub-parser every other command line; the top-level parser ran only
    # for what it alone prints: its help, a missing or unknown command and
    # left-over words
    assert not [argv for argv in shapes.values() if argv in sub_calls]
    assert [argv for argv in USAGE_ARGVS if argv not in sub_calls] == [[], ["-h"], ["nope"]]
    assert calls == [[], ["-h"], ["nope"], ["varder", "--bogus", "u"], ["varder", "u", "v"], ["fmt", "--", "u", "v"]]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: type(top).parse_args(top, argv))
    assert direct == [_exit(capsys, argv) for argv in argvs]
    codes = [code for code, _o, _e in direct[: len(USAGE_ARGVS)]]
    assert codes == [2, 0, 2, 2, 0, 2, 2, 2, 2, 0, 2, 2, 0, 2, 2, 2]


# values that each command runs in milliseconds: no --steps draws a chain
# deeper than 0, as --method ansatz takes a minute on (0,1) at depth 1
_WORDS = ["u", "v'*u", "-u*v", "v'; u", "d", "u + v", "", "--", "-", "-h"]
_INTS = ["0", " 0", "-1", "x"]


def _draw_value(rng, action):
    """A value for the store action ``action``, valid or not."""
    if action.choices is not None:
        return rng.choice([str(c) for c in action.choices] * 2 + ["2", "h2"])
    return rng.choice(_INTS if action.type is int else _WORDS)


def _draw_argv(rng, name, sub):
    """A command line for the sub-parser ``sub`` of command ``name``: its
    required actions and some of its others, each in a plain form, then
    one or two of the changes that argparse must answer."""
    options = [a for a in sub._actions if a.option_strings and a.dest != "help"]
    groups = []
    for a in options:
        if not a.required and rng.random() > 0.3:
            continue
        opt = rng.choice(a.option_strings)
        if a.nargs == 0:
            groups.append([opt])
        elif rng.random() < 0.5:
            groups.append([f"{opt}={_draw_value(rng, a)}"])
        else:
            groups.append([opt, _draw_value(rng, a)])
    rng.shuffle(groups)
    words = [w for g in groups for w in g]
    if any(not a.option_strings for a in sub._actions):  # the positional
        text = rng.choice(["u", "v'*u", "-u", "--"])
        tail = ["--", text] if text.startswith("-") or rng.random() < 0.3 else [text]
        if tail == [text]:
            words.insert(rng.randrange(len(words) + 1), text)
        else:
            words += tail
    for _ in range(rng.choice((0, 1, 1, 2))):
        change = rng.randrange(9)
        at = rng.randrange(len(words) + 1)
        opts = [i for i, w in enumerate(words) if w.startswith("--") and len(w.split("=")[0]) > 3]
        if change == 0 and opts:  # abbreviate an option
            i = rng.choice(opts)
            opt = words[i].split("=")[0]
            words[i] = opt[: rng.randrange(3, len(opt))] + words[i][len(opt):]
        elif change == 1 and groups:  # repeat an option, with its value
            words[at:at] = rng.choice(groups)
        elif change == 2:  # move or add a '--'
            if "--" in words:
                words.remove("--")
            words.insert(at, "--")
        elif change == 3 and options:  # a separate value with a leading '-'
            words[at:at] = [rng.choice(options).option_strings[-1], "-u"]
        elif change == 4 and options:  # a value of any kind, bad types and choices included
            a = rng.choice(options)
            words[at:at] = [a.option_strings[0]] if a.nargs == 0 else [a.option_strings[0], _draw_value(rng, a)]
        elif change == 5 and opts:  # drop an option, perhaps a required one, and its value
            i = rng.choice(opts)
            del words[i : i + 1 + ("=" not in words[i] and words[i + 1 : i + 2] != ["--"])]
        elif change == 6:  # a left-over word
            words.insert(at, rng.choice(_WORDS))
        elif change == 7:  # help
            words.insert(at, rng.choice(["-h", "--help", "--he"]))
        elif change == 8:  # a flag with an explicit value
            words.insert(at, rng.choice(["--json=1", "--latex=", "--builtin=h0", "-"]))
    return [name] + words


def test_plain_command_lines_read_as_argparse_reads_them(capsys, monkeypatch, tmp_path):
    # every command line that main reads off a sub-parser's table must give
    # the exit code, stdout and stderr of the pure-argparse path, and every
    # other must go to argparse; argparse's handling of '--' has varied
    # between Python versions, so CI runs this on each of them
    monkeypatch.chdir(tmp_path)  # where --out writes
    top = cli._shared_parser()
    rng = random.Random(20261020)
    argvs = [
        _draw_argv(rng, name, sub) for name, sub in _sub_parsers(top).items() for _ in range(40)
    ]
    read = []
    plain = cli._read
    monkeypatch.setattr(cli, "_read", lambda table, words: read.append(plain(table, words)) or read[-1])
    fast = [_exit(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: type(top).parse_args(top, argv))
    for argv, got in zip(argvs, fast):
        assert got == _exit(capsys, argv), argv
    # both paths ran often: the table read about a third of the lines
    taken = sum(ns is not None for ns in read)
    assert len(read) == len(argvs) and 100 < taken < 300
    assert {got[0] for got in fast} >= {0, 2, 4}


def test_packed_writers_match_the_terms_based_ones():
    rng = random.Random(20261019)
    fs = [helpers.rand_function(rng, terms=6) for _ in range(300)]
    fs += [
        da.ZERO,
        da.const(Fraction(-7, 3)),
        expr.parse("u^32767*v^-16384*log(v)^3 - u^(40)/7 + 1"),
        expr.parse("-(v')^2*v^-3/2 + u*v''*log(v) - 12"),
    ]
    for f in fs:
        cached = f._terms  # da.ZERO's may be filled by an earlier test
        text, tex = da.to_text(f), render.latex(f)
        assert f._terms is cached
        assert (text, tex) == (reference.to_text(f), reference.latex(f))
    assert render.latex(da.LocalFunctional(fs[0])) == reference.latex(da.LocalFunctional(fs[0]))


def _nested(depth, inner="u"):
    return "(" * depth + inner + ")" * depth


def test_deep_nesting_is_a_syntax_error_at_its_parenthesis(capsys, tmp_path):
    # the recursive parser overflowed the interpreter's stack past 245
    # levels and exited 1 with a traceback; every depth it parsed parses
    deepest = expr.MAX_NESTING
    for depth in (1, 200, 245, deepest):
        assert expr.parse(_nested(depth)) == da.u_jet(0)
        assert expr.parse("D(" * depth + "u" + ")" * depth) == da.u_jet(depth)
        assert expr.parse_vector(f"v; {_nested(depth, 'u + 1')}") == (da.v_jet(0), da.u_jet(0) + 1)
    message = f"parentheses nest deeper than {deepest}"
    for text, col in (
        (_nested(deepest + 1), deepest + 1),
        (_nested(10**5), deepest + 1),
        ("D(" * 250 + "u" + ")" * 250, 2 * deepest + 2),  # at the '(' of the 250th D
    ):
        with pytest.raises(ExprSyntaxError) as info:
            expr.parse(text)
        err = info.value
        assert (type(err), err.message, err.line, err.col) == (ExprSyntaxError, message, 1, col)
    deep = _nested(250)
    for argv, col in (
        (["fmt", deep], 250),
        (["fmt", "--operator", deep], 250),
        (["verify-poisson", "--op-expr", deep], 250),
        (["frechet", f"--vec=u; {deep}"], 253),
    ):
        assert _exit(capsys, argv) == (4, "", f"SYNTAX_ERROR at 1:{col}: {message}\n")
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert _exit(capsys, ["verify-poisson", "--op", str(path)]) == (
        4, "", "INPUT_ERROR: the operator JSON nests too deeply\n"
    )


def test_reduce_at_the_edge_of_the_exponent_range_exits_four(capsys):
    # the antiderivative's round and the Euler test both reach v^-16385,
    # so neither can decide whether the input is exact
    assert _exit(capsys, ["reduce", "v^-16384*v'*v''"]) == (4, "", f"INPUT_ERROR: {_LEFT_RANGE}\n")


# SHA-256 of the stdout of `magri hierarchy --eps 1 --alpha 1 --steps 2`,
# without and with --latex; any change to the canonical forms, the term
# order or the number formatting changes them.
GOLDEN_SHA256 = {
    "json": "479db5d65fa2c200fa9476334ea47f2a5d646b4ea823c57439473f7becc1203f",
    "latex": "42ad0da3d77de18b7dbda88e6067b91983f3a3fc9db7581bc4db34f463bebce3",
}

# SHA-256 of the JSON stdout of `magri hierarchy --eps 0 --alpha 0 --steps 1`:
# the eps = 0 chain runs through negative powers of v, the antiderivative
# and the Laurent branch of exact integration.
GOLDEN_SHA256_E0A0 = "fdc5b31f558527acf2dadb4d24eb2b7e46d56f0470c4a05486bbdfb77b489ee6"


# SHA-256 of the JSON stdout of `magri hierarchy --eps 0 --alpha 1 --steps 2`:
# its densities come from the v-only candidate solver, block by block.
GOLDEN_SHA256_E0A1_2 = "12b0e2c5e36e69b6ea49616a27371acaa94a527e3534656ed10ab0b8ae238412"

# SHA-256 of the JSON stdout of `magri hierarchy --eps 0 --alpha 0 --steps 3`.
GOLDEN_SHA256_E0A0_3 = "deba9c466a67d0fc04997dc073fe3d82d2406da8d4b2632ca92605cb85c19b49"


def test_hierarchy_output_is_pinned(capsys):
    for kind, extra in (("json", ()), ("latex", ("--latex",))):
        code, out, _ = _run(
            capsys, "hierarchy", "--eps", "1", "--alpha", "1", "--steps", "2", *extra
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[kind], kind


def test_eps0_hierarchy_output_is_pinned(capsys):
    code, out, _ = _run(capsys, "hierarchy", "--eps", "0", "--alpha", "0", "--steps", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256_E0A0


def test_eps0_alpha1_depth2_hierarchy_output_is_pinned(capsys):
    code, out, _ = _run(capsys, "hierarchy", "--eps", "0", "--alpha", "1", "--steps", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256_E0A1_2


def _json_text(payload, indent=""):
    """The whole text the CLI writes for a JSON payload, newline aside, the
    pieces of render.write_json joined."""
    out = []
    render.write_json(out.append, payload, indent)
    return "".join(out)


def test_depth3_eps0_chain_keeps_its_checks_and_order_law():
    # the v-only solver differentiates only the candidates of the blocks it
    # solves; differentiating all of them made this chain take minutes
    run = lenard.run_hierarchy(0, 0, 3)
    assert run.checks == {"memberships": True, "densities": True, "casimir_pairing": True}
    assert [run.orders[n] for n in (1, 2, 3)] == [(6 * n - 2, 6 * n) for n in (1, 2, 3)]
    assert run.flow_orders == [6 * n + 5 for n in range(4)]
    out = _json_text(render.run_to_json(run)) + "\n"  # what `magri hierarchy` prints
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256_E0A0_3


_JSON_STRINGS = st.text() | st.sampled_from(
    ["", "\x00\x1f\x7f", '"\\/\b\f\n\r\t', "\u00e9\u2028\U0001f600", "\ud800"]
)
_JSON_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**60), 10**60) | _JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_PAYLOADS)
def test_json_writer_matches_the_json_module(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2)


def test_json_writer_rejects_other_types():
    for bad in (1.5, da.QQ(1, 2), {1, 2}, b"x", object(), {1: "a"}, ["a", [None, 2.0]]):
        with pytest.raises(TypeError):
            _json_text(bad)


def _writer_functions(rng):
    """The zero function, constants (an empty "m"), negative fractions and
    seeded functions with Laurent and log terms and rational coefficients,
    each a new value with its terms cache empty."""
    fs = [
        da.DiffFunction(),
        da.DiffFunction([((), 1)]),
        da.DiffFunction([((), da.QQ(-3, 4))]),
        expr.parse("-5/3*u*v^-2*log(v) - 1/2*(v')^2 + 7"),
    ]
    return fs + [helpers.rand_function(rng, terms=6) for _ in range(60)]


def test_function_text_writer_matches_the_json_module():
    rng = random.Random(20261018)
    fs = _writer_functions(rng)
    for f in fs:
        text = json.dumps(render.function_to_json(f), indent=2)
        for depth in range(6):
            indent = "  " * depth
            # a value nested at indent has each of its lines after the first indented by it
            assert _json_text(f, indent) == text.replace("\n", "\n" + indent)
    # the payload shapes of the commands: a function, a vector, an operator
    # and a run, with the functions themselves in them
    for f, g in zip(fs, fs[1:] + fs[:1]):
        assert _json_text(f) == json.dumps(render.function_to_json(f), indent=2)
        vec = (f, g)
        assert _json_text(vec) == json.dumps(render.vector_to_json(vec), indent=2)
        op = dop.MatrixDiffOp([[dop.ScalarDiffOp([(0, f), (2, g)]), dop.ScalarDiffOp([(1, g)])]])
        assert _json_text(render.operator_to_json(op, cli._same)) == json.dumps(
            render.operator_to_json(op), indent=2
        )
    run = lenard.run_hierarchy(1, 1, 2)
    assert _json_text(render.run_to_json(run, cli._same)) == json.dumps(
        render.run_to_json(run), indent=2
    )


def test_function_text_writer_leaves_the_terms_cache_empty():
    rng = random.Random(7)
    for f in _writer_functions(rng):
        _json_text(f, "  ")
        _json_text({"f": [f]})
        assert f._terms is None


def test_function_to_json_leaves_the_terms_cache_empty():
    # it read f.terms, a cache of 1.1 MB on the largest function of (1,1,3)
    rng = random.Random(8)
    long = da.DiffFunction([((), 10**5000 + 1), (((da.U, 0, 1),), da.QQ(1, 3**9000))])
    fs = _writer_functions(rng) + [long]
    trees = []
    for f in fs:
        trees.append(render.function_to_json(f))
        assert f._terms is None
    for f, tree in zip(fs, trees):
        want = [
            {
                "c": da.frac_text(c.numerator, c.denominator),
                "m": [[da.VAR_NAMES[v], n, e] for v, n, e in mono],
            }
            for mono, c in f.terms
        ]
        assert tree == want
    run = lenard.run_hierarchy(1, 1, 2)
    render.run_to_json(run)
    assert all(f._terms is None for f in _run_values(run))


class _Pieces:
    """A standard output that keeps each piece written to it."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return len(text)

    def flush(self):
        pass


def test_hierarchy_json_equals_the_json_module_text(capsys, tmp_path, monkeypatch):
    argv = ["hierarchy", "--eps", "1", "--alpha", "1", "--steps", "2"]
    run = lenard.run_hierarchy(1, 1, 2)
    want = json.dumps(render.run_to_json(run), indent=2) + "\n"
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (0, want, "")
    path = tmp_path / "chain.json"
    code, out, err = _run(capsys, *argv, "--out", str(path))
    assert (code, out, err) == (0, "", "")
    assert path.read_bytes() == want.encode()
    # the text goes out term by term as it is made: no piece is longer than
    # the longest term's text, with the separator before it, at the depth
    # of a gradient's terms (a function of a run nests at most that deep)
    stdout = _Pieces()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(argv) == 0
    assert "".join(stdout.pieces) == want
    longest = max(
        len(",\n" + " " * 8 + json.dumps(term, indent=2).replace("\n", "\n" + " " * 8))
        for f in _run_values(run)
        for term in render.function_to_json(f)
    )
    assert max(map(len, stdout.pieces)) <= longest


def _run_values(run):
    values = [f for vec in run.gradients + run.flows for f in vec]
    return values + [h.rep for h in run.densities]


def test_hierarchy_lets_the_derivative_towers_of_its_run_go(capsys, monkeypatch):
    runs = []
    run_hierarchy = lenard.run_hierarchy

    def keep(*args, **kw):
        runs.append(run_hierarchy(*args, **kw))
        return runs[-1]

    monkeypatch.setattr(lenard, "run_hierarchy", keep)
    code, out, _ = _run(capsys, "hierarchy", "--eps", "1", "--alpha", "1", "--steps", "2")
    assert code == 0
    (run,) = runs
    values = _run_values(run)
    assert all(f._d is None for f in values)
    # a run made outside the CLI keeps its towers; the dropped ones are built again, equal
    kept = _run_values(run_hierarchy(1, 1, 2))
    assert any(f._d is not None for f in kept)
    assert [da.total_derivative(f, 3) for f in values] == [da.total_derivative(f, 3) for f in kept]


def test_json_reader_errors_carry_no_text_position(capsys, tmp_path):
    path = tmp_path / "op.json"
    path.write_text("[5]")
    code, out, err = _run(capsys, "verify-poisson", "--op", str(path))
    assert (code, out, err) == (4, "", "SYNTAX_ERROR: each operator row is a list of entries\n")
    path.write_text(json.dumps([[[{"k": 0, "c": [{"c": "1", "m": [["u", 0, -1]]}]}]]]))
    code, out, err = _run(capsys, "verify-poisson", "--op", str(path))
    assert (code, out, err) == (4, "", "SYNTAX_ERROR: negative exponent on u^(0)\n")
    with pytest.raises(ExprSyntaxError) as info:
        render.function_from_json([{"c": "1", "m": 5}])
    assert (info.value.line, info.value.col) == (None, None)
    assert str(info.value) == "each term's 'm' is a list of generators"
    # errors in the text grammar keep their position
    code, _, err = _run(capsys, "varder", "u +* v")
    assert (code, err) == (4, "SYNTAX_ERROR at 1:4: unexpected '*'\n")


# Laurent and log inputs for the pinned one-shot commands; each has order
# at most 2, so a bracket or a flow of them stays fast.
PINNED_EXPRS = [
    "u*v^-1",
    "v^-2*(v')^2",
    "log(v)",
    "u*log(v)",
    "(log(v))^2*v'",
    "u^2*v^-1 + v^-3*(v')^2/2",
    "u'*v^-1 - 2*u*v'*v^-2",
    "3/4*v^-1*u''",
    "log(v)*v^-1*v'",
    "u^3/3 - u*(v')^2*v^-4",
    "v^2*log(v) - u'",
    "(u')^2*v^-2 + u*v''*v^-1",
    "v'*v^-1 + u*(log(v))^2",
    "u*v + v^-1",
    "2*u'*log(v) - v^-2",
    "-5/2*u^2*v'' + v^-1*(u')^2",
    "v^3 - u*v^-2*v'",
    "(v')^2*v^-5 - 1/3*u",
    "u''*v^-1*log(v)",
    "7 - u*v^-1*(log(v))^2",
]


def _pinned_argvs(command, e, g):
    return {
        "fmt": ["fmt", e],
        # a matrix operator with zero, constant, one-term and many-term
        # coefficients and negative terms
        "fmt-operator": ["fmt", "--operator", f"({e})*d^2 + d*({g}), {e}, 0; -d, d^3 + 2*d, ({g})*d"],
        "varder": ["varder", e],
        "frechet": ["frechet", f"--vec={e}; {g}"],
        "reduce": ["reduce", e],
        "bracket": ["bracket", f"--f={e}", f"--g={g}", "--builtin", "h1"],
        "flow": ["flow", f"--density={e}", "--builtin", "h0"],
    }[command]


# SHA-256 over the exit codes and stdout of each command and output form,
# run on every input of PINNED_EXPRS (the second operand is the next input);
# `reduce` has no LaTeX form, and "fmt-operator" is `fmt --operator`.
GOLDEN_CLI_SHA256 = {
    ("fmt", "plain"): "7b6ef0c09c5722dc17497b4917471009e893334f13d64333f3e86def2bcd4851",
    ("fmt", "json"): "e4905459e96dd3a8fafcfc443b238a2bfedca03e4bd706ff917d6f0f820276fd",
    ("fmt", "latex"): "98b282a4926f3a00e1c97375ec04bf357ff82fd60d8cb0639f021a753cce2cf4",
    ("varder", "plain"): "d992c94ed065859b27149774c3565b1bed6b8f0e24d3524263177524bd44cecf",
    ("varder", "json"): "c924c8eb39b11a6f328e9c87561375c117dd9693bfa860d444a073481faf5eb0",
    ("varder", "latex"): "48cd3bbcbd18f9fcfe0918e753bef8e0a5c4e62221ba0d5d573f9bffbf73f353",
    ("frechet", "plain"): "8d386cca7d035ddec89e053395c96296c36d609f1c50109d7d2e3e8cc3b41596",
    ("frechet", "json"): "a3337733645fcd6e3266bdd929d84216a82825c6db55db7f763b3ddf98ce55c7",
    ("frechet", "latex"): "f934d8c4dff6aa99d4bb972be6a29aa375cc4e4dfa354a3aee26a9cf57f1ea03",
    ("reduce", "plain"): "99773d71d650fddae62bace2865812cbcef71931a11e7b72e3cfecf52057c01f",
    ("reduce", "json"): "7da7a8f1931caaf228780c42b72e276e9835afdfdc48e4c18dfb103dfcd92bb1",
    ("bracket", "plain"): "f91e7a49b3ee9e37701ebcb221b17088f2071d298d19a7555f8d3d312deae2f0",
    ("bracket", "json"): "b37751cb1d3791bd871824586ada424563b0f42bcceda8fc5c8171140490fb50",
    ("bracket", "latex"): "098c47bfec669907e3280a6d81ee200a91d09db901bf66e50744221d8bc72a11",
    ("flow", "plain"): "15c4c4cf8214682c981f8da4062d2159317b7108526134b8ba0b5e3b7389f47d",
    ("flow", "json"): "3f0065c8ef67cbb6955c75bffa7de3c3ba34fa2da10abbe8424a5de98aa0a228",
    ("flow", "latex"): "bb0adc9b8cc0507ae13b7e9c533c431c89a432651fdc50a69b637613b1083d61",
    ("fmt-operator", "plain"): "5c0688580405b2f09f16b5409d697d59c14b8620b97e0f2bcec037c539116783",
    ("fmt-operator", "json"): "317316269501e706490d094602b3c43ff3f9ac89320ef7c216cd04f2865cfd38",
    ("fmt-operator", "latex"): "5c142f87a3e5c34179a4e7cdf866c11d394dc634b68e4c72a5e0ab0bc4ece530",
}


def test_one_shot_cli_output_is_pinned(capsys):
    got = {}
    for command, form in GOLDEN_CLI_SHA256:
        h = hashlib.sha256()
        for i, e in enumerate(PINNED_EXPRS):
            g = PINNED_EXPRS[(i + 1) % len(PINNED_EXPRS)]
            argv = _pinned_argvs(command, e, g) + ([] if form == "plain" else [f"--{form}"])
            code, out, _ = _run(capsys, *argv)
            h.update(f"{code}\n{out}\0".encode())
        got[command, form] = h.hexdigest()
    assert got == GOLDEN_CLI_SHA256


def test_a_failed_run_check_exits_two(capsys, monkeypatch):
    # tags that the (1,0) chain's first gradient does not lie in make the
    # memberships check fail; the run is still written in full
    tags = dict(lenard._GRADIENT_TAGS)
    tags[1] = (da.V_MINUS, da.V_MINUS)
    monkeypatch.setattr(lenard, "_GRADIENT_TAGS", tags)
    code, out, err = _run(capsys, "hierarchy", "--eps", "1", "--alpha", "0", "--steps", "1")
    assert (code, err) == (2, "failed checks: memberships\n")
    data = json.loads(out)
    assert data["checks"] == {"memberships": False, "densities": True, "casimir_pairing": True}
    run = lenard.run_hierarchy(1, 0, 1)
    assert render.vector_from_json(data["gradients"][1]) == run.gradients[1]


# every refusal of the JSON readers: (reader, payload, message)
_ONE_TERM = {"c": "1", "m": []}
JSON_REFUSALS = [
    ("function", {}, "function JSON must be a list of terms"),
    ("function", [5], "each term needs 'c' and 'm'"),
    ("function", [{"c": "1"}], "each term needs 'c' and 'm'"),
    ("function", [{"c": 0.5, "m": []}], "bad coefficient 0.5: a coefficient is a string or an integer"),
    ("function", [{"c": "x", "m": []}], "bad coefficient 'x'"),
    ("function", [{"c": "1/0", "m": []}], "bad coefficient '1/0'"),
    ("function", [{"c": "1", "m": 5}], "each term's 'm' is a list of generators"),
    ("function", [{"c": "1", "m": [["u", 0]]}], "each generator is [name, order, exp]"),
    ("function", [{"c": "1", "m": [["w", 0, 1]]}], "unknown generator name 'w'"),
    (
        "function",
        [{"c": "1", "m": [["u", 0.5, 1]]}],
        "bad generator ['u', 0.5, 1]: order and exponent must be integers",
    ),
    ("function", [{"c": "1", "m": [["u", 0, -1]]}], "negative exponent on u^(0)"),
    ("vector", {}, "vector JSON must be a list of functions"),
    ("scalar_op", {}, "operator entry JSON must be a list of {'k', 'c'}"),
    ("scalar_op", [{"k": 0}], "each operator term needs 'k' and 'c'"),
    ("scalar_op", [{"k": "1", "c": [_ONE_TERM]}], "operator order must be an integer, got '1'"),
    ("scalar_op", [{"k": -1, "c": [_ONE_TERM]}], "operator order must be nonnegative"),
    ("operator", [], "operator JSON must be a nonempty matrix"),
    ("operator", {}, "operator JSON must be a nonempty matrix"),
    ("operator", [5], "each operator row is a list of entries"),
    ("operator", [[[]], [[], []]], "operator rows have unequal lengths"),
]


@pytest.mark.parametrize("reader, payload, message", JSON_REFUSALS)
def test_json_readers_refuse_each_malformed_payload(capsys, tmp_path, reader, payload, message):
    with pytest.raises(ExprSyntaxError) as info:
        getattr(render, f"{reader}_from_json")(payload)
    assert (str(info.value), info.value.line, info.value.col) == (message, None, None)
    # every reader but the vector's is reached from an --op file
    op = {
        "function": lambda p: [[[{"k": 0, "c": p}]]],
        "scalar_op": lambda p: [[p]],
        "operator": lambda p: p,
    }.get(reader)
    if op is not None:
        path = tmp_path / "op.json"
        path.write_text(json.dumps(op(payload)))
        code, out, err = _run(capsys, "verify-poisson", "--op", str(path))
        assert (code, out, err) == (4, "", f"SYNTAX_ERROR: {message}\n")


def test_high_jet_orders_decode_in_linear_time(capsys):
    # each decoder reads a monomial's packed fields once, through one view;
    # one shift of the whole monomial per field made fmt of these 200 terms
    # take seconds
    text = " + ".join(f"u^({n})*v^({n})" for n in range(3800, 4000))
    want = expr.parse(text)
    for flag in ((), ("--json",), ("--latex",)):
        t0 = time.perf_counter()
        code, out, err = _run(capsys, "fmt", *flag, text)
        assert time.perf_counter() - t0 < 1, flag
        assert (code, err) == (0, ""), flag
        if flag == ("--json",):
            assert render.function_from_json(json.loads(out)) == want
        elif not flag:
            assert expr.parse(out) == want
