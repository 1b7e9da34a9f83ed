"""Command line behavior: exit codes, round trips, output formats."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from magri import cli, expr, lenard, pva, render
from magri import diffalg as da
from magri import diffop as dop
from magri import varcalc as vc
from magri.errors import ExponentError, ExponentOverflow, ExprSyntaxError, NoSolution


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


def test_parser_fuzz_raises_only_syntax_errors():
    rng = random.Random(23)
    alphabet = "uvd'()^*/+- 0123456789;,.logx\n"
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 24)))
        try:
            expr.parse(text)
        except ExprSyntaxError:
            pass


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


def test_negative_widen_cap_exits_four(capsys):
    code, out, err = _run(
        capsys, "hierarchy", "--eps", "0", "--alpha", "1", "--steps", "1", "--widen-cap", "-1"
    )
    assert code == 4
    assert out == ""
    assert err.startswith("INPUT_ERROR") and "widen_cap" in err


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


def test_bad_widen_cap_env_exits_four(capsys, monkeypatch):
    for raw in ("-3", "2.5"):
        monkeypatch.setenv("LENARD_WIDEN_CAP", raw)
        code, out, err = _run(capsys, "hierarchy", "--eps", "1", "--alpha", "0", "--steps", "1")
        assert code == 4, raw
        assert out == ""
        assert err.startswith("INPUT_ERROR") and "LENARD_WIDEN_CAP" in err


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


def test_depth3_eps0_chain_keeps_its_checks_and_order_law():
    # the v-only solver differentiates only the candidates of the blocks it
    # solves; differentiating all of them made this chain take minutes
    run = lenard.run_hierarchy(0, 0, 3)
    assert run.checks == {"memberships": True, "densities": True, "casimir_pairing": True}
    assert [run.orders[n] for n in (1, 2, 3)] == [(6 * n - 2, 6 * n) for n in (1, 2, 3)]
    assert run.flow_orders == [6 * n + 5 for n in range(4)]
    out = cli._json_text(render.run_to_json(run)) + "\n"  # what `magri hierarchy` prints
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
    assert cli._json_text(payload) == json.dumps(payload, indent=2)


def test_json_writer_rejects_other_types():
    for bad in (1.5, da.QQ(1, 2), {1, 2}, b"x", object(), {1: "a"}, ["a", [None, 2.0]]):
        with pytest.raises(TypeError):
            cli._json_text(bad)


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
            assert render.function_json_text(f, indent) == text.replace("\n", "\n" + indent)
    # the payload shapes of the commands: a function, a vector, an operator
    # and a run, with the functions themselves in them
    for f, g in zip(fs, fs[1:] + fs[:1]):
        assert cli._json_text(f) == json.dumps(render.function_to_json(f), indent=2)
        vec = (f, g)
        assert cli._json_text(vec) == json.dumps(render.vector_to_json(vec), indent=2)
        op = dop.MatrixDiffOp([[dop.ScalarDiffOp([(0, f), (2, g)]), dop.ScalarDiffOp([(1, g)])]])
        assert cli._json_text(render.operator_to_json(op, cli._same)) == json.dumps(
            render.operator_to_json(op), indent=2
        )
    run = lenard.run_hierarchy(1, 1, 2)
    assert cli._json_text(render.run_to_json(run, cli._same)) == json.dumps(
        render.run_to_json(run), indent=2
    )


def test_function_text_writer_leaves_the_terms_cache_empty():
    rng = random.Random(7)
    for f in _writer_functions(rng):
        render.function_json_text(f, "  ")
        cli._json_text({"f": [f]})
        assert f._terms is None


def test_hierarchy_json_equals_the_json_module_text(capsys, tmp_path):
    argv = ["hierarchy", "--eps", "1", "--alpha", "1", "--steps", "2"]
    want = json.dumps(render.run_to_json(lenard.run_hierarchy(1, 1, 2)), indent=2) + "\n"
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (0, want, "")
    path = tmp_path / "chain.json"
    code, out, err = _run(capsys, *argv, "--out", str(path))
    assert (code, out, err) == (0, "", "")
    assert path.read_bytes() == want.encode()


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
        "varder": ["varder", e],
        "frechet": ["frechet", f"--vec={e}; {g}"],
        "reduce": ["reduce", e],
        "bracket": ["bracket", f"--f={e}", f"--g={g}", "--builtin", "h1"],
        "flow": ["flow", f"--density={e}", "--builtin", "h0"],
    }[command]


# SHA-256 over the exit codes and stdout of each command and output form,
# run on every input of PINNED_EXPRS (the second operand is the next input);
# `reduce` has no LaTeX form.
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
