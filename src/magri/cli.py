"""Command line interface.

Exit codes: 0 success, 1 standard output was closed before everything
was written (as by ``magri hierarchy ... | head``), 2 a verification
failed, 3 no solution exists in the searched space, 4 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import diffalg as da
from . import diffop as dop
from . import expr
from . import lenard
from . import pva
from . import render
from . import varcalc as vc
from .diffalg import DiffFunction
from .errors import (
    EmptyAnsatz,
    ExponentError,
    ExprSyntaxError,
    MagriError,
    NoSolution,
    NotClosed,
    NotSkewAdjoint,
)

OK, CLOSED, FAIL, NOSOL, BADINPUT = 0, 1, 2, 3, 4


_encode_str = json.encoder.encode_basestring_ascii

# the text of a JSON leaf, by exact type
_LEAF = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _none: "null",
}


def _same(f):
    return f


def _json_into(out, obj, indent):
    """Append the text of obj, laid out as json.dumps(obj, indent=2) does;
    a DiffFunction is written as json.dumps would write its
    render.function_to_json form."""
    leaf = _LEAF.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
    elif type(obj) is DiffFunction:
        out.append(render.function_json_text(obj, indent))
    elif isinstance(obj, (list, tuple, dict)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        get = _LEAF.get
        inner = indent + "  "
        comma = ",\n" + inner
        if isinstance(obj, dict):
            sep = "{\n" + inner
            for key, item in obj.items():
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                out.append(sep + _encode_str(key) + ": ")
                sep = comma
                leaf = get(type(item))
                if leaf is None:
                    _json_into(out, item, inner)
                else:
                    out.append(leaf(item))
            out.append("\n" + indent + "}")
        else:
            sep = "[\n" + inner
            for item in obj:
                out.append(sep)
                sep = comma
                leaf = get(type(item))
                if leaf is None:
                    _json_into(out, item, inner)
                else:
                    out.append(leaf(item))
            out.append("\n" + indent + "]")
    elif isinstance(obj, str):  # subclasses of the leaf types; bool has none
        out.append(_encode_str(obj))
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_text(payload):
    """json.dumps(payload, indent=2), for str, int, bool, None, lists, tuples and
    str-keyed dicts, with each DiffFunction f written as its
    render.function_to_json(f) would be; any other type raises TypeError.

    Given an indent, json.dumps runs the json module's pure-Python
    encoder over a tree of dicts and lists.  The payloads of the commands
    carry their functions themselves instead, and each function's text
    comes from render.function_json_text, written from its packed terms
    with no intermediate tree.
    """
    out = []
    _json_into(out, payload, "")
    return "".join(out)


def _emit(args, payload):
    text = payload if isinstance(payload, str) else _json_text(payload)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _add_structure_args(p, count=1):
    if count == 1:
        p.add_argument("--builtin", choices=("h0", "h1"), help="built-in structure")
        p.add_argument("--op", metavar="FILE", help="operator JSON file")
        p.add_argument("--op-expr", metavar="TEXT", help="operator in text form")
    else:
        p.add_argument(
            "--builtin",
            action="store_true",
            help="use the built-in pair of structures",
        )
        for suffix in ("", "2"):
            p.add_argument(f"--op{suffix}", metavar="FILE")
            p.add_argument(f"--op{suffix}-expr", metavar="TEXT")


def _load_operator(file_arg, expr_arg, builtin_arg=None, suffix=""):
    if builtin_arg:
        return lenard.structure(0 if builtin_arg == "h0" else 1)
    if file_arg:
        with open(file_arg) as fh:
            return render.operator_from_json(json.load(fh))
    if expr_arg:
        return expr.parse_operator(expr_arg)
    # a missing argument has no text position
    raise ExprSyntaxError(
        f"no operator given (use --builtin, --op{suffix}, or --op{suffix}-expr)", None, None
    )


def _one_structure(args):
    return _load_operator(args.op, args.op_expr, args.builtin)


def _two_structures(args):
    if args.builtin:
        return dop.builtin_pair()
    h = _load_operator(args.op, args.op_expr)
    k = _load_operator(args.op2, args.op2_expr, suffix="2")
    return h, k


# -- commands ---------------------------------------------------------------


def cmd_verify_poisson(args):
    h = _one_structure(args)
    try:
        ok = pva.is_poisson(h)
    except NotSkewAdjoint:
        print("NOT_SKEW")
        return FAIL
    print("POISSON" if ok else "NOT_POISSON")
    return OK if ok else FAIL


def cmd_verify_compatible(args):
    h, k = _two_structures(args)
    try:
        ok = pva.is_compatible(h, k)
    except NotSkewAdjoint:
        print("NOT_SKEW")
        return FAIL
    print("COMPATIBLE" if ok else "NOT_COMPATIBLE")
    return OK if ok else FAIL


def cmd_casimir_check(args):
    results = {}
    ok = True
    for eps in (0, 1):
        for alpha in (0, 1):
            label = f"eps={eps},alpha={alpha}"
            try:
                s = lenard.seed(eps, alpha)
            except MagriError as exc:
                results[label] = f"FAIL ({exc})"
                ok = False
                continue
            results[label] = "OK"
            del s
    if args.json:
        _emit(args, {"ok": ok, "seeds": results})
    else:
        for label, verdict in results.items():
            print(f"{label}: {verdict}")
        print("CASIMIR_CHECK " + ("PASSED" if ok else "FAILED"))
    return OK if ok else FAIL


def cmd_hierarchy(args):
    run = lenard.run_hierarchy(
        args.eps,
        args.alpha,
        args.steps,
        method=args.method,
        with_densities=not args.no_densities,
        widen_cap=args.widen_cap,
    )
    if args.latex:
        lines = []
        for n, grad in enumerate(run.gradients):
            lines.append(rf"\xi_{{{n}}} = {render.latex_vector(grad)}")
        for n, h in enumerate(run.densities):
            if h is not None:
                lines.append(rf"h_{{{n}}} = {render.latex(h)}")
        for n, p in enumerate(run.flows):
            lines.append(rf"P_{{{n}}} = {render.latex_vector(p)}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, render.run_to_json(run, _same))
    bad = [k for k, v in run.checks.items() if v is not True]
    if bad:
        print("failed checks: " + ", ".join(sorted(bad)), file=sys.stderr)
        return FAIL
    return OK


def cmd_bracket(args):
    h = _one_structure(args)
    f = da.LocalFunctional(expr.parse(args.f))
    g = da.LocalFunctional(expr.parse(args.g))
    b = pva.poisson_bracket(f, g, h)
    zero = b.is_zero()
    if args.latex:
        _emit(args, "0" if zero else render.latex(b))
    elif args.json:
        _emit(args, {"zero": zero, "representative": b.rep})
    else:
        print("0" if zero else da.to_text(b.rep))
    return OK


def cmd_flow(args):
    h = _one_structure(args)
    f = da.LocalFunctional(expr.parse(args.density))
    p = pva.hamiltonian_flow(h, f)
    if args.latex:
        _emit(args, render.latex_vector(p))
    elif args.json:
        _emit(args, p)
    else:
        for i, comp in enumerate(p):
            print(f"[{i + 1}] {da.to_text(comp)}")
    return OK


def cmd_reduce(args):
    f = expr.parse(args.expr)
    g = da.antiderivative(f)
    payload = {
        "in_derivative_image": g is not None,
        "antiderivative": g,
        "euler_u": da.euler_derivative(f, da.U),
        "euler_v": da.euler_derivative(f, da.V),
        "constant_term": render._frac_str(f.constant_term()),
    }
    if args.json:
        _emit(args, payload)
    elif g is not None:
        print(f"exact: {da.to_text(g)}")
    else:
        print("not exact")
        print(f"euler_u: {da.to_text(payload['euler_u'])}")
        print(f"euler_v: {da.to_text(payload['euler_v'])}")
    return OK


def cmd_varder(args):
    f = expr.parse(args.expr)
    grad = vc.variational_derivative(f)
    if args.latex:
        _emit(args, render.latex_vector(grad))
    elif args.json:
        _emit(args, grad)
    else:
        for i, comp in enumerate(grad):
            print(f"[{i + 1}] {da.to_text(comp)}")
    return OK


def cmd_frechet(args):
    vec = expr.parse_vector(args.vec)
    m = vc.frechet(vec)
    if args.latex:
        _emit(args, render.latex_operator(m))
    elif args.json:
        _emit(args, render.operator_to_json(m, _same))
    else:
        print(render.op_text(m))
    return OK


def cmd_fmt(args):
    if args.operator:
        val = expr.parse_operator(args.expr)
        if args.latex:
            _emit(args, render.latex_operator(val))
        elif args.json:
            _emit(args, render.operator_to_json(val, _same))
        else:
            print(render.op_text(val))
    else:
        val = expr.parse(args.expr)
        if args.latex:
            _emit(args, render.latex(val))
        elif args.json:
            _emit(args, val)
        else:
            print(da.to_text(val))
    return OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="magri",
        description="Exact calculus for Hamiltonian operators on two-field "
        "differential polynomials, with Lenard-Magri hierarchy generation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-poisson", help="check the Jacobi identity")
    _add_structure_args(sp)
    sp.set_defaults(fn=cmd_verify_poisson)

    sp = sub.add_parser("verify-compatible", help="check a pair forms a pencil")
    _add_structure_args(sp, count=2)
    sp.set_defaults(fn=cmd_verify_compatible)

    sp = sub.add_parser("casimir-check", help="verify the built-in seed Casimirs")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_casimir_check)

    sp = sub.add_parser("hierarchy", help="run a Lenard-Magri chain")
    sp.add_argument("--eps", type=int, choices=(0, 1), required=True)
    sp.add_argument("--alpha", type=int, choices=(0, 1), required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--method", choices=("recursion", "ansatz"), default="recursion")
    sp.add_argument("--no-densities", action="store_true")
    sp.add_argument(
        "--widen-cap",
        type=int,
        default=None,
        help="ansatz widening rounds (default from LENARD_WIDEN_CAP, else 2)",
    )
    sp.add_argument("--latex", action="store_true")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(fn=cmd_hierarchy)

    sp = sub.add_parser("bracket", help="Poisson bracket of two functionals")
    sp.add_argument("--f", required=True, metavar="EXPR")
    sp.add_argument("--g", required=True, metavar="EXPR")
    _add_structure_args(sp)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--latex", action="store_true")
    sp.set_defaults(fn=cmd_bracket)

    sp = sub.add_parser("flow", help="Hamiltonian flow of a density")
    sp.add_argument("--density", required=True, metavar="EXPR")
    _add_structure_args(sp)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--latex", action="store_true")
    sp.set_defaults(fn=cmd_flow)

    sp = sub.add_parser("reduce", help="antiderivative / image-of-d test")
    sp.add_argument("expr", metavar="EXPR")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_reduce)

    sp = sub.add_parser("varder", help="variational derivative of a density")
    sp.add_argument("expr", metavar="EXPR")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--latex", action="store_true")
    sp.set_defaults(fn=cmd_varder)

    sp = sub.add_parser("frechet", help="Frechet derivative of a vector")
    sp.add_argument("--vec", required=True, metavar="'EXPR; EXPR'")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--latex", action="store_true")
    sp.set_defaults(fn=cmd_frechet)

    sp = sub.add_parser("fmt", help="parse and reprint an expression")
    sp.add_argument("expr", metavar="EXPR")
    sp.add_argument("--operator", action="store_true", help="parse as an operator")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--latex", action="store_true")
    sp.set_defaults(fn=cmd_fmt)

    return p


@functools.cache
def _shared_parser():
    # parse_args leaves the parser unchanged, so one serves every call;
    # building it costs about as much as a small query.
    return build_parser()


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: what is left goes to devnull, as the signal
        # module's documentation advises, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED
    except ExprSyntaxError as exc:
        kind = "EXPONENT_ERROR" if isinstance(exc, ExponentError) else "SYNTAX_ERROR"
        at = "" if exc.line is None else f" at {exc.line}:{exc.col}"
        print(f"{kind}{at}: {exc.message}", file=sys.stderr)
        return BADINPUT
    except (NoSolution, EmptyAnsatz) as exc:
        print(f"NO_SOLUTION: {exc}", file=sys.stderr)
        return NOSOL
    except NotClosed as exc:
        print(f"NOT_CLOSED: {exc}", file=sys.stderr)
        return FAIL
    except (json.JSONDecodeError, OSError, MagriError, ValueError) as exc:
        print(f"INPUT_ERROR: {exc}", file=sys.stderr)
        return BADINPUT


if __name__ == "__main__":
    sys.exit(main())
