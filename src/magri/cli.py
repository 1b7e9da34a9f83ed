"""Command line interface.

Exit codes: 0 success, 1 standard output was closed before everything
was written (as by ``magri hierarchy ... | head``), 2 a verification
failed, or argparse refused the command line, 3 no solution exists in
the searched space, 4 malformed input.

A one-shot query spends most of its time outside the ring, so the path
to the ring is kept short.  :func:`_parse_args` reads a command line
in plain forms (``--opt value``, ``--opt=value``, ``--flag`` and the
one positional word) off a table built once from the command's own
argparse actions, and hands every other form to argparse, which writes
every help text and usage error.  The expressions go through the
one-pass parser of :mod:`magri.expr`, and text, LaTeX and JSON are
written from the packed terms (:func:`magri.diffalg.text_terms`), with
no ``Fraction`` and no tuple monomials made on the way.

One formatter, :func:`_show`, writes the value of ``flow``, ``varder``,
``frechet`` and ``fmt`` (a function, a vector or an operator) as LaTeX,
JSON or text, as the command line asks; ``bracket``, ``reduce``,
``casimir-check`` and ``hierarchy`` lay out payloads of their own.
Every JSON text goes through :func:`magri.render.write_json`, which
writes each function one term at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import diffalg as da
from . import expr
from . import lenard
from . import pva
from . import render
from . import varcalc as vc
from .diffalg import DiffFunction
from .errors import (
    ExponentError,
    ExprSyntaxError,
    MagriError,
    NoSolution,
    NotClosed,
    NotSkewAdjoint,
)

OK, CLOSED, FAIL, NOSOL, BADINPUT = 0, 1, 2, 3, 4


def _same(f):
    return f


def _emit(args, payload):
    """Write payload, a str or a JSON payload as :func:`render.write_json`
    takes it, and a newline to the --out file or to standard output.  The
    JSON text goes out term by term as it is made: joined first, the text
    of a depth-4 hierarchy run would need as much memory again as the run."""
    out = getattr(args, "out", None)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        if isinstance(payload, str):
            fh.write(payload)
        else:
            render.write_json(fh.write, payload)
        fh.write("\n")


def _vector_text(vec):
    return "\n".join(f"[{i}] {da.to_text(f)}" for i, f in enumerate(vec, 1))


def _show(args, value):
    """Write value, a function, a vector of functions or an operator, as
    LaTeX, JSON or text, as the command line asks."""
    if isinstance(value, DiffFunction):
        latex, payload, text = render.latex, _same, da.to_text
    elif isinstance(value, tuple):
        latex, payload, text = render.latex_vector, _same, _vector_text
    else:
        latex, text = render.latex_operator, render.op_text
        payload = functools.partial(render.operator_to_json, fun=_same)
    _emit(args, latex(value) if args.latex else payload(value) if args.json else text(value))


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
            try:
                data = json.load(fh)
            except RecursionError:  # the json module reads nested arrays recursively
                raise MagriError("the operator JSON nests too deeply") from None
        return render.operator_from_json(data)
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
        return lenard.structure(0), lenard.structure(1)
    h = _load_operator(args.op, args.op_expr)
    k = _load_operator(args.op2, args.op2_expr, suffix="2")
    return h, k


# -- commands ---------------------------------------------------------------


def _verdict(name, check, *ops):
    """Print name, NOT_name or NOT_SKEW, as check(*ops) decides, and
    return the exit code."""
    try:
        ok = check(*ops)
    except NotSkewAdjoint:
        print("NOT_SKEW")
        return FAIL
    print(name if ok else "NOT_" + name)
    return OK if ok else FAIL


def cmd_verify_poisson(args):
    return _verdict("POISSON", pva.is_poisson, _one_structure(args))


def cmd_verify_compatible(args):
    return _verdict("COMPATIBLE", pva.is_compatible, *_two_structures(args))


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
    )
    # writing the run reads no derivatives
    values = [f for vec in run.gradients + run.flows for f in vec]
    da.drop_derivatives(values + [h.rep for h in run.densities])
    if args.latex:
        lines = []
        for n, grad in enumerate(run.gradients):
            lines.append(rf"\xi_{{{n}}} = {render.latex_vector(grad)}")
        for n, h in enumerate(run.densities):
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
    _show(args, pva.hamiltonian_flow(h, f))
    return OK


def cmd_reduce(args):
    f = expr.parse(args.expr)
    g = da.antiderivative(f)
    c = f.constant_term()
    payload = {
        "in_derivative_image": g is not None,
        "antiderivative": g,
        "euler_u": da.euler_derivative(f, da.U),
        "euler_v": da.euler_derivative(f, da.V),
        "constant_term": da.frac_text(c.numerator, c.denominator),
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
    _show(args, vc.variational_derivative(expr.parse(args.expr)))
    return OK


def cmd_frechet(args):
    _show(args, vc.frechet(expr.parse_vector(args.vec)))
    return OK


def cmd_fmt(args):
    _show(args, (expr.parse_operator if args.operator else expr.parse)(args.expr))
    return OK


class _Parser(argparse.ArgumentParser):
    """Gives ``--opt=--`` the value ``--``, as argparse does from Python
    3.13 on (earlier, it stores []); the sub-parsers are of this class too."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def build_parser():
    p = _Parser(
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


def _table(sub):
    """What :func:`_read` needs of the sub-parser ``sub``, from its own
    actions: {option string: action} of the options it reads (a store
    action, which takes one value, or a flag, which stores its const),
    its positional, its required actions and the Namespace defaults that
    parse_args starts from (no action here has a str default and a type,
    which parse_args would convert)."""
    options = {}
    defaults = {}
    for a in sub._actions:
        if type(a) is argparse._StoreAction or isinstance(a, argparse._StoreConstAction):
            options.update(dict.fromkeys(a.option_strings, a))
        if a.dest is not argparse.SUPPRESS and a.default is not argparse.SUPPRESS:
            defaults.setdefault(a.dest, a.default)
    for dest, value in sub._defaults.items():
        defaults.setdefault(dest, value)
    positional = next((a for a in sub._actions if not a.option_strings and a.nargs is None), None)
    required = [a for a in sub._actions if a.required]
    return sub, options, positional, required, defaults


@functools.cache
def _commands():
    """{command: :func:`_table` of its sub-parser}, of the shared parser."""
    parser = _shared_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: _table(sub) for name, sub in action.choices.items()}


def _read(table, words):
    """The Namespace that the sub-parser of ``table`` gives for ``words``,
    when each is in a plain form: ``--opt value``, ``--opt=value``,
    ``--flag``, or the one positional word, which may follow a final
    ``--``.  None for anything else, which argparse must answer: an
    abbreviated, unknown or repeated option, a separate value that starts
    with ``-``, a value the action's type or choices refuse,
    a missing required action, ``-h`` and left-over words."""
    _sub, options, positional, required, defaults = table
    got = {}
    i, n = 0, len(words)
    while i < n:
        word = words[i]
        i += 1
        if word == "--" and i == n - 1:
            action, text = positional, words[i]
            i += 1
        elif word[:1] != "-":
            action, text = positional, word
        else:
            action = options.get(word)
            if action is None:  # --opt=value, the one form left
                opt, eq, text = word.partition("=")
                action = options.get(opt) if eq else None
                if action is None or action.nargs == 0:
                    return None
            elif action.nargs != 0:  # --opt value
                if i == n or words[i][:1] == "-":
                    return None
                text = words[i]
                i += 1
        if action is None or action in got:
            return None
        if action.nargs == 0:
            got[action] = action.const
            continue
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        got[action] = value
    if any(a not in got for a in required):
        return None
    args = argparse.Namespace(**defaults)
    for action, value in got.items():
        setattr(args, action.dest, value)
    return args


def _parse_args(argv):
    """The Namespace that parse_args(argv) of the shared parser gives.

    When the first word names a command, :func:`_read` reads the rest
    against that command's table, which :func:`_commands` builds once
    from the sub-parser's own actions.  A command line it does not read
    goes to the command's sub-parser, as the top-level parser would hand
    it on, and the top-level parser runs only when words are left over,
    to report them as unrecognized arguments.  Help, a missing or unknown
    command and every other usage error come from the parser that gives
    them at the top level too, with the same text and exit code.  The
    sub-parser's parse took five times as long as the table's read, and
    the top-level parse twice as long again.
    """
    if argv is None:
        argv = sys.argv[1:]
    table = _commands().get(argv[0]) if argv else None
    if table is not None:
        args = _read(table, argv[1:])
        if args is None:
            args, rest = table[0].parse_known_args(argv[1:])
            if rest:
                return _shared_parser().parse_args(argv)
        args.command = argv[0]
        return args
    return _shared_parser().parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
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
    except NoSolution as exc:
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
