"""JSON and LaTeX output for functions, vectors, operators, and runs.

JSON shapes:
  function  [{"c": "p/q", "m": [["u", order, exp], ...]}, ...]
  vector    [function, ...]
  operator  [[entry, ...], ...] with entry = [{"k": order, "c": function}, ...]
  run       {"eps", "alpha", "steps", "method", "gradients", "densities",
             "flows", "orders", "flow_orders", "checks"}
"""

from __future__ import annotations

from fractions import Fraction

from . import diffalg as da
from . import diffop as dop
from .diffalg import DiffFunction, LOG_VAR, QQ, U, V
from .errors import ExprSyntaxError, MagriError

_NAME = {U: "u", V: "v", LOG_VAR: "log"}
_CODE = {"u": U, "v": V, "log": LOG_VAR}


def _frac_str(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def function_to_json(f):
    out = []
    for mono, c in f.terms:
        out.append(
            {"c": _frac_str(c), "m": [[_NAME[v], n, e] for v, n, e in mono]}
        )
    return out


def _bad(msg):
    raise ExprSyntaxError(msg)


def _iter(data, msg):
    """An iterator over data; ExprSyntaxError(msg) when data is not iterable."""
    try:
        return iter(data)
    except TypeError:
        _bad(msg)


def function_from_json(data):
    if not isinstance(data, list):
        _bad("function JSON must be a list of terms")
    pairs = []
    for item in data:
        if not isinstance(item, dict) or "c" not in item or "m" not in item:
            _bad("each term needs 'c' and 'm'")
        try:
            c = QQ(str(item["c"]))
        except (ValueError, ZeroDivisionError):
            _bad(f"bad coefficient {item['c']!r}")
        mono = []
        for g in _iter(item["m"], "each term's 'm' is a list of generators"):
            if not isinstance(g, (list, tuple)) or len(g) != 3:
                _bad("each generator is [name, order, exp]")
            name, order, exp = g
            if name not in _CODE:
                _bad(f"unknown generator name {name!r}")
            if type(order) is not int or type(exp) is not int:
                _bad(f"bad generator {g!r}: order and exponent must be integers")
            mono.append((_CODE[name], order, exp))
        pairs.append((c, tuple(mono)))
    try:
        return da.normalize(pairs)
    except MagriError as exc:
        if isinstance(exc, ExprSyntaxError):
            raise
        _bad(str(exc))


def vector_to_json(vec):
    return [function_to_json(f) for f in vec]


def vector_from_json(data):
    if not isinstance(data, list):
        _bad("vector JSON must be a list of functions")
    return tuple(function_from_json(item) for item in data)


def scalar_op_to_json(op):
    return [{"k": k, "c": function_to_json(f)} for k, f in op.terms]


def scalar_op_from_json(data):
    if not isinstance(data, list):
        _bad("operator entry JSON must be a list of {'k', 'c'}")
    pieces = []
    for item in data:
        if not isinstance(item, dict) or "k" not in item or "c" not in item:
            _bad("each operator term needs 'k' and 'c'")
        k = item["k"]
        if type(k) is not int:
            _bad(f"operator order must be an integer, got {k!r}")
        if k < 0:
            _bad("operator order must be nonnegative")
        pieces.append((k, function_from_json(item["c"])))
    return dop.ScalarDiffOp(pieces)


def operator_to_json(h):
    if isinstance(h, dop.ScalarDiffOp):
        h = dop.MatrixDiffOp([[h]])
    return [[scalar_op_to_json(e) for e in row] for row in h.entries]


def operator_from_json(data):
    if not isinstance(data, list) or not data:
        _bad("operator JSON must be a nonempty matrix")
    rows = [
        [scalar_op_from_json(e) for e in _iter(row, "each operator row is a list of entries")]
        for row in data
    ]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        _bad("operator rows have unequal lengths")
    return dop.MatrixDiffOp(rows)


def run_to_json(run):
    return {
        "eps": run.eps,
        "alpha": run.alpha,
        "steps": run.steps,
        "method": run.method,
        "gradients": [vector_to_json(g) for g in run.gradients],
        "densities": [
            None if h is None else function_to_json(h.rep) for h in run.densities
        ],
        "flows": [vector_to_json(p) for p in run.flows],
        "orders": [list(pair) for pair in run.orders],
        "flow_orders": list(run.flow_orders),
        "checks": dict(run.checks),
    }


# -- LaTeX ----------------------------------------------------------------


def _sup(n):
    s = str(n)
    return s if len(s) == 1 else f"{{{s}}}"


def _gen_latex(var, order, exp):
    if var == LOG_VAR:
        base, atomic = r"\log v", False
    else:
        name = _NAME[var]
        if order == 0:
            base, atomic = name, True
        elif order <= 2:
            base, atomic = name + "'" * order, False
        else:
            base, atomic = f"{name}^{{({order})}}", False
    if exp == 1:
        return base
    if atomic:
        return f"{base}^{_sup(exp)}"
    if var == LOG_VAR:
        return rf"(\log v)^{_sup(exp)}"
    return f"({base})^{_sup(exp)}"


def _term_latex(mono, c):
    num, den = [], []
    for var, order, exp in mono:
        if exp < 0:
            den.append(_gen_latex(var, order, -exp))
        else:
            num.append(_gen_latex(var, order, exp))
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
    """Render a differential function (or a functional's representative)."""
    if isinstance(f, da.LocalFunctional):
        return rf"\textstyle\int {latex(f.rep)}\, dx"
    if not f.terms:
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


def latex_vector(vec):
    inner = r" \\ ".join(latex(f) for f in vec)
    return rf"\begin{{pmatrix}} {inner} \end{{pmatrix}}"


def _scalar_op_latex(op):
    if not op.terms:
        return "0"
    parts = []
    for k, f in op.terms:
        if k == 0:
            t = latex(f)
        else:
            d = r"\partial" if k == 1 else rf"\partial^{_sup(k)}"
            if f == da.ONE:
                t = d
            elif len(f.terms) == 1:
                ft = latex(f)
                t = d if ft == "1" else ft + r"\, " + d
            else:
                t = rf"\left({latex(f)}\right) " + d
        if parts and not t.startswith("-"):
            parts.append(" + " + t)
        elif parts:
            parts.append(" - " + t[1:])
        else:
            parts.append(t)
    return "".join(parts)


def latex_operator(h):
    if isinstance(h, dop.ScalarDiffOp):
        return _scalar_op_latex(h)
    inner = r" \\ ".join(
        " & ".join(_scalar_op_latex(e) for e in row) for row in h.entries
    )
    return rf"\begin{{pmatrix}} {inner} \end{{pmatrix}}"


# -- plain text for operators ---------------------------------------------


def _coeff_text(f):
    t = da.to_text(f)
    if len(f.terms) > 1 or t.startswith("-"):
        return f"({t})"
    return t


def op_text(op):
    """Operator to the same text grammar the parser accepts."""
    if isinstance(op, dop.MatrixDiffOp):
        return "; ".join(", ".join(op_text(e) for e in row) for row in op.entries)
    if not op.terms:
        return "0"
    parts = []
    for k, f in op.terms:
        if k == 0:
            t = da.to_text(f)
            if t.startswith("-") and parts:
                t = f"({t})"
        else:
            d = "d" if k == 1 else f"d^{k}"
            t = d if f == da.ONE else f"{_coeff_text(f)}*{d}"
        parts.append(t)
    return " + ".join(parts)
