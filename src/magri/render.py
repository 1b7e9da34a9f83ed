"""JSON and LaTeX output for functions, vectors, operators, and runs.

JSON shapes:
  function  [{"c": "p/q", "m": [["u", order, exp], ...]}, ...]
  vector    [function, ...]
  operator  [[entry, ...], ...] with entry = [{"k": order, "c": function}, ...]
  run       {"eps", "alpha", "steps", "method", "gradients", "densities",
             "flows", "orders", "flow_orders", "checks"}

The ``*_to_json`` functions build the trees that ``json`` takes, or,
given the identity as ``fun``, keep the functions themselves in them.
:func:`write_json`, the one writer of JSON text, writes such a payload
as ``json.dumps(..., indent=2)`` would, each function term by term.
"""

from __future__ import annotations

import json
import re

from . import diffalg as da
from . import diffop as dop
from .diffalg import DiffFunction, LOG_VAR, QQ, VAR_NAMES
from .errors import ExprSyntaxError, MagriError

_CODE = {name: code for code, name in enumerate(VAR_NAMES)}
_LONG_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def function_to_json(f):
    """The JSON tree of f, built from :func:`diffalg.text_terms`: the
    ``terms`` cache of f is left unfilled."""
    out = []
    for key, num, den in da.text_terms(f):
        it = iter(key)
        mono = [[VAR_NAMES[v], n, e] for v, n, e in zip(it, it, it)]
        out.append({"c": da.frac_text(num, den), "m": mono})
    return out


_encode_str = json.encoder.encode_basestring_ascii

# the text of a JSON leaf, by exact type
_LEAF = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _none: "null",
}


def _key(key):
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _encode_str(key) + ": "


def write_json(write, obj, indent=""):
    """Pass the text of json.dumps(obj, indent=2) to ``write`` piece by
    piece, for str, int, bool, None, lists, tuples and str-keyed dicts,
    with each DiffFunction f written as function_to_json(f) would be; any
    other type raises TypeError.  ``indent`` is the indent of the line
    obj starts on.  Each function is written by :func:`_write_function`,
    with no tree made, where json.dumps would run the json module's
    pure-Python encoder over one.
    """
    leaf = _LEAF.get(type(obj))
    if leaf is not None:
        write(leaf(obj))
    elif type(obj) is DiffFunction:
        _write_function(write, obj, indent)
    elif isinstance(obj, (list, tuple, dict)):
        if isinstance(obj, dict):
            ends, items = "{}", ((_key(k), item) for k, item in obj.items())
        else:
            ends, items = "[]", (("", item) for item in obj)
        if not obj:
            write(ends)
            return
        inner = indent + "  "
        sep = ends[0] + "\n" + inner
        for head, item in items:
            write(sep + head)
            sep = ",\n" + inner
            write_json(write, item, inner)
        write("\n" + indent + ends[1])
    elif isinstance(obj, str):  # subclasses of the leaf types; bool has none
        write(_encode_str(obj))
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_function(write, f, indent):
    """Pass the text json.dumps(function_to_json(f), indent=2) gives, laid
    out as a value nested at ``indent``, to ``write``: each term's text,
    with the separator before it, as soon as it is made.

    Written from :func:`diffalg.text_terms`, which decodes each packed
    monomial once and leaves the ``terms`` cache of f unfilled; each
    generator's text is looked up in a table local to this call.
    """
    if not f:
        write("[]")
        return
    i1 = indent + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    i4 = i3 + "  "
    head = "{\n" + i2 + '"c": "'
    empty_m = '",\n' + i2 + '"m": []\n' + i1 + "}"
    open_m = '",\n' + i2 + '"m": [\n' + i3
    close_m = "\n" + i2 + "]\n" + i1 + "}"
    gen_sep = ",\n" + i3
    gens = {}  # (var, order, exp) -> the text of [name, order, exp]
    sep = "[\n" + i1 + head
    comma = ",\n" + i1 + head
    for key, num, den in da.text_terms(f):
        c = da.frac_text(num, den)
        if key:
            texts = []
            it = iter(key)
            for gen in zip(it, it, it):
                text = gens.get(gen)
                if text is None:
                    var, order, exp = gen
                    text = gens[gen] = (
                        f'[\n{i4}"{VAR_NAMES[var]}",\n{i4}{order},\n{i4}{exp}\n{i3}]'
                    )
                texts.append(text)
            write(sep + c + open_m + gen_sep.join(texts) + close_m)
        else:
            write(sep + c + empty_m)
        sep = comma
    write("\n" + indent + "]")


def _bad(msg):
    raise ExprSyntaxError(msg, None, None)  # a JSON value has no text position


def _iter(data, msg):
    """An iterator over data; ExprSyntaxError(msg) when data is not iterable."""
    try:
        return iter(data)
    except TypeError:
        _bad(msg)


def _coeff(c):
    """The rational of a JSON coefficient, a str or an int."""
    try:
        return QQ(c)
    except ValueError:
        # Fraction reads digits with int, which refuses more than
        # sys.get_int_max_str_digits() of them
        match = _LONG_RATIONAL.fullmatch(c) if type(c) is str else None
        if match is None:
            raise
        num, den = match.groups()
        return QQ(da.text_int(num), da.text_int(den or "1"))


def function_from_json(data):
    if not isinstance(data, list):
        _bad("function JSON must be a list of terms")
    pairs = []
    for item in data:
        if not isinstance(item, dict) or "c" not in item or "m" not in item:
            _bad("each term needs 'c' and 'm'")
        c = item["c"]
        if type(c) not in (str, int):  # a float is not exact, a bool not a number
            _bad(f"bad coefficient {c!r}: a coefficient is a string or an integer")
        try:
            c = _coeff(c)
        except (ValueError, ZeroDivisionError):
            _bad(f"bad coefficient {c!r}")
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
    except MagriError as exc:  # a negative or out-of-range exponent
        _bad(str(exc))


def vector_to_json(vec):
    return [function_to_json(f) for f in vec]


def vector_from_json(data):
    if not isinstance(data, list):
        _bad("vector JSON must be a list of functions")
    return tuple(function_from_json(item) for item in data)


def scalar_op_to_json(op, fun=function_to_json):
    """The JSON form of op, each coefficient written by ``fun`` (as for
    :func:`run_to_json`)."""
    return [{"k": k, "c": fun(f)} for k, f in op.terms]


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


def operator_to_json(h, fun=function_to_json):
    """The JSON form of h, each coefficient written by ``fun`` (as for
    :func:`run_to_json`)."""
    return [[scalar_op_to_json(e, fun) for e in row] for row in dop.as_matrix(h).entries]


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


def run_to_json(run, fun=function_to_json):
    """The JSON form of a hierarchy run, each differential function written
    by ``fun``.  The command line passes the identity, keeping the
    functions themselves in the payload, and writes its text with
    :func:`write_json`; so this is the one place the run's keys are laid
    out."""
    return {
        "eps": run.eps,
        "alpha": run.alpha,
        "steps": run.steps,
        "method": run.method,
        "gradients": [[fun(f) for f in g] for g in run.gradients],
        "densities": [fun(h.rep) for h in run.densities],
        "flows": [[fun(f) for f in p] for p in run.flows],
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
        name = VAR_NAMES[var]
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


def _term_latex(key, num, den):
    """The LaTeX of the term num/den times the monomial of the flat key."""
    numer, denom = [], []
    it = iter(key)
    for var, order, exp in zip(it, it, it):
        if exp < 0:
            denom.append(_gen_latex(var, order, -exp))
        else:
            numer.append(_gen_latex(var, order, exp))
    p = -num if num < 0 else num
    if p != 1 or not numer:
        numer.insert(0, da.int_text(p))
    if den != 1:
        denom.insert(0, da.int_text(den))
    sign = "-" if num < 0 else ""
    num_s = " ".join(numer)
    if denom:
        return sign + rf"\frac{{{num_s}}}{{{' '.join(denom)}}}"
    return sign + num_s


def _latex_terms(f):
    """The LaTeX of a nonzero f."""
    parts = []
    for key, num, den in da.text_terms(f):
        t = _term_latex(key, num, den)
        if not parts:
            parts.append(t)
        elif num < 0:
            parts.append(" - " + t[1:])
        else:
            parts.append(" + " + t)
    return "".join(parts)


def latex(f):
    """Render a differential function (or a functional's representative)."""
    if isinstance(f, da.LocalFunctional):
        return rf"\textstyle\int {latex(f.rep)}\, dx"
    return _latex_terms(f) if f else "0"


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
            elif len(f) == 1:
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
    if len(f) > 1 or t.startswith("-"):
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
