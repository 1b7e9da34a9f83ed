"""Random generators and reference implementations shared across the test modules."""

from __future__ import annotations

import random
import sys
from math import gcd, lcm

from magri import diffalg as da
from magri.diffalg import LOG_VAR, QQ, U, V


def fresh_dx_memo(monkeypatch):
    """Give the derivative memo of diffalg, its pair table and its byte
    count fresh empty values for the rest of one test."""
    monkeypatch.setattr(da, "_DX_MONO", {})
    monkeypatch.setattr(da, "_DX_PAIRS", {})
    monkeypatch.setattr(da, "_dx_bytes", 0)


def dx_memo_bytes():
    """The bytes of the derivative memo's entries, as diffalg.MEMO_CAP counts them."""
    return sum(sys.getsizeof(m) + da._DX_ENTRY for m in da._DX_MONO)


def rand_coeff(rng, num=9, den=4):
    c = QQ(rng.randint(-num, num), rng.randint(1, den))
    return c if c else QQ(1)


def rand_monomial(rng, max_order=3, max_exp=3, v_neg=True, log_ok=True, factors=3):
    mono = []
    for _ in range(rng.randint(0, factors)):
        var = rng.choice((U, V))
        mono.append((var, rng.randint(0, max_order), rng.randint(1, max_exp)))
    if v_neg and rng.random() < 0.4:
        mono.append((V, 0, rng.randint(-4, -1)))
    if log_ok and rng.random() < 0.25:
        mono.append((LOG_VAR, 0, rng.randint(1, 2)))
    return tuple(mono)


def rand_pairs(rng, terms=3, max_order=3, max_exp=3, v_neg=True, log_ok=True):
    """The raw (coefficient, monomial) pairs behind :func:`rand_function`:
    rational coefficients, monomials with repeated generators allowed."""
    return [
        (rand_coeff(rng), rand_monomial(rng, max_order, max_exp, v_neg, log_ok))
        for _ in range(rng.randint(1, terms))
    ]


def rand_function(rng, terms=3, max_order=3, max_exp=3, v_neg=True, log_ok=True):
    f = da.normalize(rand_pairs(rng, terms, max_order, max_exp, v_neg, log_ok))
    return f if f else da.u_jet(0)


def rand_polynomial(rng, terms=3, max_order=3, max_exp=3):
    """An element of the v-nonnegative polynomial part."""
    return rand_function(rng, terms, max_order, max_exp, v_neg=False, log_ok=False)


def rand_scaled_minus(rng, k, terms=3, max_order=3, max_exp=2):
    """An element of v^-k times the nonpositive-v part."""
    pairs = []
    for _ in range(rng.randint(1, terms)):
        mono = []
        for _ in range(rng.randint(0, 2)):
            var = rng.choice((U, V))
            lo = 1 if var == V else 0  # no positive v powers, jets are fine
            mono.append((var, rng.randint(lo, max_order), rng.randint(1, max_exp)))
        mono.append((V, 0, -k - rng.randint(0, 3)))
        pairs.append((rand_coeff(rng), tuple(mono)))
    f = da.normalize(pairs)
    return f if f else da.v_pow(-k)


def rand_vector(rng, **kw):
    return (rand_function(rng, **kw), rand_function(rng, **kw))


def rand_scalar_op(rng, max_deg=3, **kw):
    from magri import diffop as dop

    pieces = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, max_deg)
        pieces[k] = pieces.get(k, da.ZERO) + rand_function(rng, **kw)
    return dop.ScalarDiffOp.from_dict(pieces)


def rand_matrix_op(rng, n=2, **kw):
    from magri import diffop as dop

    return dop.MatrixDiffOp(
        [[rand_scalar_op(rng, **kw) for _ in range(n)] for _ in range(n)]
    )


# -- the linear solver on sparse dicts, as it was before it took ring values --


def dict_solve(columns, rhs):
    """Solve sum_j x_j * columns[j] = rhs, or return None; the columns and
    the right side are dicts {row key: int or Fraction}.  Free unknowns are
    zero, and each value is an int when integral, else a Fraction."""
    rows = {}
    for j, col in enumerate(columns):
        for key, val in col.items():
            if val:
                rows.setdefault(key, {})[j] = val
    for key, val in rhs.items():
        if val:
            rows.setdefault(key, {})[-1] = val
    pivots = {}
    for row in rows.values():
        row = _ref_reduce(_ref_primitive(row), pivots)
        lead = min((c for c in row if c != -1), default=None)
        if lead is None:
            if row.get(-1):
                return None
            continue
        pivots[lead] = row
    xs = [0] * len(columns)
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        acc = row.get(-1, 0)
        for c, v in row.items():
            if c not in (-1, lead) and xs[c]:
                acc -= v * xs[c]
        xs[lead] = da.coeff_div(acc, row[lead])
    check = {}
    for x, col in zip(xs, columns):
        for key, val in col.items():
            check[key] = check.get(key, 0) + x * val
    for key in set(check) | set(rhs):
        if check.get(key, 0) != rhs.get(key, 0):
            return None
    return xs


def _ref_primitive(row):
    den = lcm(*[QQ(v).denominator for v in row.values()])
    out = {c: int(v * den) for c, v in row.items()}
    g = gcd(*out.values())
    return {c: v // g for c, v in out.items()} if g > 1 else out


def _ref_reduce(row, pivots):
    while True:
        cand = min((c for c in row if c != -1 and c in pivots), default=None)
        if cand is None:
            return row
        prow = pivots[cand]
        a, b = prow[cand], row[cand]
        out = {c: v * a for c, v in row.items()}
        for c, v in prow.items():
            out[c] = out.get(c, 0) - b * v
        row = _ref_primitive({c: v for c, v in out.items() if v})
