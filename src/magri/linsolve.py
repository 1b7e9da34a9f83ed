"""Sparse exact linear solving over the rationals.

Columns are given as sparse dicts mapping opaque hashable row keys to
exact rationals (int or Fraction).  Internally every equation is scaled
to a primitive integer row (denominators cleared, content divided out)
and eliminated by integer cross-multiplication, so no rational
arithmetic happens until back substitution.  The particular solution
returned pins every free variable to zero, in the column order given by
the caller, making the answer deterministic.

Rows are eliminated in the order their keys first appear, and the
answer does not depend on that order.  A column is a pivot exactly when
it is not in the span of the columns before it, so the pivot columns
are the greedy column basis in the caller's column order, a set no row
order changes.  With the free unknowns zero, the values on the pivot
columns are the unique solution there.
"""

from __future__ import annotations

from math import gcd, lcm

from .diffalg import coeff_div


def solve(columns, rhs):
    """Solve sum_j x_j * columns[j] = rhs for x, or return None.

    ``columns`` is a sequence of dicts {row_key: int or Fraction};
    ``rhs`` is a dict of the same shape.  Returns a list of exact
    values, each an int when integral and otherwise a Fraction (free
    variables zero), or None when the system is inconsistent.
    """
    rows = {}
    for j, col in enumerate(columns):
        for key, val in col.items():
            if val:
                rows.setdefault(key, {})[j] = val
    for key, val in rhs.items():
        if val:
            rows.setdefault(key, {})[-1] = val

    pivots = {}  # col -> primitive integer row dict (includes -1 for rhs)
    for row in rows.values():
        row = _reduce(_primitive(row), pivots)
        lead = _leading(row)
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
            if c in (-1, lead):
                continue
            if xs[c]:
                acc -= v * xs[c]
        xs[lead] = coeff_div(acc, row[lead])

    # free variables are zero; verify (cheap relative to elimination)
    check = {}
    for j, x in enumerate(xs):
        if not x:
            continue
        for key, val in columns[j].items():
            s = check.get(key, 0) + x * val
            if s:
                check[key] = s
            else:
                check.pop(key, None)
    for key, val in rhs.items():
        if check.get(key, 0) != val:
            return None
        check.pop(key, None)
    if any(check.values()):
        return None
    return xs


def _primitive(row):
    """Clear denominators and divide out the content, keeping signs."""
    denom = 1
    for v in row.values():
        denom = lcm(denom, v.denominator)
    out = {c: int(v * denom) for c, v in row.items()}
    g = 0
    for v in out.values():
        g = gcd(g, v)
        if g == 1:
            return out
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out


def _leading(row):
    best = None
    for c in row:
        if c != -1 and (best is None or c < best):
            best = c
    return best


def _reduce(row, pivots):
    # pivot rows lead with their smallest column, so eliminating the
    # smallest eligible column only ever introduces columns to its right
    while True:
        cand = None
        for c in row:
            if c != -1 and c in pivots and (cand is None or c < cand):
                cand = c
        if cand is None:
            return row
        prow = pivots[cand]
        a = prow[cand]
        b = row[cand]
        out = {c: v * a for c, v in row.items()}
        for c, v in prow.items():
            s = out.get(c, 0) - b * v
            if s:
                out[c] = s
            else:
                out.pop(c, None)
        g = 0
        for v in out.values():
            g = gcd(g, v)
            if g == 1:
                break
        if g > 1:
            out = {c: v // g for c, v in out.items()}
        row = out
