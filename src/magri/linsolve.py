"""Sparse exact linear solving over the rationals, on ring values.

A column is a vector of DiffFunctions, and so is the right side.  Each
vector is scaled to integers by the lcm of its components'
denominators, and its numerators become integer entries keyed by
(component, packed monomial): the rows are integral from the start,
with no rational arithmetic and no decoding of monomials.  Each row is
made primitive (content divided out) and eliminated by integer
cross-multiplication; rational numbers appear only in back
substitution, and each unknown of the scaled system is mapped back to
the caller's column by one :func:`~magri.diffalg.coeff_div`.  The
particular solution returned pins every free variable to zero, in the
column order given by the caller, making the answer deterministic.

Rows are eliminated in the order their keys first appear, and the
answer depends neither on that order nor on the scaling.  A column is
a pivot exactly when it is not in the span of the columns before it,
so the pivot columns are the greedy column basis in the caller's
column order, a set that no row order and no nonzero scaling of a row
or a column changes.  With the free unknowns zero, the values on the
pivot columns are the unique solution there, so the xs are the ones
any exact elimination gives.
"""

from __future__ import annotations

from math import gcd

from .diffalg import (
    Accumulator,
    DiffFunction,
    add_into,
    coeff_div,
    denominator,
    integral_terms,
)


def solve(columns, rhs):
    """Solve sum_j x_j * columns[j] = rhs for x, or return None.

    ``columns`` is a sequence of vectors of DiffFunctions and ``rhs`` a
    vector of the same length.  Returns a list of exact values, each an
    int when integral and otherwise a Fraction (free variables zero), or
    None when the system is inconsistent.
    """
    rows = {}
    dens = [_add_column(rows, col, j) for j, col in enumerate(columns)]
    rhs_den = _add_column(rows, rhs, -1)

    pivots = {}  # col -> primitive integer row dict (includes -1 for rhs)
    for row in rows.values():
        row = _reduce(_primitive(row), pivots)
        lead = _leading(row)
        if lead is None:
            if row.get(-1):
                return None
            continue
        pivots[lead] = row

    # the unknowns y of the scaled system: sum_j y_j * dens[j] * columns[j]
    # = rhs_den * rhs, so x_j = y_j * dens[j] / rhs_den
    ys = [0] * len(columns)
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        acc = row.get(-1, 0)
        for c, v in row.items():
            if c in (-1, lead):
                continue
            if ys[c]:
                acc -= v * ys[c]
        ys[lead] = coeff_div(acc, row[lead])
    xs = [coeff_div(y * d, rhs_den) for y, d in zip(ys, dens)]

    # free variables are zero; verify (cheap relative to elimination)
    for i, b in enumerate(rhs):
        acc = Accumulator()
        for x, col in zip(xs, columns):
            if x:
                add_into(acc, col[i], x)
        if DiffFunction.from_acc(acc) != b:
            return None
    return xs


def _add_column(rows, vec, j):
    """Enter den * vec as column j of ``rows``, den the lcm of the
    denominators of its components; returns den."""
    den = denominator(vec)
    for i, f in enumerate(vec):
        for m, c in integral_terms(f, den):
            rows.setdefault((i, m), {})[j] = c
    return den


def _primitive(row):
    """Divide out the content of an integer row, keeping signs."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()} if g > 1 else row


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
        row = _primitive(out)
