"""Random generators shared across the test modules."""

from __future__ import annotations

import random

from magri import diffalg as da
from magri.diffalg import LOG_VAR, QQ, U, V


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
