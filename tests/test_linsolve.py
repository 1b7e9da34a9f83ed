"""Exact sparse linear solving on ring values."""

from __future__ import annotations

import random

import helpers
from magri import diffalg as da
from magri import linsolve
from magri import varcalc as vc
from magri.diffalg import QQ, V


def test_solutions_are_int_or_proper_fraction():
    r, s = da.u_jet(0), da.v_jet(1)  # two row keys
    xs = linsolve.solve([(2 * r,)], (r,))
    assert xs == [QQ(1, 2)] and type(xs[0]) is QQ
    xs = linsolve.solve([(2 * r + s,), (3 * s,)], (4 * r + 5 * s,))
    assert xs == [2, 1] and all(type(x) is int for x in xs)
    assert linsolve.solve([(r * QQ(3, 2),)], (r,)) == [QQ(2, 3)]
    assert linsolve.solve([(2 * r,), (4 * r,)], (s,)) is None
    # the component is part of the row key
    assert linsolve.solve([(r, da.ZERO), (da.ZERO, r)], (da.ZERO, 3 * r)) == [0, 3]
    assert linsolve.solve([(r, da.ZERO)], (da.ZERO, r)) is None
    assert linsolve.solve([], (r,)) is None


def test_solution_does_not_depend_on_row_order():
    # each row key is a component of constants, so permuting the components
    # of every column and of the right side permutes the rows
    rng = random.Random(131)
    solved = failed = 0
    for _ in range(200):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)

        def entry():
            return QQ(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else 0

        columns = [[entry() for _ in range(n_rows)] for _ in range(n_cols)]
        # a dependent column now and then, so some unknowns are free
        if n_cols > 1 and rng.random() < 0.5:
            a, b = rng.sample(range(n_cols), 2)
            columns[b] = [2 * v for v in columns[a]]
        x0 = [rng.randint(-2, 2) for _ in columns]
        rhs = [sum(x * col[i] for x, col in zip(x0, columns)) for i in range(n_rows)]
        if rng.random() < 0.3:  # likely inconsistent
            rhs[rng.randrange(n_rows)] = rng.randint(1, 5)

        def ring(vec, order):
            return tuple(da.const(vec[i]) for i in order)

        order = list(range(n_rows))
        want = linsolve.solve([ring(c, order) for c in columns], ring(rhs, order))
        for _ in range(3):
            rng.shuffle(order)
            got = linsolve.solve([ring(c, order) for c in columns], ring(rhs, order))
            assert got == want
            assert got is None or all(type(x) is type(y) for x, y in zip(got, want))
        solved += want is not None
        failed += want is None
    assert solved > 50 and failed > 10


def _as_dict(vec):
    return {(i, m): c for i, f in enumerate(vec) for m, c in f.terms}


def _v_only_blocks():
    """The candidate blocks of seeded v-only problems, Laurent and log
    included, as _solve_v_density builds them in its first round: (columns,
    right side) pairs of one-component vectors."""
    rng = random.Random(211)
    blocks = []
    while len(blocks) < 120:
        wt = rng.choice((2, 4, 6, 8))
        cands = da.monomials(wt, 3, -4, fields=(V,), include_log=True)
        picked = rng.sample(cands, min(len(cands), rng.randint(1, 4)))
        f = da.DiffFunction.from_packed((helpers.rand_coeff(rng), m) for m in picked)
        g = da.euler_derivative(f, V)
        if rng.random() < 0.3:  # mostly out of reach
            g = g + da.DiffFunction.from_packed([(helpers.rand_coeff(rng), rng.choice(cands))])
        for deg, rhs in da.homogeneous_parts(g, lambda m: da.mono_degree(m, V) + 1):
            block = [vc._euler_mono(m, V) for m in cands if da.mono_degree(m, V) == deg]
            blocks.append(([(e,) for e in block if e], (rhs,)))
    return blocks


def test_ring_solver_matches_the_dict_solver():
    # the same systems through the solver on sparse dicts of tuple monomials:
    # equal xs, with equal int/Fraction types, on the candidate blocks of
    # v-only problems and on copies with every column scaled by a rational
    rng = random.Random(29)
    outcomes = set()
    for columns, rhs in _v_only_blocks():
        scaled = [
            tuple(f * QQ(rng.choice([-3, -1, 2, 5]), rng.randint(1, 7)) for f in col)
            for col in columns
        ]
        for cols in (columns, scaled):
            got = linsolve.solve(cols, rhs)
            want = helpers.dict_solve([_as_dict(c) for c in cols], _as_dict(rhs))
            assert got == want
            assert got is None or [type(x) for x in got] == [type(x) for x in want]
            if got is None:
                outcomes.add("none")
            else:
                outcomes.add("fraction" if any(type(x) is QQ for x in got) else "int")
    assert outcomes == {"none", "int", "fraction"}
