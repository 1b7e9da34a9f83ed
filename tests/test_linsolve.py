"""Exact sparse linear solving."""

from __future__ import annotations

import random

from magri import linsolve
from magri.diffalg import QQ


def test_solutions_are_int_or_proper_fraction():
    xs = linsolve.solve([{"r": 2}], {"r": 1})
    assert xs == [QQ(1, 2)] and type(xs[0]) is QQ
    xs = linsolve.solve([{"r": 2, "s": 1}, {"s": 3}], {"r": 4, "s": 5})
    assert xs == [2, 1] and all(type(x) is int for x in xs)
    assert linsolve.solve([{"r": QQ(3, 2)}], {"r": 1}) == [QQ(2, 3)]
    assert linsolve.solve([{"r": 2}, {"r": 4}], {"s": 1}) is None


def _shuffled(d, rng):
    keys = list(d)
    rng.shuffle(keys)
    return {k: d[k] for k in keys}


def test_solution_does_not_depend_on_row_order():
    rng = random.Random(131)
    solved = failed = 0
    for _ in range(200):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        keys = [(rng.choice("uv"), r) for r in range(n_rows)]
        columns = []
        for _ in range(n_cols):
            col = {k: QQ(rng.randint(-3, 3), rng.randint(1, 3)) for k in keys if rng.random() < 0.5}
            columns.append({k: v for k, v in col.items() if v})
        # a dependent column now and then, so some unknowns are free
        if n_cols > 1 and rng.random() < 0.5:
            a, b = rng.sample(range(n_cols), 2)
            columns[b] = {k: 2 * v for k, v in columns[a].items()}
        x0 = [rng.randint(-2, 2) for _ in columns]
        rhs = {}
        for x, col in zip(x0, columns):
            for k, v in col.items():
                rhs[k] = rhs.get(k, 0) + x * v
        if rng.random() < 0.3:  # likely inconsistent
            rhs[rng.choice(keys)] = rng.randint(1, 5)
        rhs = {k: v for k, v in rhs.items() if v}
        want = linsolve.solve(columns, rhs)
        for _ in range(3):
            got = linsolve.solve([_shuffled(c, rng) for c in columns], _shuffled(rhs, rng))
            assert got == want
            assert got is None or all(type(x) is type(y) for x, y in zip(got, want))
        solved += want is not None
        failed += want is None
    assert solved > 50 and failed > 10
