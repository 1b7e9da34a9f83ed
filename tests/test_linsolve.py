"""Exact sparse linear solving."""

from __future__ import annotations

from magri import linsolve
from magri.diffalg import QQ


def test_solutions_are_int_or_proper_fraction():
    xs = linsolve.solve([{"r": 2}], {"r": 1})
    assert xs == [QQ(1, 2)] and type(xs[0]) is QQ
    xs = linsolve.solve([{"r": 2, "s": 1}, {"s": 3}], {"r": 4, "s": 5})
    assert xs == [2, 1] and all(type(x) is int for x in xs)
    assert linsolve.solve([{"r": QQ(3, 2)}], {"r": 1}) == [QQ(2, 3)]
    assert linsolve.solve([{"r": 2}, {"r": 4}], {"s": 1}) is None
