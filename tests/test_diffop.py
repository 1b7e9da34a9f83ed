"""Scalar and matrix differential operators: composition, adjoints, apply."""

from __future__ import annotations

import random

import pytest
import sympy as sp

import helpers
import oracle
from magri import diffalg as da
from magri import diffop as dop
from magri.errors import DimensionMismatch


def test_composition_matches_application():
    rng = random.Random(11)
    for _ in range(25):
        a = helpers.rand_scalar_op(rng, max_deg=3, terms=2, max_order=2, max_exp=2)
        b = helpers.rand_scalar_op(rng, max_deg=3, terms=2, max_order=2, max_exp=2)
        f = helpers.rand_function(rng, terms=2, max_order=2, max_exp=2)
        lhs = dop.apply_scalar(a * b, f)
        rhs = dop.apply_scalar(a, dop.apply_scalar(b, f))
        assert lhs == rhs


def test_composition_against_sympy():
    rng = random.Random(5)
    for _ in range(8):
        a = helpers.rand_scalar_op(rng, max_deg=2, terms=2, max_order=2, max_exp=2)
        f = helpers.rand_function(rng, terms=2, max_order=2, max_exp=2)
        fs = oracle.to_sympy(f)
        want = sum(
            oracle.to_sympy(c) * sp.diff(fs, oracle.x, k) for k, c in a.terms
        )
        assert oracle.sym_equal(oracle.to_sympy(dop.apply_scalar(a, f)), want)


def test_d_power_and_leibniz():
    d3 = dop.D**3
    assert d3.degree() == 3
    f = da.u_jet(0) * da.v_jet(0)
    assert dop.apply_scalar(d3, f) == da.total_derivative(f, 3)
    # d compose multiplication(f) = multiplication(f') + f d
    left = dop.compose(dop.D, dop.multiplication(f))
    right = dop.multiplication(da.total_derivative(f)) + dop.compose(
        dop.multiplication(f), dop.D
    )
    assert left == right


def test_adjoint_involution_and_antihomomorphism():
    rng = random.Random(23)
    for _ in range(20):
        a = helpers.rand_scalar_op(rng, max_deg=3, terms=2, max_order=2, max_exp=2)
        b = helpers.rand_scalar_op(rng, max_deg=2, terms=2, max_order=2, max_exp=2)
        assert dop.adjoint_scalar(dop.adjoint_scalar(a)) == a
        assert dop.adjoint_scalar(a * b) == dop.adjoint_scalar(b) * dop.adjoint_scalar(a)


def test_integration_by_parts_pairing():
    # f * (A g) - (A* f) * g is always a total derivative
    rng = random.Random(31)
    for _ in range(15):
        a = helpers.rand_scalar_op(rng, max_deg=3, terms=2, max_order=2, max_exp=2)
        f = helpers.rand_function(rng, terms=2, max_order=2, max_exp=2)
        g = helpers.rand_function(rng, terms=2, max_order=2, max_exp=2)
        diff = f * dop.apply_scalar(a, g) - dop.apply_scalar(dop.adjoint_scalar(a), f) * g
        assert da.is_total_derivative(diff)


def test_matrix_shape_checks():
    h, _ = dop.builtin_pair()
    with pytest.raises(DimensionMismatch):
        dop.apply(h, (da.ONE,))
    with pytest.raises(DimensionMismatch):
        dop.MatrixDiffOp([[dop.D], [dop.D, dop.D]])


def test_matrix_adjoint_transposes():
    rng = random.Random(47)
    m = helpers.rand_matrix_op(rng, terms=2, max_order=2, max_exp=2)
    ma = dop.adjoint(m)
    for i in range(2):
        for j in range(2):
            assert ma.entries[i][j] == dop.adjoint_scalar(m.entries[j][i])
    assert dop.adjoint(ma) == m


def test_builtin_pair_is_skew_adjoint():
    h0, h1 = dop.builtin_pair()
    assert dop.is_skew_adjoint(h0)
    assert dop.is_skew_adjoint(h1)
    assert h0.shape == (2, 2)
    assert h1.shape == (2, 2)


def test_builtin_q_expansion():
    # hand expansion of d^5 + 3d(du+ud)d + 2(d^3 u + u d^3) + 8(d u^2 + u^2 d)
    q = dop.builtin_q()
    u0, u1, u2, u3 = (da.u_jet(n) for n in range(4))
    want = dop.ScalarDiffOp(
        [
            (0, u3 * 2 + u0 * u1 * 16),
            (1, u2 * 9 + u0 * u0 * 16),
            (2, u1 * 15),
            (3, u0 * 10),
            (5, da.ONE),
        ]
    )
    assert q == want
    assert dop.adjoint_scalar(q) == -q


def test_builtin_h0_explicit_entries():
    h0, _ = dop.builtin_pair()
    assert h0.entries[0][0] == dop.ScalarDiffOp(
        [(0, da.u_jet(1)), (1, da.u_jet(0) * 2), (3, da.ONE)]
    )
    assert h0.entries[0][1] == dop.ScalarDiffOp([(1, da.v_jet(0))])
    assert h0.entries[1][0] == dop.ScalarDiffOp([(0, da.v_jet(1)), (1, da.v_jet(0))])
    assert not h0.entries[1][1]


def test_kernel_verify():
    h0, h1 = dop.builtin_pair()
    assert dop.kernel_verify(h0, (da.ZERO, da.ONE))
    assert not dop.kernel_verify(h0, (da.ONE, da.ZERO))
    assert dop.kernel_verify(h1, (da.ONE, da.ZERO))


def test_apply_matches_rows():
    rng = random.Random(3)
    m = helpers.rand_matrix_op(rng, terms=2, max_order=2, max_exp=2)
    vec = helpers.rand_vector(rng, terms=2, max_order=2, max_exp=2)
    out = dop.apply(m, vec)
    for i in range(2):
        want = dop.apply_scalar(m.entries[i][0], vec[0]) + dop.apply_scalar(
            m.entries[i][1], vec[1]
        )
        assert out[i] == want


def test_apply_is_the_sum_of_coefficients_times_derivatives():
    # Laurent and log inputs; the reference sums a_k * d^k f term by term
    def by_terms(a, f):
        acc = da.ZERO
        for k, ak in a.terms:
            acc = acc + ak * da.total_derivative(f, k)
        return acc

    rng = random.Random(71)
    for _ in range(20):
        m = helpers.rand_matrix_op(rng, terms=2, max_order=2, max_exp=2)
        vec = helpers.rand_vector(rng, terms=3, max_order=2, max_exp=2)
        out = dop.apply(m, vec)
        for i in range(2):
            assert dop.apply_scalar(m.entries[i][0], vec[0]) == by_terms(m.entries[i][0], vec[0])
            assert out[i] == by_terms(m.entries[i][0], vec[0]) + by_terms(m.entries[i][1], vec[1])
    assert dop.apply_scalar(dop.ScalarDiffOp(), da.u_jet(0)) == da.ZERO
