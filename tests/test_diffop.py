"""Scalar and matrix differential operators: composition, adjoints, apply."""

from __future__ import annotations

import random

import pytest
import sympy as sp

import helpers
import oracle
from magri import diffalg as da
from magri import diffop as dop
from magri.errors import DimensionMismatch, MagriError


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


def test_operator_powers_stay_cheap(monkeypatch):
    calls = [0]
    addmul_into = da.addmul_into

    def counting(acc, f, g, k=1):
        calls[0] += 1
        return addmul_into(acc, f, g, k)

    monkeypatch.setattr(da, "addmul_into", counting)
    # each d^n . 1 stops at the first zero derivative of 1, and the power
    # is taken by squaring; a product over every m <= n made about 20k calls
    d200 = dop.D ** 200
    assert calls[0] <= 50
    assert d200 == dop.ScalarDiffOp([(200, da.ONE)])
    assert (dop.D ** 2000).degree() == 2000
    f = da.u_jet(0) * da.v_pow(-1)
    op = dop.multiplication(f) * dop.D + dop.D
    want = dop.multiplication(da.ONE)
    for _ in range(7):
        want = dop.compose(want, op)
    assert op ** 7 == want
    assert op ** 0 == dop.multiplication(da.ONE)


def test_apply_differentiates_each_vector_once(monkeypatch):
    _h0, h1 = dop.builtin_pair()
    expanded = dop.MatrixDiffOp(h1.entries)
    v = (da.u_jet(0) * da.v_jet(1), da.v_pow(-1) + da.log_v())
    first = dop.apply(expanded, v)
    assert dop.apply(h1, v) == first
    calls = []
    dx_into = da.add_derivative_into

    def counting(acc, f):
        calls.append(f)
        return dx_into(acc, f)

    monkeypatch.setattr(da, "add_derivative_into", counting)
    # through its entries, a second application reads every derivative of
    # v from the towers kept on its components
    assert dop.apply(expanded, v) == first
    assert calls == []
    # H1 goes through its factors W . M . W, W = diag(1, v^-2).  A second
    # application still differentiates no component of v.  It does
    # differentiate the product v^-2 * v[1] that W builds anew, once per
    # order up to the five of Q: calls == [] would need a memo of that
    # product, and no caller in the package applies H1 twice to one vector
    assert dop.apply(h1, v) == first
    assert len(calls) == 5
    assert not any(f is c for f in calls for c in v)
    assert calls[0] == da.v_pow(-2) * v[1]
    assert all(calls[k + 1] is calls[k]._d for k in range(4))


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
    d, one = dop.D, dop.multiplication(da.ONE)
    for entry in (da.u_jet(0), 1, dop.MatrixDiffOp([[d]])):
        with pytest.raises(MagriError, match="matrix entries must be scalar operators"):
            dop.MatrixDiffOp([[d, entry]])
    a = dop.MatrixDiffOp([[d, one]])  # 1 x 2
    b = dop.MatrixDiffOp([[d], [one]])  # 2 x 1
    for x, y in ((a, b), (b, a), (a, dop.MatrixDiffOp([[d]]))):
        with pytest.raises(DimensionMismatch, match="operator shapes differ"):
            x + y
        with pytest.raises(DimensionMismatch, match="operator shapes differ"):
            x - y
    for x in (a, b):
        with pytest.raises(DimensionMismatch, match="operator shapes do not compose"):
            x * x
    assert (a * b).shape == (1, 1) and (b * a).shape == (2, 2)


def test_negative_powers_are_refused():
    f, op = da.u_jet(0) + da.v_jet(1), dop.D + dop.multiplication(da.v_jet(0))
    for x, msg in ((f, "powers of differential functions"), (op, "operator powers")):
        assert x**0 == (da.ONE if x is f else dop.multiplication(da.ONE))
        for n in (-1, -2, 1.0):
            with pytest.raises(MagriError, match=msg):
                x**n


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


def test_builtin_h1_entries_are_the_product_of_its_factors():
    # the entries every reader of the symbol takes are those H1 had when it
    # was built from D . w, w . D and -(w . Q . w), w = v^-2
    _h0, h1 = dop.builtin_pair()
    q = dop.builtin_q()
    w = dop.multiplication(da.v_pow(-2))
    zero = dop.ScalarDiffOp()
    assert h1.entries == ((zero, dop.D * w), (w * dop.D, -(w * q * w)))
    assert len(h1.factors) == 3
    assert all(f.factors is None for f in h1.factors)
    # an operator built from H1 keeps no factors
    for other in (-h1, h1 * 2, h1 + h1, dop.MatrixDiffOp(h1.entries)):
        assert other.factors is None


def test_factored_apply_matches_the_expanded_entries():
    _h0, h1 = dop.builtin_pair()
    expanded = dop.MatrixDiffOp(h1.entries)
    rng = random.Random(151)
    vecs = [(da.ZERO, da.ZERO), (da.ONE, da.ZERO), (da.ZERO, da.log_v())]
    vecs += [helpers.rand_vector(rng, terms=4) for _ in range(60)]
    assert any(da.min_v_exponent(f) < 0 for x in vecs for f in x)
    assert any(da.mono_exp(m, da.LOG_VAR, 0) for x in vecs for f in x for m, _c in f._t)
    for x in vecs:
        got = dop.apply(h1, x)
        assert got == dop.apply(expanded, x), x
        # new values, which keep no derivative tower of an intermediate alive
        assert all(type(f) is da.DiffFunction and f._d is None for f in got)
    # factors of any shape compose and apply right to left
    for _ in range(10):
        a, b = helpers.rand_matrix_op(rng, terms=2), helpers.rand_matrix_op(rng, terms=2)
        ab = dop.factored(a, b)
        assert ab == a * b
        x = helpers.rand_vector(rng, terms=2)
        assert dop.apply(ab, x) == dop.apply(a, dop.apply(b, x)) == dop.apply(a * b, x)
    with pytest.raises(DimensionMismatch):
        dop.apply(h1, (da.ONE,))


def test_a_matrix_operator_is_false_exactly_when_every_entry_is_zero():
    zero = dop.ScalarDiffOp()
    assert not dop.MatrixDiffOp([[zero]])
    assert not dop.MatrixDiffOp([[zero, zero], [zero, zero]])
    assert dop.MatrixDiffOp([[zero, zero], [zero, dop.D]])
    assert dop.MatrixDiffOp([[dop.multiplication(da.log_v())]])
    h0, h1 = dop.builtin_pair()
    assert h0 and h1 and not (h1 - h1) and not h0 * 0
    # as a ScalarDiffOp and a DiffFunction are
    assert not zero and not da.ZERO


def test_a_scalar_operator_is_promoted_to_one_by_one():
    a = dop.D * dop.multiplication(da.u_jet(0))
    m = dop.as_matrix(a)
    assert m.shape == (1, 1) and m.entries[0][0] is a
    h0, _h1 = dop.builtin_pair()
    assert dop.as_matrix(h0) is h0
    f = da.v_jet(2) * da.log_v()
    assert dop.apply(a, (f,)) == dop.apply(m, (f,)) == (dop.apply_scalar(a, f),)
