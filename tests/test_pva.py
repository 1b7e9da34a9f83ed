"""Lambda brackets, the Jacobi identity, compatibility, Hamiltonian flows."""

from __future__ import annotations

import itertools
import random

import pytest

import helpers
import magri
import oracle
from magri import diffalg as da
from magri import diffop as dop
from magri import pva
from magri.diffalg import LocalFunctional, QQ, ZERO
from magri.errors import NotSkewAdjoint


H0, H1 = dop.builtin_pair()


def test_generator_bracket_reads_transposed_entry():
    b = pva.generator_bracket(H0, 1, 1)
    assert b.coeff(3) == da.ONE
    assert b.coeff(1) == da.u_jet(0) * 2
    assert b.coeff(0) == da.u_jet(1)
    # {u lam v} picks up the (2,1) entry
    b12 = pva.generator_bracket(H0, 1, 2)
    assert b12.coeff(1) == da.v_jet(0)
    assert b12.coeff(0) == da.v_jet(1)
    b21 = pva.generator_bracket(H0, 2, 1)
    assert b21.coeff(1) == da.v_jet(0)
    assert b21.coeff(0) == ZERO


def test_bracket_requires_skew():
    bad = dop.MatrixDiffOp([[dop.D, dop.ScalarDiffOp()], [dop.ScalarDiffOp(), dop.multiplication(da.u_jet(0))]])
    with pytest.raises(NotSkewAdjoint):
        pva.generator_bracket(bad, 1, 1)


def test_sesquilinearity():
    rng = random.Random(13)
    for _ in range(8):
        f = helpers.rand_function(rng, terms=2, max_order=2, max_exp=2)
        g = helpers.rand_function(rng, terms=2, max_order=2, max_exp=2)
        r = pva.lambda_bracket(H0, f, g)
        left = pva.lambda_bracket(H0, da.total_derivative(f), g)
        assert left == dop.ScalarDiffOp.from_dict({s + 1: -c for s, c in r.terms})
        right = pva.lambda_bracket(H0, f, da.total_derivative(g))
        assert right == dop.compose(dop.D, r)


def test_leibniz_rule():
    rng = random.Random(19)
    for _ in range(6):
        f = helpers.rand_function(rng, terms=2, max_order=2, max_exp=2)
        g = helpers.rand_function(rng, terms=2, max_order=2, max_exp=2)
        h = helpers.rand_function(rng, terms=2, max_order=2, max_exp=2)
        lhs = pva.lambda_bracket(H0, f, g * h)
        rhs = (
            dop.multiplication(h) * pva.lambda_bracket(H0, f, g)
            + dop.multiplication(g) * pva.lambda_bracket(H0, f, h)
        )
        assert lhs == rhs


def test_lambda_bracket_matches_sympy_oracle():
    rng = random.Random(37)
    hs = oracle.matrix_op_to_sym(H0)
    for _ in range(4):
        f = helpers.rand_function(rng, terms=2, max_order=2, max_exp=2)
        g = helpers.rand_function(rng, terms=2, max_order=2, max_exp=2)
        eng = oracle.lam_poly_to_sympy(pva.lambda_bracket(H0, f, g))
        ora = oracle.bracket_sym(hs, oracle.to_sympy(f), oracle.to_sympy(g), oracle.lam)
        assert oracle.sym_equal(eng, ora)


def _laurent_log_sample(rng, count):
    """Random functions of jet order at most 1, covering v^-k and log v."""
    fs = [helpers.rand_function(rng, terms=2, max_order=1, max_exp=2) for _ in range(count)]
    text = " ".join(da.to_text(f) for f in fs)
    assert "v^-" in text and "log(v)" in text
    return fs


def test_lambda_bracket_under_h1_matches_sympy_oracle():
    f, g = _laurent_log_sample(random.Random(41), 2)
    eng = oracle.lam_poly_to_sympy(pva.lambda_bracket(H1, f, g))
    ora = oracle.bracket_sym(
        oracle.matrix_op_to_sym(H1), oracle.to_sympy(f), oracle.to_sympy(g), oracle.lam
    )
    assert oracle.sym_equal(eng, ora)


def test_bracket_with_function_matches_sympy_oracle():
    gs = _laurent_log_sample(random.Random(45), 2)
    for h in (H0, H1):
        hs = oracle.matrix_op_to_sym(h)
        for i, ui in ((1, oracle.u_fn), (2, oracle.v_fn)):
            for g in gs:
                eng = oracle.lam_poly_to_sympy(pva.bracket_with_function(h, i, g))
                ora = oracle.bracket_sym(hs, ui, oracle.to_sympy(g), oracle.lam)
                assert oracle.sym_equal(eng, ora)


def test_jacobiator_zero_on_builtin_triples():
    assert not pva.jacobiator(H0, 1, 1, 2)
    assert not pva.jacobiator(H0, 2, 1, 2)
    assert not pva.jacobiator(H1, 1, 2, 2)


def test_jacobiator_nonzero_witness_matches_oracle():
    # order-3 scalar operator that is skew but fails Jacobi
    k = dop.ScalarDiffOp(
        [(0, da.u_jet(0) * da.u_jet(1) * 2), (1, da.u_jet(0) ** 2 * 2), (3, da.ONE)]
    )
    k2 = dop.MatrixDiffOp([[k, dop.ScalarDiffOp()], [dop.ScalarDiffOp(), dop.ScalarDiffOp()]])
    assert dop.is_skew_adjoint(k2)
    j = pva.jacobiator(k2, 1, 1, 1)
    assert j
    hs = oracle.matrix_op_to_sym(k2)
    jo = oracle.jacobi_sym(hs, oracle.u_fn, oracle.u_fn, oracle.u_fn)
    assert oracle.sym_equal(oracle.lammu_poly_to_sympy(j), jo)
    assert not pva.is_poisson(k2)


def test_laurent_jacobiator_matches_oracle():
    # [[w d + d w, d], [d, 0]] with w = u/v is skew but fails Jacobi
    w = dop.multiplication(da.u_jet(0) * da.v_pow(-1))
    k2 = dop.MatrixDiffOp([[w * dop.D + dop.D * w, dop.D], [dop.D, dop.ScalarDiffOp()]])
    assert dop.is_skew_adjoint(k2)
    assert not pva.is_poisson(k2)
    hs = oracle.matrix_op_to_sym(k2)
    fields = (oracle.u_fn, oracle.v_fn)
    nonzero = 0
    for i, j, k in itertools.product((1, 2), repeat=3):
        jac = pva.jacobiator(k2, i, j, k)
        nonzero += bool(jac)
        jo = oracle.jacobi_sym(hs, fields[i - 1], fields[j - 1], fields[k - 1])
        assert oracle.sym_equal(oracle.lammu_poly_to_sympy(jac), jo)
    assert nonzero


def test_is_poisson_small_constant_operator():
    m = dop.MatrixDiffOp(
        [[dop.ScalarDiffOp(), dop.D], [dop.D, dop.ScalarDiffOp()]]
    )
    assert pva.is_poisson(m)


def test_incompatible_pair_detected():
    # current-algebra and mixing structures are each Poisson but not compatible
    zero = dop.ScalarDiffOp()
    vir = dop.ScalarDiffOp([(0, da.u_jet(1)), (1, da.u_jet(0) * 2)])
    m1 = dop.MatrixDiffOp([[vir, zero], [zero, dop.D]])
    m2 = dop.MatrixDiffOp([[zero, dop.D], [dop.D, zero]])
    assert pva.is_poisson(m1)
    assert pva.is_poisson(m2)
    assert not pva.is_compatible(m1, m2)


def test_is_poisson_ignores_rational_scaling():
    # every jacobiator is quadratic in H, so the check may run on an
    # integral multiple of H without changing the verdict
    h0, h1 = magri.builtin_pair()
    assert pva.is_poisson(h0 * QQ(3, 4))
    assert pva.is_poisson(h0 + h1 * QQ(-7, 3))
    zero = dop.ScalarDiffOp()
    vir = dop.ScalarDiffOp([(0, da.u_jet(1)), (1, da.u_jet(0) * 2)])
    m1 = dop.MatrixDiffOp([[vir, zero], [zero, dop.D]])
    m2 = dop.MatrixDiffOp([[zero, dop.D], [dop.D, zero]])
    assert not pva.is_poisson(m1 + m2 * QQ(1, 2))
    h = h0 * QQ(1, 4) + h1 * QQ(5, 6)
    scaled = pva._integral_multiple(h)
    assert scaled == h * 12
    coeffs = [c for row in scaled.entries for op in row for _k, f in op.terms for _m, c in f.terms]
    assert all(type(c) is int for c in coeffs)
    assert pva._integral_multiple(h0) is h0


def test_poisson_bracket_antisymmetry():
    rng = random.Random(43)
    for _ in range(5):
        f = LocalFunctional(helpers.rand_function(rng, terms=2, max_order=2, max_exp=2))
        g = LocalFunctional(helpers.rand_function(rng, terms=2, max_order=2, max_exp=2))
        b1 = pva.poisson_bracket(f, g, H0)
        b2 = pva.poisson_bracket(g, f, H0)
        assert (b1 + b2).is_zero()


def test_hamiltonian_flow_cross_structure():
    m = dop.MatrixDiffOp(
        [[dop.ScalarDiffOp(), dop.D], [dop.D, dop.ScalarDiffOp()]]
    )
    f = LocalFunctional((da.u_jet(0) ** 2 + da.v_jet(0) ** 2) * QQ(1, 2))
    assert pva.hamiltonian_flow(m, f) == (da.v_jet(1), da.u_jet(1))


def test_flow_of_casimir_is_zero():
    from magri import lenard

    s = lenard.seed(0, 1)
    assert pva.hamiltonian_flow(H0, s.density) == (ZERO, ZERO)
