"""Variational derivatives, Frechet derivatives, exactness, homotopy."""

from __future__ import annotations

import random

import pytest
import sympy as sp

import helpers
import oracle
from magri import diffalg as da
from magri import diffop as dop
from magri import varcalc as vc
from magri.diffalg import LocalFunctional, QQ, U, V, ZERO
from magri.errors import DimensionMismatch, MagriError, NotClosed


def test_variational_derivative_components():
    f = da.u_jet(0) * da.u_jet(2) + da.v_jet(0) ** 3
    grad = vc.variational_derivative(f)
    assert grad == (da.u_jet(2) * 2, da.v_jet(0) ** 2 * 3)
    assert vc.variational_derivative(LocalFunctional(f)) == grad


def test_variational_derivative_kills_exact_terms():
    rng = random.Random(2)
    for _ in range(20):
        f = helpers.rand_function(rng)
        g = helpers.rand_function(rng)
        assert vc.variational_derivative(f + da.total_derivative(g)) == \
            vc.variational_derivative(f)


def test_frechet_directional_derivative_matches_sympy():
    # D_P(d) applied to a is the linearization of P along a
    rng = random.Random(9)
    eps = sp.Symbol("eps")
    for _ in range(8):
        p = helpers.rand_vector(rng, terms=2, max_order=2, max_exp=2)
        a = helpers.rand_vector(rng, terms=2, max_order=2, max_exp=2)
        got = dop.apply(vc.frechet(p), a)
        subs = {}
        for var, base, direction in ((U, oracle.u_fn, a[0]), (V, oracle.v_fn, a[1])):
            for n in range(6):
                subs[oracle.jet_sym(var, n)] = oracle.jet_sym(var, n) + eps * sp.diff(
                    oracle.to_sympy(direction), oracle.x, n
                )
        for i in range(2):
            ps = oracle.to_sympy(p[i])
            shifted = ps.subs(subs, simultaneous=True)
            want = sp.diff(shifted, eps).subs(eps, 0)
            assert oracle.sym_equal(oracle.to_sympy(got[i]), want)


def test_frechet_entry_layout():
    p = (da.u_jet(1) * da.v_jet(0), da.u_jet(0))
    m = vc.frechet(p)
    assert m.entries[0][0] == dop.ScalarDiffOp([(1, da.v_jet(0))])
    assert m.entries[0][1] == dop.ScalarDiffOp([(0, da.u_jet(1))])
    assert m.entries[1][0] == dop.ScalarDiffOp([(0, da.ONE)])
    assert not m.entries[1][1]


def test_exact_vectors_are_closed():
    rng = random.Random(17)
    for _ in range(15):
        f = helpers.rand_function(rng, terms=2, max_order=2, max_exp=2)
        report = vc.is_closed(vc.variational_derivative(f))
        assert report.closed, da.to_text(f)


def test_closedness_witness():
    report = vc.is_closed((da.u_jet(1), ZERO))
    assert not report.closed
    assert report.witness == (1, 1)


def test_commutator_antisymmetry():
    rng = random.Random(29)
    for _ in range(10):
        p = helpers.rand_vector(rng, terms=2, max_order=2, max_exp=2)
        q = helpers.rand_vector(rng, terms=2, max_order=2, max_exp=2)
        c = vc.evolutionary_commutator(p, q)
        c_rev = vc.evolutionary_commutator(q, p)
        assert c == tuple(-f for f in c_rev)


def test_commutator_with_translation_vanishes():
    rng = random.Random(41)
    shift = (da.u_jet(1), da.v_jet(1))
    for _ in range(10):
        p = helpers.rand_vector(rng, terms=2, max_order=2, max_exp=2)
        assert vc.evolutionary_commutator(shift, p) == (ZERO, ZERO)


def test_integrate_exact_on_polynomial_part():
    rng = random.Random(53)
    for _ in range(15):
        h = helpers.rand_polynomial(rng, terms=3, max_order=3, max_exp=3)
        h = h - da.const(h.constant_term())
        grad = vc.variational_derivative(h)
        got = vc.integrate_exact(grad)
        assert da.functional_equal(got.rep, h)


def test_integrate_exact_reproduces_seed_densities():
    from magri import lenard

    for eps in (0, 1):
        for alpha in (0, 1):
            s = lenard.seed(eps, alpha)
            grad = s.gradient
            got = vc.integrate_exact(grad)
            assert da.functional_equal(got.rep, s.density.rep), (eps, alpha)


def test_integrate_exact_rejects_non_closed():
    with pytest.raises(NotClosed):
        vc.integrate_exact((da.u_jet(1), ZERO))


def test_integrate_exact_mixed_weights():
    h = (
        da.u_jet(0) ** 3
        + da.u_jet(0) * da.v_pow(-1)
        - da.v_pow(-3) * da.v_jet(1) ** 2 * QQ(1, 2)
        + da.v_jet(0) * da.u_jet(1) ** 2
    )
    got = vc.integrate_exact(vc.variational_derivative(h))
    assert da.functional_equal(got.rep, h)


def test_default_widen_cap_env(monkeypatch):
    monkeypatch.delenv("LENARD_WIDEN_CAP", raising=False)
    assert vc.default_widen_cap() == 2
    monkeypatch.setenv("LENARD_WIDEN_CAP", "5")
    assert vc.default_widen_cap() == 5


def test_negative_widen_cap_env_is_rejected(monkeypatch):
    monkeypatch.setenv("LENARD_WIDEN_CAP", "-3")
    with pytest.raises(MagriError, match="LENARD_WIDEN_CAP"):
        vc.default_widen_cap()


def test_non_integer_widen_cap_env_is_rejected(monkeypatch):
    for raw in ("2.5", "two", ""):
        monkeypatch.setenv("LENARD_WIDEN_CAP", raw)
        with pytest.raises(MagriError, match="LENARD_WIDEN_CAP"):
            vc.default_widen_cap()


def test_homotopies_divide_exactly():
    u, v = da.u_jet(0), da.v_jet(0)
    got = vc._u_homotopy(u * u)
    assert got == u ** 3 / 3
    assert type(got.terms[0][1]) is QQ
    got = vc._poly_homotopy((u, v * v))
    assert got == u * u / 2 + v ** 3 / 3
    assert all(type(c) is QQ for _m, c in got.terms)


def test_inhomogeneous_v_problem_has_no_solution():
    from magri.errors import NoSolution

    vp = da.v_jet(1)
    with pytest.raises(NoSolution, match="weight"):
        vc._solve_v_density(vp + vp * vp, 2)


def test_v_problem_out_of_reach_in_log_has_no_solution():
    from magri.errors import NoSolution

    # a candidate is free of log v, or is log(v) times a monomial with no
    # power of v, and the terms in log v of its Euler derivative keep that
    # shape ...
    for wt in (4, 6, 8):
        for m in vc._v_candidates(wt, 5, -4, include_log=True):
            for mm, _c in vc._euler_mono(m, V).terms:
                mm = da.pack_mono(mm)
                j = da.mono_exp(mm, da.LOG_VAR, 0)
                assert j == 0 or (j == 1 and da.mono_exp(mm, V, 0) == 0)
    # ... so a right side with any other term in log v is out of reach of
    # every widening round
    v, vp, vpp, lg = da.v_jet(0), da.v_jet(1), da.v_jet(2), da.log_v()
    for g in (vp * vp * lg * lg * da.v_pow(-1), vpp * vpp * v * lg):
        with pytest.raises(NoSolution, match="widening cap"):
            vc._solve_v_density(g, 2)
    for h in (vp * vp * lg * lg, vpp ** 4 * v * v * lg):
        with pytest.raises(NoSolution, match="widening cap"):
            vc.integrate_exact(vc.variational_derivative(h))


def test_commutator_on_flow_data_matches_tuples():
    # Laurent and log inputs; one FlowData serves several commutators, its
    # derivative tower growing and then being reused
    rng = random.Random(73)
    vecs = [helpers.rand_vector(rng, terms=2, max_order=3, max_exp=2) for _ in range(6)]
    data = [vc.FlowData(p) for p in vecs]
    for i, p in enumerate(vecs):
        for j, q in enumerate(vecs):
            want = tuple(
                x - y
                for x, y in zip(dop.apply(vc.frechet(q), p), dop.apply(vc.frechet(p), q))
            )
            assert vc.evolutionary_commutator(p, q) == want
            assert vc.evolutionary_commutator(data[i], data[j]) == want
            assert vc.evolutionary_commutator(data[i], q) == want
    assert data[0].derivative(1, 2) == da.total_derivative(vecs[0][1], 2)
    with pytest.raises(DimensionMismatch):
        vc.evolutionary_commutator(data[0], vecs[1] + (ZERO,))


def test_memo_tables_stay_under_the_cap(monkeypatch):
    rng = random.Random(71)
    fs = [helpers.rand_function(rng, terms=4) for _ in range(12)]
    cands = vc._v_candidates(6, 3, -2, include_log=True)

    def compute():
        got = []
        for f in fs:
            got.append(da.total_derivative(f, 2))
            got.extend(vc.variational_derivative(f))
            assert len(da._DX_MONO) <= da.MEMO_CAP
        for m in cands:
            got.append(vc._euler_mono(m, V))
            assert len(vc._EULER_MONO) <= da.MEMO_CAP
        return got

    want = compute()
    monkeypatch.setattr(da, "MEMO_CAP", 5)
    monkeypatch.setattr(da, "_DX_MONO", {})
    monkeypatch.setattr(vc, "_EULER_MONO", {})
    assert compute() == want
    assert 0 < len(da._DX_MONO) <= 5 and 0 < len(vc._EULER_MONO) <= 5
