"""Ring arithmetic, derivations, Euler operator, antiderivatives."""

from __future__ import annotations

import random
from math import gcd

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import helpers
import oracle
import magri
import reference
from magri import diffalg as da
from magri import diffop as dop
from magri import varcalc as vc
from magri.diffalg import (
    LOG_VAR,
    LocalFunctional,
    ONE,
    QQ,
    U,
    V,
    ZERO,
)
from magri.errors import DimensionMismatch, ExponentOverflow, MagriError

rng_strategy = st.integers(min_value=0, max_value=10**9).map(random.Random)


def fn_strategy(**kw):
    return rng_strategy.map(lambda r: helpers.rand_function(r, **kw))


def test_normalize_merges_and_sorts():
    raw = [
        (QQ(1), ((U, 1, 1), (U, 0, 1))),
        (QQ(2), ((U, 0, 1), (U, 1, 1))),
        (QQ(-3), ((V, 0, 2),)),
        (QQ(3), ((V, 0, 1), (V, 0, 1))),
    ]
    f = da.normalize(raw)
    assert f == da.u_jet(0) * da.u_jet(1) * 3
    assert da.to_text(f) == "3*u*u'"


def test_invalid_monomials_rejected():
    from magri.errors import MagriError

    with pytest.raises(MagriError):
        da.normalize([(QQ(1), ((U, 0, -1),))])
    with pytest.raises(MagriError):
        da.normalize([(QQ(1), ((V, 1, -2),))])
    with pytest.raises(MagriError):
        da.normalize([(QQ(1), ((LOG_VAR, 1, 1),))])
    for mono in (((U, 0),), ((U, 0, 1, 1),), ((V, 1, 1), ())):
        with pytest.raises(MagriError, match="bad generator triple"):
            da.pack_mono(mono)
    for var in (3, -1, "u"):
        with pytest.raises(MagriError, match="unknown variable code"):
            da.pack_mono(((var, 0, 1),))
    with pytest.raises(MagriError, match="unknown variable code 3"):
        da.DiffFunction([(((3, 0, 1),), 1)])


def test_zero_and_one_singletons():
    assert not ZERO
    assert ONE
    assert da.const(0) == ZERO
    assert ZERO + ONE == ONE
    assert ONE * ONE == ONE


@settings(max_examples=60, deadline=None)
@given(fn_strategy(), fn_strategy(), fn_strategy())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == ZERO
    assert a * ONE == a


@settings(max_examples=60, deadline=None)
@given(fn_strategy(), fn_strategy())
def test_total_derivative_is_a_derivation(a, b):
    lhs = da.total_derivative(a * b)
    rhs = da.total_derivative(a) * b + a * da.total_derivative(b)
    assert lhs == rhs


def test_total_derivative_keeps_the_tower_on_the_value(monkeypatch):
    # each tower step differentiates its operand once: one of at most
    # MEMO_TERMS terms by one memo lookup per monomial, and a longer one
    # (every operand, with MEMO_TERMS = 0) by one call of add_derivative_into
    calls = []
    dx_into = da.add_derivative_into

    def counting(acc, f):
        calls.append(f)
        return dx_into(acc, f)

    monkeypatch.setattr(da, "add_derivative_into", counting)
    for memo_terms in (da.MEMO_TERMS, 0):
        monkeypatch.setattr(da, "MEMO_TERMS", memo_terms)
        memo = helpers.fresh_dx_memo(monkeypatch)
        calls.clear()
        u, v = da.u_jet(0), da.v_jet(0)
        f = u * u * da.v_pow(-1) + da.log_v() * v
        d3 = da.total_derivative(f, 3)
        steps = [f, f._d, f._d._d]
        if memo_terms:
            assert calls == []
            assert set(memo.lookups) == {m for g in steps for m, _c in g._t}
        else:
            assert calls == steps
            assert memo.lookups == []
        calls.clear()
        memo.lookups.clear()
        assert da.total_derivative(f, 2) == da.total_derivative(da.total_derivative(f), 1)
        assert da.total_derivative(f, 3) is d3
        assert da.total_derivative(f, 0) is f
        assert calls == [] and memo.lookups == []
        # an equal value built elsewhere has its own tower, with the same derivatives
        g = -(-f)
        assert da.total_derivative(g, 3) == d3
        steps = [g, g._d, g._d._d]
        if memo_terms:
            assert calls == []
            assert memo.lookups == [m for h in steps for m, _c in h._t]
        else:
            assert calls == steps
            assert memo.lookups == []
        # a zero derivative is ZERO itself and ends the walk
        calls.clear()
        memo.lookups.clear()
        entries = len(memo)
        assert da.total_derivative(u, 5) == da.u_jet(5)
        assert da.total_derivative(da.const(7), 1000) is ZERO
        if memo_terms:
            # a miss is looked up again by _dx_mono, which fills the entry
            assert calls == []
            assert len(set(memo.lookups)) == len(memo) - entries == 5 + 1
        else:
            assert len(calls) == 5 + 1
            assert memo.lookups == []


def test_total_derivative_on_special_generators():
    vm1 = da.v_pow(-1)
    assert da.total_derivative(da.log_v()) == vm1 * da.v_jet(1)
    assert da.total_derivative(da.v_pow(-2)) == da.v_pow(-3) * da.v_jet(1) * (-2)
    assert da.total_derivative(da.const(QQ(5, 3))) == ZERO


@settings(max_examples=40, deadline=None)
@given(fn_strategy(max_order=2, max_exp=2))
def test_total_derivative_matches_sympy(f):
    lhs = oracle.to_sympy(da.total_derivative(f))
    rhs = sp.diff(oracle.to_sympy(f), oracle.x)
    assert oracle.sym_equal(lhs, rhs)


@settings(max_examples=40, deadline=None)
@given(fn_strategy(), st.integers(min_value=0, max_value=3), st.sampled_from([U, V]))
def test_partial_commutator_descends_one_order(f, n, var):
    # [d/d(var,n+1), D] = d/d(var,n) on everything
    gen_hi = (var, n + 1)
    lhs = da.partial_derivative(da.total_derivative(f), gen_hi) - da.total_derivative(
        da.partial_derivative(f, gen_hi)
    )
    assert lhs == da.partial_derivative(f, (var, n))


def test_partial_derivative_log_chain_rule():
    f = da.log_v() ** 2 * da.u_jet(0)
    got = da.partial_derivative(f, (V, 0))
    want = da.v_pow(-1) * da.log_v() * da.u_jet(0) * 2
    assert got == want


def test_partial_derivative_by_an_unknown_name_is_a_magri_error():
    f = da.u_jet(0) * da.v_jet(1)
    assert da.partial_derivative(f, ("v", 1)) == da.u_jet(0)
    assert da.partial_derivative(f, (V, 1)) == da.u_jet(0)
    for name in ("x", "U", "", 5, -1, 3, True, False, 1.0, None):
        with pytest.raises(MagriError, match=f"unknown variable {name!r}"):
            da.partial_derivative(f, (name, 0))
    # an order is a nonnegative int: a bool, a float or a negative order
    # is refused, not read as 1 or 0, or leaked as a TypeError
    for order in (-1, 1.0, True, QQ(1), "1", None):
        with pytest.raises(MagriError, match="order must be a nonnegative int"):
            da.partial_derivative(f, ("v", order))
    assert da.partial_derivative(f, (LOG_VAR, 1)) == ZERO


def test_orders_and_weights():
    f = da.u_jet(4) + da.v_jet(2) * da.log_v()
    assert da.max_order(f, U) == 4
    assert da.max_order(f, V) == 2
    assert da.differential_order(f) == 4
    assert da.differential_order(da.const(7)) is None
    assert da.weight(da.u_jet(0)) == 2
    assert da.weight(da.v_jet(0)) == 2
    assert da.weight(da.u_jet(3)) == 5
    assert da.weight(da.v_pow(-2)) == -4
    assert da.weight(da.u_jet(1) * da.v_pow(-1)) == 1


@settings(max_examples=60, deadline=None)
@given(fn_strategy())
def test_euler_kills_total_derivatives(f):
    g = da.total_derivative(f)
    assert da.euler_derivative(g, U) == ZERO
    assert da.euler_derivative(g, V) == ZERO


@settings(max_examples=30, deadline=None)
@given(fn_strategy(max_order=2, max_exp=2))
def test_euler_matches_sympy(f):
    fs = oracle.to_sympy(f)
    for var in (U, V):
        lhs = oracle.to_sympy(da.euler_derivative(f, var))
        assert oracle.sym_equal(lhs, oracle.sym_euler(fs, var))


@settings(max_examples=60, deadline=None)
@given(fn_strategy(max_order=4))
def test_euler_derivative_matches_the_sum_of_signed_derivatives(f):
    # euler_derivative runs in Horner form; the definition sums
    # (-d)^n of each partial derivative separately
    for var in (U, V):
        want = ZERO
        top = da.max_order(f, var)
        for n in range(top + 1 if top is not None else 0):
            want = want + (-1) ** n * da.total_derivative(da.partial_derivative(f, (var, n)), n)
        assert da.euler_derivative(f, var) == want


@settings(max_examples=60, deadline=None)
@given(fn_strategy())
def test_antiderivative_roundtrip(f):
    g = da.total_derivative(f)
    p = da.antiderivative(g)
    assert p is not None
    assert da.total_derivative(p) == g
    assert p.constant_term() == 0


def test_antiderivative_failures():
    assert da.antiderivative(da.u_jet(0)) is None
    assert da.antiderivative(da.log_v()) is None
    assert da.antiderivative(da.u_jet(0) * da.u_jet(0)) is None
    assert da.antiderivative(ONE) is None


def test_antiderivative_produces_log():
    f = da.v_pow(-1) * da.v_jet(1)
    assert da.antiderivative(f) == da.log_v()
    assert da.is_total_derivative(f)


def test_subalgebra_membership():
    assert da.subalgebra_member(da.u_jet(1) * da.v_jet(0) ** 2, da.V_PLUS)
    assert not da.subalgebra_member(da.v_pow(-1), da.V_PLUS)
    assert da.subalgebra_member(da.v_pow(-2) * da.u_jet(0), da.scaled_v_minus(2))
    assert not da.subalgebra_member(da.v_pow(-1), da.scaled_v_minus(2))
    aff = da.affine_scaled(2)
    assert da.subalgebra_member(da.v_pow(-1) * QQ(3), aff)
    assert da.subalgebra_member(da.v_pow(-2) * da.u_jet(0), aff)
    assert not da.subalgebra_member(da.v_pow(-1) * da.u_jet(0), aff)
    assert not da.subalgebra_member(da.log_v(), aff)


def test_functional_quotient():
    f = da.u_jet(0) * da.u_jet(2)
    g = -da.u_jet(1) ** 2
    assert LocalFunctional(f) == LocalFunctional(g)
    assert da.functional_equal(f, g)
    assert LocalFunctional(da.total_derivative(helpers.rand_function(random.Random(1)))).is_zero()
    assert not LocalFunctional(da.u_jet(0)).is_zero()


def test_functional_arithmetic_and_hash():
    a = LocalFunctional(da.u_jet(0) ** 2)
    b = LocalFunctional(da.u_jet(0) ** 2 + da.total_derivative(da.u_jet(3) * da.v_jet(0)))
    assert a == b
    assert hash(a) == hash(b)
    assert (a - b).is_zero()


def test_functional_operators_work_modulo_total_derivatives():
    # seeded Laurent and log densities, each operand shifted by a total
    # derivative; every operator's result is the functional of the same
    # operation on the densities
    rng = random.Random(44)
    fs = []
    for _ in range(25):
        f, g, h = (helpers.rand_function(rng, terms=3, max_order=2) for _ in range(3))
        k = helpers.rand_coeff(rng)
        a = LocalFunctional(f + da.total_derivative(h))
        b = LocalFunctional(g - da.total_derivative(h * g))
        assert a + b == LocalFunctional(f + g)
        assert a - b == LocalFunctional(f - g)
        assert -a == LocalFunctional(-f)
        assert a * k == k * a == LocalFunctional(k * f)
        assert a * 3 == LocalFunctional(3 * f)
        # a DiffFunction or an int operand is its functional
        assert a + g == LocalFunctional(f + g) and a - 2 == LocalFunctional(f - 2)
        assert a == f and a - b == f - g and (a - a) == 0
        assert a + da.total_derivative(g) == f and LocalFunctional(da.total_derivative(f) + 5) == 5
        fs += [f, g]
    assert any(da.mono_exp(m, V, 0) < 0 for f in fs for m, _c in da.packed_terms(f))
    assert any(da.mono_exp(m, LOG_VAR, 0) for f in fs for m, _c in da.packed_terms(f))
    a = LocalFunctional(da.u_jet(0))
    assert a != 1 and a != da.v_jet(0) and a != "u"
    for bad in ("u", 1.5, None):
        with pytest.raises(TypeError):
            a + bad
        with pytest.raises(TypeError):
            a - bad
        with pytest.raises(TypeError):
            a * bad


def test_is_zero_agrees_with_the_full_invariant():
    rng = random.Random(7)
    vp, lg = da.v_jet(1), da.log_v()
    cases = [da.u_jet(0), da.const(2), vp * vp * lg, da.total_derivative(da.v_jet(2) * lg)]
    cases += [helpers.rand_function(rng) for _ in range(30)]
    cases += [da.total_derivative(helpers.rand_function(rng)) for _ in range(10)]
    for f in cases:
        du, dv, c = LocalFunctional(f)._invariant()
        want = not du and not dv and not c
        lf = LocalFunctional(f)
        assert lf.is_zero() == want
        # whether or not is_zero stopped early, equality and hashing still hold
        assert lf == LocalFunctional(f)
        assert hash(lf) == hash(LocalFunctional(f))
    # a function of v alone is settled by its Euler derivative in v
    assert not LocalFunctional(vp * vp * lg).is_zero()


def test_to_text_canonical_forms():
    f = da.u_jet(0) * da.v_pow(-1) - da.v_pow(-3) * da.v_jet(1) ** 2 / 2
    assert da.to_text(f) == "u*v^-1 - v^-3*(v')^2/2"
    assert da.to_text(da.u_jet(5)) == "u^(5)"
    assert da.to_text(da.log_v() * 2) == "2*log(v)"
    assert da.to_text(ZERO) == "0"


def _canonical_coeffs(f):
    return all(
        type(c) is int or (type(c) is QQ and c.denominator != 1) for _m, c in f.terms
    )


@settings(max_examples=40, deadline=None)
@given(
    fn_strategy(max_order=2, max_exp=2),
    fn_strategy(max_order=2, max_exp=2),
    st.integers(min_value=-6, max_value=6).filter(bool),
)
def test_coefficients_are_int_or_proper_fraction(a, b, k):
    from magri import varcalc as vc
    from magri.errors import NoSolution

    outs = [a + b, a - b, a * b, a * k, a / k, a / QQ(k, 3), -a]
    outs.append(da.total_derivative(a, 2))
    for gen in ((U, 0), (U, 1), (V, 0), (V, 2), (LOG_VAR, 0)):
        outs.append(da.partial_derivative(a, gen))
    outs += [da.euler_derivative(a, U), da.euler_derivative(a, V)]
    outs.append(da.antiderivative(da.total_derivative(a * k)))
    try:
        outs.append(vc.integrate_exact(vc.variational_derivative(a)).rep)
    except NoSolution:
        pass  # a known gap of the v-only solver on some log inputs
    for f in outs:
        assert _canonical_coeffs(f), f.terms


def test_coefficient_entry_and_division_are_exact():
    u = da.u_jet(0)
    assert (u / 2).terms == ((((U, 0, 1),), QQ(1, 2)),)
    assert type((u / 2).terms[0][1]) is QQ
    assert type((2 * u / 2).terms[0][1]) is int
    assert type((u * QQ(4, 2)).terms[0][1]) is int
    assert type((u * True).terms[0][1]) is int
    assert type(da.const(QQ(6, 3)).constant_term()) is int
    assert type(da.normalize([("3/1", ())]).constant_term()) is int
    with pytest.raises(TypeError):
        da.const(0.5)


def test_constructor_is_canonical():
    from fractions import Fraction

    m = ((U, 0, 1),)
    u, vp = da.u_jet(0), da.v_jet(1)
    assert not da.DiffFunction([(m, 0)]) and da.DiffFunction([(m, 0)]) == ZERO
    assert da.DiffFunction([(m, 1), (m, -1)]) == ZERO
    two_u = da.DiffFunction([(m, 1), (m, 1)])
    assert two_u == 2 * u and hash(two_u) == hash(2 * u)
    assert two_u.terms == ((m, 2),)
    # the triples of a monomial and the pairs come in any order
    assert da.DiffFunction([(((V, 1, 1), (U, 0, 1)), 1), (m, 3)]) == u * vp + 3 * u
    for c in (True, Fraction(2, 1)):
        got = da.DiffFunction([(m, c)])
        assert got == int(c) * u and type(got.terms[0][1]) is int
    assert type(da.DiffFunction([(m, QQ(1, 2))]).terms[0][1]) is QQ
    for c in (2.5, 1.0):
        with pytest.raises(TypeError):
            da.DiffFunction([(m, c)])
    assert da.DiffFunction.from_terms([(1, m), (1, m)]) == two_u


def test_homogeneous_parts_split_by_weight():
    rng = random.Random(89)
    for _ in range(80):
        f = helpers.rand_function(rng, terms=6)
        parts = da.homogeneous_parts(f)
        weights = [w for w, _p in parts]
        assert weights == sorted(set(weights))
        for w, p in parts:
            assert p and da.weight(p) == w
            assert p == da.DiffFunction(p.terms)  # canonical as it stands
        assert sum((p for _w, p in parts), ZERO) == f
    assert da.homogeneous_parts(ZERO) == []
    assert da.homogeneous_parts(ONE) == [(0, ONE)]


def test_integration_in_one_generator_divides_exactly():
    # the primitive of u' in u' is (u')^2/2
    got = da._integrate_in_generator(da.u_jet(1), U, 1)
    assert got == da.u_jet(1) ** 2 / 2
    assert type(got.terms[0][1]) is QQ


def test_integration_in_one_generator_matches_the_ring_products():
    # seeded Laurent and log coefficients, in v (v^-1 and log v included),
    # in v^(n) and in u^(n); the edge of the range raises on both sides
    rng = random.Random(151)
    gens = [(V, 0), (V, 1), (V, 2), (U, 0), (U, 1), (U, 3)]
    bs = [helpers.rand_function(rng, terms=4) for _ in range(120)]
    bs += [da.v_pow(-1) * da.u_jet(1), da.v_pow(-3) * da.log_v() ** 2, da.const(QQ(-5, 6))]
    for b in bs:
        for var, order in gens:
            assert da._integrate_in_generator(b, var, order) == reference.integrate_in_generator(b, var, order)
    for b, var, order in (
        (da.v_pow(da.MAX_V_EXP), V, 0),
        (da.u_jet(2) ** da.MAX_EXP * da.v_jet(0), U, 2),
    ):
        for integrate in (da._integrate_in_generator, reference.integrate_in_generator):
            with pytest.raises(ExponentOverflow):
                integrate(b, var, order)


def _exactness_inputs(rng):
    """Seeded Laurent and log inputs, exact and not, for antiderivative."""
    out = [da.v_jet(1) * da.u_jet(2), da.u_jet(1) * da.v_jet(2), da.const(3)]
    for i in range(160):
        f = helpers.rand_function(rng)
        kind = i % 5
        if kind == 0:  # exact
            out.append(da.total_derivative(f))
        elif kind == 1:  # exact plus noise
            out.append(da.total_derivative(f) + helpers.rand_function(rng, terms=1))
        elif kind == 2:  # a constant, alone or added to an exact part
            out.append(da.total_derivative(f) * (i % 2) + helpers.rand_coeff(rng))
        elif kind == 3:  # u^(a) * v^(b) * g, the shape that cycles without a rule
            a, b = rng.randint(0, 3), rng.randint(1, 3)
            out.append(da.u_jet(a) * da.v_jet(b) * helpers.rand_function(rng, terms=2))
        else:
            out.append(f)
    return out


def test_antiderivative_decides_exactness_like_the_euler_test(monkeypatch):
    calls = []
    integrate = da._integrate_in_generator

    def counted(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(da, "_integrate_in_generator", counted)
    # (u')^2 + u^3 is recovered in two rounds: order 2, then order 1
    f = da.total_derivative(da.u_jet(1) ** 2 + da.u_jet(0) ** 3)
    assert da.total_derivative(da.antiderivative(f)) == f
    assert len(calls) == 2
    inputs = _exactness_inputs(random.Random(113))
    exact = laurent = log = 0
    for x in inputs:
        del calls[:]
        g = da.antiderivative(x)
        want = reference.is_total_derivative(x)
        assert (g is not None) == want, x
        if g is not None:
            assert da.total_derivative(g) == x
        # at most two rounds per order: one in v^(n), then one in u^(n)
        assert len(calls) <= 2 * (da.differential_order(x) or 0), x
        exact += want
        laurent += da.min_v_exponent(x) < 0
        log += any(gen[0] == LOG_VAR for m, _ in x.terms for gen in m)
    assert 30 < exact < len(inputs) - 30
    assert laurent > 30 and log > 10


def test_antiderivative_computes_no_euler_derivative(monkeypatch):
    def refuse(f, var):
        raise AssertionError("the exactness test took an Euler derivative")

    inputs = _exactness_inputs(random.Random(127))
    want = [reference.is_total_derivative(x) for x in inputs]
    assert any(want) and not all(want)
    monkeypatch.setattr(da, "euler_derivative", refuse)
    assert [da.antiderivative(x) is not None for x in inputs] == want
    # inside the exponent range is_total_derivative asks antiderivative alone
    assert [da.is_total_derivative(x) for x in inputs + [ZERO]] == want + [True]
    # v'*u'' integrates in u' to -u'*v'', then in v' back to v'*u''
    assert da.antiderivative(da.v_jet(1) * da.u_jet(2)) is None
    assert da.antiderivative(da.u_jet(1) * da.v_jet(2)) is None
    assert da.antiderivative(da.total_derivative(da.u_jet(0) * da.v_jet(2))) == (
        da.u_jet(0) * da.v_jet(2)
    )


def test_is_total_derivative_matches_the_euler_test():
    # seeded Laurent and log draws: the draw itself, D of it, D of it plus
    # one term, and a constant alone or added to D of it
    rng = random.Random(149)
    inputs = [ZERO, ONE, da.const(QQ(-3, 2))]
    for i in range(300):
        f = helpers.rand_function(rng, terms=4)
        kind = i % 4
        if kind == 0:
            inputs.append(f)
        elif kind == 1:
            inputs.append(da.total_derivative(f))
        elif kind == 2:
            inputs.append(da.total_derivative(f) + helpers.rand_function(rng, terms=1))
        else:
            inputs.append(da.total_derivative(f) * (i % 2) + helpers.rand_coeff(rng))
    exact = laurent = log = 0
    for x in inputs:
        want = reference.is_total_derivative(x)
        assert da.is_total_derivative(x) == want, x
        exact += want
        laurent += da.min_v_exponent(x) < 0
        log += any(gen[0] == LOG_VAR for m, _ in x.terms for gen in m)
    assert 60 < exact < len(inputs) - 60
    assert laurent > 60 and log > 30
    # at the edge of the exponent range: the rounds of antiderivative leave
    # it on each of these, and the Euler test decides
    u, v = da.u_jet(0), da.v_jet(0)
    for f, want in (
        (v ** da.MAX_V_EXP * da.v_jet(1), True),
        (u ** da.MAX_EXP * da.u_jet(1), True),
        (v ** da.MAX_V_EXP * da.v_jet(1) * u, False),
        (da.u_jet(1) ** da.MAX_EXP * da.u_jet(2) * v, False),
    ):
        assert reference.is_total_derivative(f) == want
        assert da.is_total_derivative(f) == want, f
    f = da.v_pow(da.MIN_V_EXP) * da.v_jet(1) * da.v_jet(2)
    for test in (reference.is_total_derivative, da.is_total_derivative):
        with pytest.raises(ExponentOverflow):
            test(f)


def test_addmul_into_matches_the_naive_sum():
    rng = random.Random(61)
    for _ in range(40):
        acc = da.Accumulator()
        want = ZERO
        pairs = []
        for _ in range(rng.randint(1, 4)):
            f, g = helpers.rand_function(rng), helpers.rand_function(rng)
            k = rng.choice((1, -1, 3, QQ(2, 3), QQ(-5, 4)))
            da.addmul_into(acc, f, g, k)
            want = want + f * g * k
            # the same product, monomial by monomial, without addmul_into
            pairs += [
                (k * c1 * c2, m1 + m2) for m1, c1 in f.terms for m2, c2 in g.terms
            ]
        got = da.DiffFunction.from_acc(acc)
        assert got == want == da.normalize(pairs)
        assert _canonical_coeffs(got), got.terms
    # products that cancel leave zeros behind, and from_acc drops them
    f, g = helpers.rand_function(rng), helpers.rand_function(rng)
    acc = da.Accumulator()
    da.addmul_into(acc, f, g)
    da.addmul_into(acc, g, f, -1)
    assert da.DiffFunction.from_acc(acc) == ZERO


def test_one_term_times_one_term_is_the_general_product():
    # _times_term forms the product of two one-term factors with no list
    # and one gcd; it gives what the multiply-accumulate gives, canonical
    # form included, on Laurent and log terms with fractional coefficients
    rng = random.Random(67)
    seen = set()
    for _ in range(600):
        f, g = (helpers.rand_function(rng, terms=1, max_exp=5) for _ in range(2))
        assert len(f) == len(g) == 1
        acc = da.Accumulator()
        da.addmul_into(acc, f, g)
        want = da.DiffFunction.from_acc(acc)
        got = da._times_term(f, g)
        assert got == want == f * g == g * f, (f, g)
        assert _canonical_coeffs(got), got.terms
        (m, _c), = got._t
        seen.update(
            kind for kind, hit in (
                ("fraction", got._den != 1), ("cancels", f._den * g._den != got._den),
                ("log", da.mono_exp(m, LOG_VAR, 0)), ("v^-k", da.mono_exp(m, V, 0) < 0),
            ) if hit
        )
    assert seen == {"fraction", "cancels", "log", "v^-k"}
    # a zero factor makes no monomial, and a product out of range raises
    g = QQ(-3, 4) * da.v_pow(-2) * da.log_v()
    assert da._times_term(ZERO, g) == ZERO == ZERO * g == g * ZERO
    top, v = da.v_pow(da.MAX_V_EXP), da.v_jet(0)
    for product in (lambda: da._times_term(top, v), lambda: top * v, lambda: v * top):
        with pytest.raises(ExponentOverflow):
            product()


def _dx_mono_by_factors(m):
    """The total derivative of a tuple monomial, one DiffFunction mul and add per factor."""
    acc = ZERO
    for var, order, exp in m:
        if var == LOG_VAR:
            d_gen = da.v_jet(1) * da.v_pow(-1)
        else:
            d_gen = da.jet(var, order + 1)
        rest = da.normalize([(exp, m + ((var, order, -1),))])
        acc = acc + d_gen * rest
    return acc


def test_dx_mono_is_the_product_rule():
    monos = [
        ((V, 0, -3),),
        ((V, 0, -1), (LOG_VAR, 0, 2)),
        ((V, 0, 1), (LOG_VAR, 0, 1)),
        ((U, 1, 2), (V, 0, -2), (V, 1, 1), (LOG_VAR, 0, 3)),
        ((V, 0, -1), (V, 1, 1)),
    ]
    rng = random.Random(67)
    for _ in range(200):
        monos += [m for m, _c in helpers.rand_function(rng, terms=4).terms]
    assert any(da.mono_exp(da.pack_mono(m), V, 0) < 0 for m in monos)
    assert any(da.mono_exp(da.pack_mono(m), LOG_VAR, 0) > 1 for m in monos)
    for m in monos:
        pm = da.pack_mono(m)
        # an entry holds one (g'/g, exponent) pair per factor; the terms it yields are m + g'/g
        got = tuple((pm + step, e) for step, e in da._dx_mono(pm))
        assert got == _dx_mono_by_factors(m)._t, m


def _derivative_by_factors(f):
    """The total derivative of f, term by term through :func:`_dx_mono_by_factors`."""
    out = ZERO
    for m, c in f.terms:
        out = out + _dx_mono_by_factors(m) * c
    return out


def test_total_derivative_matches_the_product_rule(monkeypatch):
    rng = random.Random(20261019)
    # high jets leave runs of empty fields between the set ones
    u40 = da.u_jet(40)
    jets = [u40, u40**2 * da.v_pow(-3), da.v_jet(17) * u40 * da.log_v()]
    jets.append(da.jet(V, 63, 2) * da.u_jet(1))
    fs = [helpers.rand_function(rng, terms=5, max_order=4) for _ in range(120)]
    fs += [f * g for f, g in zip(fs[:40], rng.choices(jets, k=40))] + jets
    monos = [m for f in fs for m, _c in da.packed_terms(f)]
    assert any(da.mono_exp(m, V, 0) < 0 for m in monos)
    assert any(da.mono_exp(m, LOG_VAR, 0) for m in monos)
    assert any(da.mono_exp(m, LOG_VAR, 0) > 1 for m in monos)
    wants = []
    for f in fs:
        want = [f]
        for _n in (1, 2, 3):
            want.append(_derivative_by_factors(want[-1]))
        wants.append(want)
    # every operand here is short and goes through the memo; with no
    # operand short, each is read off its packed fields
    for memo_terms in (da.MEMO_TERMS, 0):
        monkeypatch.setattr(da, "MEMO_TERMS", memo_terms)
        for f, want in zip(fs, wants):
            for n in (1, 2, 3):
                # a new value each time, so that no kept tower answers
                assert da.total_derivative(-(-f), n) == want[n], (da.to_text(f), n, memo_terms)
        # v^-16384 packs to the m with m + _OFF = 0, whose fields are all
        # zero; its derivative -16384*v^-16385*v' leaves the range
        for f in (da.v_pow(-16384), da.v_pow(-16384) + da.u_jet(0)):
            with pytest.raises(ExponentOverflow):
                da.total_derivative(f)
    assert da._dx_mono(da.pack_mono(((V, 0, -16384),))) == ((da._DX_V, -16384),)


def test_jet_masks_hold_each_fields_jets_up_to_the_top_order():
    # _U_JETS holds the whole field of u, u', ..., u^(MAX_ORDER) and
    # _V_JETS that of log v and v', ..., v^(MAX_ORDER), each field once;
    # v, the signed field, lies in neither, and nothing lies above them
    w = da.EXP_BITS
    u_slots = {da._slot(U, n) for n in range(da.MAX_ORDER + 1)}
    v_slots = {da._slot(V, n) for n in range(1, da.MAX_ORDER + 1)} | {da._slot(LOG_VAR, 0)}
    for mask, slots in ((da._U_JETS, u_slots), (da._V_JETS, v_slots)):
        assert mask == sum(da._MASK << w * s for s in slots)
        for s in (0, 1, 2, 3, 2 * da.MAX_ORDER + 1, 2 * da.MAX_ORDER + 2, 2 * da.MAX_ORDER + 3):
            assert (mask >> w * s) & da._MASK == (da._MASK if s in slots else 0), s
    assert da._U_JETS & da._V_JETS == 0
    assert da._U_JETS.bit_length() == da._MAX_BITS
    assert da._V_JETS.bit_length() == da._MAX_BITS - w


def test_long_operands_leave_the_memo_alone(monkeypatch):
    helpers.fresh_dx_memo(monkeypatch)
    rng = random.Random(35)
    f = ZERO
    while len(f) <= da.MEMO_TERMS + 10:
        f = f + helpers.rand_function(rng, terms=40, max_order=4)
    short = da.DiffFunction.from_packed((c, m) for m, c in da.packed_terms(f)[:10])
    df = da.total_derivative(f)
    assert len(da._DX_MONO) == 0
    # ten of its monomials in a short operand go through the memo
    assert da.total_derivative(short) + da.total_derivative(f - short) == df
    assert len(da._DX_MONO) == 10


def test_only_the_tower_step_reads_the_memo(monkeypatch):
    # the Horner chains, the antiderivative and the commutator take their
    # derivatives through add_derivative_into, which reads no memo
    rng = random.Random(47)
    fs = [helpers.rand_function(rng, terms=4, max_order=3) for _ in range(30)]
    hs = [helpers.rand_function(rng, terms=3, max_order=2) for _ in range(30)]
    assert any(da.min_v_exponent(f) < 0 for f in fs)
    assert any(da.mono_exp(m, LOG_VAR, 0) for f in fs for m, _c in f._t)
    dhs = [da.total_derivative(h) for h in hs]
    ops = [helpers.rand_scalar_op(rng, max_deg=3) for _ in range(30)]
    fields = [helpers.rand_vector(rng, terms=2, max_order=2) for _ in range(6)]
    stars = [dop.adjoint(vc.frechet(p)) for p in fields]
    want_euler = [reference.euler_derivative(f, var) for f in fs for var in (U, V)]
    want_adjoints = [reference.apply_adjoints(list(zip(ops[k : k + 3], fs[k : k + 3]))) for k in range(0, 30, 3)]
    pairs = list(zip(range(0, 6, 2), range(1, 6, 2)))
    want_commutators = [reference.evolutionary_commutator(fields[a], fields[b]) for a, b in pairs]

    memo = helpers.fresh_dx_memo(monkeypatch)

    def refuse(m):
        raise AssertionError("the memo was filled")

    monkeypatch.setattr(da, "_dx_mono", refuse)
    assert [da.euler_derivative(f, var) for f in fs for var in (U, V)] == want_euler
    for h, dh in zip(hs, dhs):
        assert da.antiderivative(-(-dh)) == h - h.constant_term()
    assert [dop.apply_adjoints(list(zip(ops[k : k + 3], fs[k : k + 3]))) for k in range(0, 30, 3)] == want_adjoints
    got = [vc.commutator_from_adjoints(fields[a], stars[a], fields[b], stars[b]) for a, b in pairs]
    assert got == want_commutators
    assert memo == {} and memo.lookups == [] and da._dx_bytes == 0


def test_total_derivative_takes_only_nonnegative_int_orders():
    f = da.u_jet(0) * da.v_jet(0)
    for n in (-1, -3, 1.0, QQ(1), "1", None, True, False):
        with pytest.raises(MagriError, match="nonnegative integer"):
            da.total_derivative(f, n)
    assert magri.total_derivative(f, 0) is f


# -- packed monomials against a tuple-monomial reference ----------------------
#
# A reference function is a {tuple monomial: coefficient} dict; a tuple
# monomial is built from a {(var, order): exponent} dict.


def _ref_mono(exps):
    return tuple(sorted((var, order, e) for (var, order), e in exps.items() if e))


def _ref_add(out, exps, c):
    m = _ref_mono(exps)
    out[m] = out.get(m, 0) + c


def _ref_exps(m):
    return {(var, order): e for var, order, e in m}


def _ref_clean(out):
    return {m: c for m, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = _ref_exps(m1)
            for var, order, e in m2:
                exps[var, order] = exps.get((var, order), 0) + e
            _ref_add(out, exps, c1 * c2)
    return _ref_clean(out)


def _ref_dx(a):
    out = {}
    for m, c in a.items():
        for var, order, e in m:
            exps = _ref_exps(m)
            exps[var, order] -= 1
            if var == LOG_VAR:  # d log v = v' / v
                exps[V, 0] = exps.get((V, 0), 0) - 1
                exps[V, 1] = exps.get((V, 1), 0) + 1
            else:
                exps[var, order + 1] = exps.get((var, order + 1), 0) + 1
            _ref_add(out, exps, c * e)
    return _ref_clean(out)


def _ref_partial(a, var, order):
    out = {}
    for m, c in a.items():
        exps = _ref_exps(m)
        e = exps.get((var, order), 0)
        if e:
            exps[var, order] -= 1
            _ref_add(out, exps, c * e)
        j = _ref_exps(m).get((LOG_VAR, 0), 0)
        if (var, order) == (V, 0) and j:  # d(log v)/dv = 1/v
            exps = _ref_exps(m)
            exps[LOG_VAR, 0] -= 1
            exps[V, 0] = exps.get((V, 0), 0) - 1
            _ref_add(out, exps, c * j)
    return _ref_clean(out)


def _same_as_ref(f, ref):
    """f has exactly the terms of ref, in the sorted order of tuple monomials."""
    return list(f.terms) == sorted(ref.items()) and _canonical_coeffs(f)


@settings(max_examples=60, deadline=None)
@given(fn_strategy(terms=4), fn_strategy(terms=4))
def test_packed_monomials_match_a_tuple_reference(f, g):
    # Laurent and log inputs: rand_function draws v^-k and log(v)^j factors
    for h in (f, g):
        assert [pm for pm, _c in h._t] == sorted(da.pack_mono(m) for m, _c in h.terms)
        for m, _c in h.terms:
            assert da.unpack_mono(da.pack_mono(m)) == m
            weight = sum(e * (order + 2) for var, order, e in m if var != LOG_VAR)
            assert da.mono_weight(da.pack_mono(m)) == weight
            for var in (None, U, V):
                degree = sum(e for x, _order, e in m if var in (None, x))
                assert da.mono_degree(da.pack_mono(m), var) == degree, (m, var)
        assert list(h.terms) == sorted(h.terms)
        packed = [(da.unpack_mono(pm), c) for pm, c in da.packed_terms(h)]
        assert sorted(packed) == list(h.terms)
        assert da.DiffFunction.from_packed((c, da.pack_mono(m)) for m, c in h.terms) == h
        den = da.denominator([h]) * 6
        scaled = da.DiffFunction.from_packed((c, pm) for pm, c in da.integral_terms(h, den))
        assert scaled == h * den
    rf, rg = dict(f.terms), dict(g.terms)
    assert _same_as_ref(f * g, _ref_mul(rf, rg))
    want = rf
    for n in range(1, 4):
        want = _ref_dx(want)
        assert _same_as_ref(da.total_derivative(f, n), want), n
    for var, order in ((U, 0), (U, 1), (U, 3), (V, 0), (V, 1), (V, 2), (LOG_VAR, 0)):
        got = da.partial_derivative(f * g, (var, order))
        assert _same_as_ref(got, _ref_partial(_ref_mul(rf, rg), var, order)), (var, order)


# -- integer numerators over one denominator, against rational coefficients --
#
# The reference keeps one Fraction per term, as the values themselves did
# before they held int numerators over one denominator.


def _ref_of(pairs):
    """The reference of raw (coefficient, tuple monomial) pairs, summed in Fractions."""
    out = {}
    for c, m in pairs:
        exps = {}
        for var, order, e in m:
            exps[var, order] = exps.get((var, order), 0) + e
        _ref_add(out, exps, QQ(c))
    return _ref_clean(out)


def _ref_scaled(a, k):
    return _ref_clean({m: c * k for m, c in a.items()})


def _ref_sum(a, b, k=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c * k
    return _ref_clean(out)


def _ref_euler(a, var):
    out = {}
    gens = {(x, o) for m in a for x, o, _e in m}
    top = max((o for x, o in gens if x == var), default=-1)
    if var == V and (LOG_VAR, 0) in gens:
        top = max(top, 0)  # log v depends on v
    for n in range(top + 1):
        want = _ref_partial(a, var, n)
        for _ in range(n):
            want = _ref_dx(want)
        out = _ref_sum(out, want, (-1) ** n)
    return out


def _is_canonical(f):
    """Sorted distinct packed monomials, nonzero int numerators, and a
    positive denominator sharing no factor with them."""
    monos = [m for m, _c in f._t]
    nums = [c for _m, c in f._t]
    return (
        monos == sorted(set(monos))
        and all(type(c) is int and c for c in nums)
        and type(f._den) is int
        and f._den > 0
        and gcd(f._den, *nums) == 1
    )


@settings(max_examples=60, deadline=None)
@given(rng_strategy)
def test_fraction_free_values_match_rational_coefficients(rng):
    # Laurent and log monomials with rational coefficients, as rand_function draws them
    pf, pg = helpers.rand_pairs(rng, terms=4), helpers.rand_pairs(rng, terms=4)
    f, g = da.normalize(pf), da.normalize(pg)
    rf, rg = _ref_of(pf), _ref_of(pg)
    assert _same_as_ref(f, rf) and _same_as_ref(g, rg)
    for m, c in rf.items():
        assert f.coeff(m) == c and type(f.coeff(m)) is type(da.coeff_div(c, 1))
    assert f.coeff(((U, 7, 1),)) == 0
    assert f.constant_term() == rf.get((), 0)
    assert type(f.constant_term()) is type(da.coeff_div(rf.get((), 0), 1))
    checks = [
        (f + g, _ref_sum(rf, rg)),
        (f - g, _ref_sum(rf, rg, -1)),
        (f * g, _ref_mul(rf, rg)),
        (-f, _ref_scaled(rf, -1)),
    ]
    for k in (3, -2, QQ(2, 3), QQ(-5, 4), QQ(6, 2)):
        checks += [
            (f * k, _ref_scaled(rf, k)),
            (k * f, _ref_scaled(rf, k)),
            (f / k, _ref_scaled(rf, 1 / QQ(k))),
        ]
    want = rf
    for n in range(1, 4):
        want = _ref_dx(want)
        checks.append((da.total_derivative(f, n), want))
    for var, order in ((U, 0), (U, 1), (U, 3), (V, 0), (V, 1), (V, 2), (LOG_VAR, 0)):
        checks.append((da.partial_derivative(f, (var, order)), _ref_partial(rf, var, order)))
    for var in (U, V):
        checks.append((da.euler_derivative(f, var), _ref_euler(rf, var)))
    for got, ref in checks:
        assert _same_as_ref(got, ref) and _is_canonical(got), (got, ref)
    # a primitive of f', checked by differentiating it in the reference
    p = da.antiderivative(da.total_derivative(f))
    assert _is_canonical(p) and _ref_dx(dict(p.terms)) == _ref_dx(rf)
    assert p.constant_term() == 0


@settings(max_examples=60, deadline=None)
@given(fn_strategy(terms=4), fn_strategy(terms=4))
def test_equal_values_built_two_ways_are_equal_and_hash_equal(f, g):
    u = da.u_jet(0)
    for a, b in (
        ((f / 3) * 3, f),
        (f + g - g, f),
        (f * QQ(2, 7) / QQ(2, 7), f),
        ((f * 6 + g * 4) / 2, f * 3 + g * 2),
        (da.DiffFunction(f.terms), f),
        (f * QQ(1, 2) + f * QQ(1, 3), f * QQ(5, 6)),
        ((u / 4 + f) - f, u / 4),
    ):
        assert a == b and hash(a) == hash(b)
        assert (a._t, a._den) == (b._t, b._den) and _is_canonical(a)
    assert f - f == ZERO and (f - f)._den == 1 and hash(f - f) == hash(ZERO)


def test_exponent_overflow_raises_with_rational_coefficients():
    from magri.errors import ExponentOverflow

    u = da.u_jet(0)
    assert (u ** da.MAX_EXP / 3)._den == 3
    with pytest.raises(ExponentOverflow):
        u ** da.MAX_EXP / 3 * (u * QQ(2, 5))
    with pytest.raises(ExponentOverflow):
        u ** da.MAX_EXP / 3 + da.DiffFunction([(((U, 0, da.MAX_EXP + 1),), QQ(1, 2))])
    with pytest.raises(ExponentOverflow):
        da.total_derivative(da.v_pow(da.MIN_V_EXP) * da.log_v() / 7)
    with pytest.raises(ExponentOverflow):
        da.partial_derivative(da.v_pow(da.MIN_V_EXP) * QQ(3, 4), (V, 0))
    with pytest.raises(ExponentOverflow):
        da.antiderivative(da.v_pow(da.MAX_V_EXP) * da.v_jet(1) / 5)


def test_packed_monomial_edges_round_trip():
    for m in (
        (),
        ((V, 0, da.MIN_V_EXP),),
        ((V, 0, da.MAX_V_EXP), (LOG_VAR, 0, da.MAX_EXP)),
        ((U, 0, da.MAX_EXP), (U, 40, 1), (V, 0, -1), (V, 40, da.MAX_EXP)),
    ):
        pm = da.pack_mono(m)
        assert da.unpack_mono(pm) == m
        assert da.DiffFunction([(m, 1)]).terms == ((m, 1),)
    assert da.max_order(da.u_jet(40) * da.v_pow(-1), U) == 40
    assert da.max_order(da.u_jet(40) * da.v_pow(-1), V) == 0


def test_exponent_overflow_raises():
    from magri.errors import ExponentOverflow

    u = da.u_jet(0)
    f = u
    for _ in range(da.EXP_BITS - 2):
        f = f * f
    assert f.terms == ((((U, 0, 2 ** (da.EXP_BITS - 2)),), 1),)
    with pytest.raises(ExponentOverflow):
        f * f  # u^(2^(EXP_BITS - 1)) has no field
    assert (u ** da.MAX_EXP).terms == ((((U, 0, da.MAX_EXP),), 1),)
    with pytest.raises(ExponentOverflow):
        u ** da.MAX_EXP * u
    # each total derivative lowers the power of v by one
    f = da.v_pow(-1) ** (-da.MIN_V_EXP - 2)
    low = da.total_derivative(f, 2)
    assert da.min_v_exponent(low) == da.MIN_V_EXP
    with pytest.raises(ExponentOverflow):
        da.total_derivative(f, 3)
    with pytest.raises(ExponentOverflow):
        da.total_derivative(da.v_pow(da.MIN_V_EXP) * da.log_v())
    with pytest.raises(ExponentOverflow):
        da.partial_derivative(da.v_pow(da.MIN_V_EXP), (V, 0))
    with pytest.raises(ExponentOverflow):
        da.total_derivative(da.v_jet(0) * da.v_jet(1) ** da.MAX_EXP)  # v' * (v')^MAX_EXP
    with pytest.raises(ExponentOverflow):
        da.v_pow(da.MIN_V_EXP - 1)
    with pytest.raises(ExponentOverflow):
        da.jet(U, 2, da.MAX_EXP + 1)
    with pytest.raises(ExponentOverflow):
        da.antiderivative(da.v_pow(da.MAX_V_EXP) * da.v_jet(1))


def test_antiderivative_out_of_range_is_decided_by_the_euler_test():
    # the loop integrates these into an exponent one past the range before
    # it can see that they are not exact; exact input whose primitive the
    # ring cannot hold still raises (test_exponent_overflow_raises)
    u, v = da.u_jet(0), da.v_jet(0)
    for f in (
        da.u_jet(1) ** da.MAX_EXP * da.u_jet(2) * v,
        v ** da.MAX_V_EXP * da.v_jet(1) * u,
    ):
        assert not da.is_total_derivative(f)
        assert da.antiderivative(f) is None
        assert da.antiderivative(f, tag=da.V_PLUS) is None


def test_antiderivative_raises_where_neither_the_rounds_nor_the_euler_test_stay_in_range():
    # a round on v^-16384*v'*v'' reaches v^-16385, and so does the Euler
    # test, whose partial derivative by v lowers the power of v: the ring
    # cannot decide whether it is exact
    f = da.v_pow(da.MIN_V_EXP) * da.v_jet(1) * da.v_jet(2)
    for test in (da.antiderivative, da.is_total_derivative):
        with pytest.raises(ExponentOverflow):
            test(f)


def test_subalgebra_tag_rejects_bad_kind_and_power():
    from magri.errors import MagriError

    for kind, power in (("bogus", 0), ("scaled_plus", -2), ("minus", -1), ("plus", 1.0)):
        with pytest.raises(MagriError):
            da.SubalgebraTag(kind, power)
    with pytest.raises(MagriError):
        da.SubalgebraTag("affine_scaled", True)
    for make in (da.scaled_v_minus, da.scaled_v_plus, da.affine_scaled):
        assert make(1).bounds
        for k in (0, -1):
            with pytest.raises(MagriError, match="needs k >= 1"):
                make(k)
    # the v-nonpositive image of integration: v^1 plus the v^0 scaled space
    tag = da.SubalgebraTag("affine_scaled", 0)
    assert tag.bounds == (None, 0, 1)
    assert da.subalgebra_member(da.v_jet(0) + da.u_jet(0), tag)
    assert not da.subalgebra_member(da.v_jet(0) * da.u_jet(0), tag)


# -- references: the subalgebra tests as string dispatches on the tag kind ----


def _ref_mono_in_tag(m, tag):
    has_log = da.mono_exp(m, LOG_VAR, 0) != 0
    ve = da.mono_exp(m, V, 0)
    if tag.kind == "plus":
        return not has_log and ve >= 0
    if tag.kind == "minus":
        return not has_log and ve <= 0
    if tag.kind == "zero":
        return not has_log and ve == 0
    if tag.kind == "scaled_minus":
        return not has_log and ve <= -tag.power
    if tag.kind == "scaled_plus":
        return not has_log and ve >= tag.power
    if tag.kind == "affine_scaled":
        if has_log:
            return False
        if ve <= -tag.power:
            return True
        return m == ve == 1 - tag.power
    raise AssertionError(tag)


def _ref_member(f, tag):
    return all(_ref_mono_in_tag(da.pack_mono(m), tag) for m, _ in f.terms)


_REF_TAG_RESULT = {
    "plus": lambda tag: da.V_PLUS,
    "minus": lambda tag: da.SubalgebraTag("affine_scaled", 0),
    "scaled_minus": lambda tag: da.affine_scaled(tag.power),
    "affine_scaled": lambda tag: tag,
    "zero": lambda tag: tag,
}


def _ref_antiderivative(f, tag):
    g = da.antiderivative(f)
    if g is None:
        return None
    if tag.kind == "minus":
        ok = all(
            not da.mono_exp(m, LOG_VAR, 0) and (da.mono_exp(m, V, 0) <= 0 or m == 1)
            for m in map(da.pack_mono, (m for m, _ in g.terms))
        )
    else:
        paired = _REF_TAG_RESULT.get(tag.kind)
        if paired is None:
            return "no antiderivative target space"
        ok = _ref_member(g, paired(tag))
    return g if ok else None


def test_subalgebra_intervals_match_the_string_dispatch():
    from magri.errors import MagriError

    tags = [da.V_PLUS, da.V_MINUS, da.V_ZERO]
    tags += [da.SubalgebraTag("affine_scaled", 0)]
    for k in (1, 2, 3):
        tags += [da.scaled_v_minus(k), da.scaled_v_plus(k), da.affine_scaled(k)]
    rng = random.Random(97)
    laurent = log = 0
    for i in range(400):
        if i % 3 == 0:
            f = helpers.rand_function(rng)
        else:
            f = helpers.rand_scaled_minus(rng, rng.randint(0, 3))
        if i % 2:
            f = f + helpers.rand_coeff(rng) * da.v_pow(rng.randint(-3, 2))
        laurent += da.min_v_exponent(f) < 0
        log += any(g[0] == LOG_VAR for m, _ in f.terms for g in m)
        g = da.total_derivative(f - da.const(f.constant_term()))
        for tag in tags:
            assert da.subalgebra_member(f, tag) == _ref_member(f, tag), (f, tag)
            want = _ref_antiderivative(g, tag)
            if isinstance(want, str):
                with pytest.raises(MagriError, match=want):
                    da.antiderivative(g, tag=tag)
            else:
                assert da.antiderivative(g, tag=tag) == want, (f, tag)
    assert laurent > 100 and log > 30
    # scaled_minus of power 0 is the minus space, and integrates into its image
    # (the dispatch above sent it to affine_scaled(0), which raised)
    minus0 = da.SubalgebraTag("scaled_minus", 0)
    for _ in range(40):
        g = da.total_derivative(helpers.rand_scaled_minus(rng, 0) + da.v_jet(0))
        assert da.antiderivative(g, tag=minus0) == _ref_antiderivative(g, da.V_MINUS)


def _ref_v_candidates(wt, order_bound, v_floor, include_log):
    # the v-only enumerator of varcalc before diffalg.monomials replaced it
    out = []
    jets = list(range(1, max(order_bound, 0) + 1))

    def rec(idx, remaining, acc):
        if idx == len(jets):
            if remaining % 2 == 0:
                e = remaining // 2
                if e >= v_floor:
                    m = tuple(acc) if not e else tuple(sorted(acc + [(V, 0, e)]))
                    out.append(tuple(sorted(m, key=lambda g: (g[0], g[1]))))
            return
        n = jets[idx]
        w = n + 2
        e = 0
        while True:
            used = e * w
            if v_floor * 2 > remaining - used:
                break
            rec(idx + 1, remaining - used, acc + ([(V, n, e)] if e else []))
            e += 1

    rec(0, wt, [])
    cands = list(out)
    if include_log:
        log_g = (LOG_VAR, 0, 1)
        for m in list(cands):
            if not any(g[0] == V and g[1] == 0 for g in m):
                cands.append(tuple(sorted(m + (log_g,), key=lambda g: (g[0], g[1]))))
    return sorted(set(cands))


def test_monomials_match_the_v_only_enumerator():
    for wt in range(-4, 16):
        for order_bound in range(-1, 5):
            for v_floor in (-5, -3, -1, 0, 1, 2, 4):
                for include_log in (False, True):
                    got = da.monomials(
                        wt, order_bound, v_floor, fields=(V,), include_log=include_log
                    )
                    # packed, in the order of the tuple forms
                    assert list(map(da.unpack_mono, got)) == _ref_v_candidates(
                        wt, order_bound, v_floor, include_log
                    ), (wt, order_bound, v_floor, include_log)
    # an upper bound on v, and the u jets
    for m in da.monomials(6, 2, -2, 0):
        assert da.mono_weight(m) == 6 and -2 <= da.mono_exp(m, V, 0) <= 0
    assert da.pack_mono(((U, 0, 1), (V, 0, 1))) in da.monomials(4, 0, 0)
    assert da.monomials(4, 0, 0, fields=(V,)) == (da.pack_mono(((V, 0, 2),)),)


def _ref_monomials(weight, order_bound, lo, hi=None, affine=None, fields=(U, V), include_log=False):
    # the tuple-form enumerator that diffalg.monomials replaced, sorted
    gens = [(var, n) for var in sorted(fields) for n in range(1 if var == V else 0, order_bound + 1)]
    out = []

    def rec(idx, rest, acc):
        if idx == len(gens):
            e, odd = divmod(rest, 2)
            if not odd and (lo <= e and (hi is None or e <= hi) or not acc and e == affine):
                out.append(tuple(sorted(acc + ((V, 0, e),))) if e else acc)
            return
        var, n = gens[idx]
        e = 0
        while rest - e * (n + 2) >= 2 * lo:
            rec(idx + 1, rest - e * (n + 2), acc + ((var, n, e),) if e else acc)
            e += 1

    rec(0, weight, ())
    if include_log:
        out += [tuple(sorted(m + ((LOG_VAR, 0, 1),))) for m in out if not any(g[:2] == (V, 0) for g in m)]
    return sorted(out)


def test_monomials_are_packed_ints_in_the_order_of_their_tuple_forms(monkeypatch):
    # monomials adds packed units, checks the range once and sorts by
    # flat_mono: no tuple monomial is built and pack_mono is not called
    def no_pack(mono):
        raise AssertionError("pack_mono was called")

    monkeypatch.setattr(da, "pack_mono", no_pack)
    spaces = 0
    for wt in range(-2, 11):
        for order_bound in range(-1, 4):
            for lo in (-2, 0, 1):
                for hi, affine in ((None, None), (0, None), (1, -1), (-1, 0)):
                    for fields, include_log in (((U, V), False), ((U, V), True), ((V,), True)):
                        args = (wt, order_bound, lo, hi, affine, fields, include_log)
                        got = da.monomials(*args)
                        assert list(map(da.unpack_mono, got)) == _ref_monomials(*args), args
                        spaces += len(got) > 1
    assert spaces > 500
    # a power of v out of range still raises, and so does a jet exponent
    # that would carry into the next field (u^65536 packs as v')
    for args in ((2 * (da.MAX_V_EXP + 1), 0, 0), (2 * (da.MIN_V_EXP - 1), 0, da.MIN_V_EXP - 1)):
        with pytest.raises(ExponentOverflow):
            da.monomials(*args, fields=(V,))
    with pytest.raises(ExponentOverflow):
        da.monomials(2 * 65536, 0, 0, hi=0)
    assert da.monomials(2 * da.MAX_V_EXP, 0, 0, fields=(V,)) == (da.MAX_V_EXP,)
    assert da.monomials(2 * da.MIN_V_EXP, 0, da.MIN_V_EXP, fields=(V,)) == (da.MIN_V_EXP,)


def test_terms_are_built_from_the_text_rows(monkeypatch):
    # DiffFunction.terms decodes and sorts each value once, through
    # text_terms, and reads no unpack_mono; it equals the decode-and-sort
    # it replaced on Laurent and log draws
    rng = random.Random(20261020)
    fs = [da.normalize(helpers.rand_pairs(rng, terms=6)) for _ in range(300)]
    want = [
        tuple(sorted(((da.unpack_mono(m), c) for m, c in da.packed_terms(f)), key=lambda t: t[0]))
        for f in fs
    ]

    def no_unpack(m):
        raise AssertionError("unpack_mono was called")

    monkeypatch.setattr(da, "unpack_mono", no_unpack)
    got = [f.terms for f in fs]
    assert got == want
    assert [[type(c) for _m, c in t] for t in got] == [[type(c) for _m, c in t] for t in want]
    gens = [g[:2] for t in got for m, _c in t for g in m]
    assert (LOG_VAR, 0) in gens and any(g[2] < 0 for t in got for m, _c in t for g in m)


# -- one remainder across the rounds of antiderivative ------------------------


def _round_by_round_antiderivative(f):
    """antiderivative as it was when each round rebuilt the whole remainder:
    a canonical value per round, its order, v^(n) test and partial
    derivatives read off the whole of it.  No tag."""
    from functools import reduce
    from operator import or_

    g = da.Accumulator()
    work = f
    last_u = None
    try:
        while work:
            n = da.differential_order(work)
            if n is None or n == 0 or n == last_u:
                return None
            bits = reduce(or_, [m + da._OFF for m, _ in work._t])
            var = V if (bits >> da.EXP_BITS * da._slot(V, n)) & da._MASK else U
            top = da.partial_derivative(work, (var, n))
            if da.partial_derivative(top, (var, n)):
                return None
            t_ord = da.differential_order(top)
            if t_ord is not None and t_ord >= n:
                return None
            if var == U:
                last_u = n
            p = da._integrate_in_generator(top, var, n - 1)
            da.add_into(g, p)
            d = da.Accumulator(work._t, work._den)
            da.add_derivative_into(d, p, -1)
            work = da.DiffFunction.from_acc(d)
        g = da.DiffFunction.from_acc(g)
    except ExponentOverflow:
        if reference.is_total_derivative(f):
            raise
        return None
    return g


def _outcome(fn, f):
    """fn(f), or the marker "overflow" when it raises ExponentOverflow."""
    try:
        return fn(f)
    except ExponentOverflow:
        return "overflow"


def test_antiderivative_matches_the_round_by_round_reference(monkeypatch):
    rounds = []
    integrate = da._integrate_in_generator

    def counted(b, var, order):
        rounds.append((b, var, order))
        return integrate(b, var, order)

    monkeypatch.setattr(da, "_integrate_in_generator", counted)
    u, v = da.u_jet(0), da.v_jet(0)
    inputs = _exactness_inputs(random.Random(131)) + [
        da.v_jet(1) * da.u_jet(2),
        v ** da.MAX_V_EXP * da.v_jet(1) * u,  # leaves the range, not exact: None
        v ** da.MAX_V_EXP * da.v_jet(1),  # leaves the range, exact: raises
        da.u_jet(1) ** da.MAX_EXP * da.u_jet(2) * v,
        # the first primitive is in range, but its derivative reaches
        # v^(MIN - 1): not exact, so None, where the Euler test itself leaves
        # the range (it takes d/dv) and so raises
        da.v_pow(da.MIN_V_EXP) * da.v_jet(2) * u,
        da.v_pow(da.MIN_V_EXP) * da.v_jet(1) * da.v_jet(2),
    ]
    rng = random.Random(137)
    for _ in range(60):  # larger exact and not-quite-exact inputs, Laurent and log
        f = helpers.rand_function(rng, terms=6, max_order=4)
        inputs.append(da.total_derivative(f))
        inputs.append(da.total_derivative(f) + helpers.rand_function(rng, terms=2, max_order=4))
    kinds = {"none": 0, "overflow": 0, "primitive": 0}
    for f in inputs:
        del rounds[:]
        got = _outcome(da.antiderivative, f)
        got_rounds = rounds[:]
        del rounds[:]
        want = _outcome(_round_by_round_antiderivative, f)
        assert got == want, f
        # the same rounds, in the same order, integrate the same coefficients
        assert got_rounds == rounds, f
        kinds["none" if want is None else "overflow" if want == "overflow" else "primitive"] += 1
    assert kinds["none"] > 30 and kinds["primitive"] > 60 and kinds["overflow"] == 2


def test_antiderivative_result_is_canonical_after_cancelling_rounds():
    # each round cancels terms of the remainder, and no later round, nor
    # the primitive, may see a zero
    rng = random.Random(139)
    for _ in range(40):
        f = helpers.rand_function(rng, terms=5, max_order=3)
        g = da.antiderivative(da.total_derivative(f))
        want = f - da.const(f.constant_term())
        assert g == want
        assert all(c for _m, c in g._t)


# -- partial derivatives by every jet of a field in one pass ------------------


def test_partial_derivatives_match_partial_derivative_at_every_order():
    rng = random.Random(149)
    fs = [da.log_v(), da.v_pow(-3), da.ONE, ZERO, da.u_jet(5) * da.log_v() ** 2]
    fs += [helpers.rand_function(rng, terms=5, max_order=5) for _ in range(150)]
    assert any(da.min_v_exponent(f) < 0 for f in fs)
    assert any(da.mono_exp(m, LOG_VAR, 0) for f in fs for m, _c in f._t)
    for f in fs:
        for var, name in ((U, "u"), (V, "v")):
            parts = da.partial_derivatives(f, var)
            assert da.partial_derivatives(f, name) == parts
            top = da.max_order(f, var)
            assert len(parts) == (0 if top is None else top + 1)
            for k, p in enumerate(parts):
                assert p == da.partial_derivative(f, (var, k)), (f, var, k)


def test_euler_derivative_and_max_order_take_only_a_field():
    u, v2 = da.u_jet(0), da.v_jet(2)
    f = u * v2 + da.v_jet(0) ** 2
    assert da.euler_derivative(f, "u") == da.euler_derivative(f, U) == v2
    assert da.euler_derivative(f, "v") == da.euler_derivative(f, V)
    assert da.euler_derivative(f, V) == da.u_jet(2) + 2 * da.v_jet(0)
    assert da.max_order(f, "u") == da.max_order(f, U) == 0
    assert da.max_order(f, "v") == da.max_order(f, V) == 2
    assert da.max_order(f) == 2
    for var in (2, 5, -1, "log", LOG_VAR, True, False, 1.0, "x", "U", None):
        with pytest.raises(MagriError, match=f"unknown field {var!r}"):
            da.euler_derivative(f, var)
        if var is not None:  # None asks max_order for every jet
            with pytest.raises(MagriError, match=f"unknown field {var!r}"):
                da.max_order(f, var)
        with pytest.raises(MagriError, match=f"unknown field {var!r}"):
            da.partial_derivatives(f, var)


def test_jets_take_only_int_orders_and_exponents():
    assert da.jet(U, 1) == da.u_jet(1)
    assert da.jet(V, 0, -2) == da.v_pow(-2)
    assert da.jet(U, 3, 0) == ONE
    bad = [
        (lambda: da.jet(U, True), "True"),
        (lambda: da.jet(U, 1.0), "1.0"),
        (lambda: da.jet(True, 0), "True"),
        (lambda: da.jet(U, 0, True), "True"),
        (lambda: da.jet(V, 0, QQ(2)), "Fraction"),
        (lambda: da.u_jet(True), "True"),
        (lambda: da.u_jet(1.0), "1.0"),
        (lambda: da.v_jet(False), "False"),
        (lambda: da.v_jet(2.0), "2.0"),
        (lambda: da.v_pow(1.5), "1.5"),
        (lambda: da.v_pow(True), "True"),
    ]
    for make, shown in bad:
        with pytest.raises(MagriError, match="a jet takes an int variable code, order and exponent") as info:
            make()
        assert shown in str(info.value)
    with pytest.raises(MagriError, match="negative jet order"):
        da.u_jet(-1)


def test_dot_refuses_vectors_of_unequal_lengths():
    u, v = da.u_jet(0), da.v_jet(0)
    # zip alone would stop at the shorter vector and make dot((u,), (u, v)) u^2
    for a, b in (((u,), (u, v)), ((u, v), (u,)), ((), (u,))):
        with pytest.raises(DimensionMismatch):
            da.dot(a, b)
    assert da.dot((u, v), (v, da.log_v())) == u * v + v * da.log_v()
    assert da.dot((), ()) == ZERO


def test_dx_mono_reads_through_the_field_loop(monkeypatch):
    # a miss fills its entry from the one loop that reads a monomial's
    # factors, run once on the one-term operand of the monomial alone
    helpers.fresh_dx_memo(monkeypatch)
    calls = []
    fields_into = da._dx_fields_into

    def counting(d, terms, k):
        calls.append(terms)
        return fields_into(d, terms, k)

    monkeypatch.setattr(da, "_dx_fields_into", counting)
    m = da.pack_mono(((U, 3, 1), (V, 0, -2), (V, 5, 2), (LOG_VAR, 0, 1)))
    entry = da._dx_mono(m)
    assert calls == [((m, 1),)]
    assert [e for _step, e in entry] == [1, -2, 1, 2]
    assert da._dx_mono(m) is entry and len(calls) == 1


# the extremes of each field, and lone jets of the top order
_EXTREME_MONOS = (
    ((V, 0, da.MIN_V_EXP),),
    ((V, 0, da.MAX_V_EXP),),
    ((LOG_VAR, 0, da.MAX_EXP),),
    ((LOG_VAR, 0, 3), (V, 0, -2), (U, 0, 1)),
    ((U, da.MAX_ORDER, 1), (V, 0, 1)),
    ((V, da.MAX_ORDER, da.MAX_EXP), (U, 0, da.MAX_EXP), (V, 0, da.MIN_V_EXP)),
    ((U, da.MAX_ORDER, 1),),
    ((V, da.MAX_ORDER, 1),),
    ((LOG_VAR, 0, 1),),
    ((V, da.MAX_ORDER, 2), (LOG_VAR, 0, 1)),
    ((U, da.MAX_ORDER, 3), (V, da.MAX_ORDER - 1, 1), (V, 0, -1)),
)


def _decoder_monomials():
    # seeded Laurent and log monomials with jets up to order 40, every
    # monomial of a chain, and the extremes of each field (_EXTREME_MONOS)
    rng = random.Random(42)
    monos = set()
    while len(monos) < 20000:
        top = rng.choice((0, 1, 3, 8, 40))
        mono = [(rng.choice((U, V)), rng.randint(0, top), rng.randint(1, 40)) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.5:
            mono.append((V, 0, rng.randint(-40, -1)))
        if rng.random() < 0.3:
            mono.append((LOG_VAR, 0, rng.randint(1, 5)))
        monos.add(da.pack_mono(mono))
    run = magri.run_hierarchy(1, 1, 2)
    for vec in run.gradients + run.flows:
        monos.update(m for f in vec for m, _c in f._t)
    for mono in _EXTREME_MONOS:
        monos.add(da.pack_mono(mono))
    return sorted(monos)


def test_readers_walk_the_fields_as_the_shift_loops_did():
    # flat_mono, mono_weight, mono_degree, partial_derivatives and
    # max_order walk only the nonzero fields of a monomial, or of the OR of
    # a function's monomials; the loops that stepped through every field
    # are the reference, on every field, sign and jet order
    monos = _decoder_monomials()
    assert len(monos) > 20000
    for m in monos:
        assert da.flat_mono(m) == reference.flat_mono(m), m
        assert da.mono_weight(m) == reference.mono_weight(m), m
        for var in (None, U, V):
            assert da.mono_degree(m, var) == reference.mono_degree(m, var), (m, var)
    # each monomial alone, and runs of seven of them, as functions
    ones = [da._df(((m, 1),)) for m in monos]
    runs = [da._df(tuple((m, c) for c, m in enumerate(monos[i : i + 7], 1))) for i in range(0, len(monos), 7)]
    for f in ones + runs:
        for var in (None, U, V):
            assert da.max_order(f, var) == reference.max_order(f, var), (f, var)
    for f in runs + [da.DiffFunction([(mono, 1)]) for mono in _EXTREME_MONOS]:
        for var in (U, V):
            # by v, the power v^MIN_V_EXP leaves the range in both
            got = _outcome(lambda f: da.partial_derivatives(f, var), f)
            assert got == _outcome(lambda f: reference.partial_derivatives(f, var), f), (f, var)
    assert da.max_order(ZERO) is None


def test_one_guard_mask_bounds_every_field():
    # _GUARD holds the top bit of each field up to that of u^(MAX_ORDER):
    # an exponent out of range in any of them is refused, and a field
    # above them is a jet order out of range
    assert da._GUARD.bit_length() == da._MAX_BITS
    top = da.pack_mono(((U, da.MAX_ORDER, da.MAX_EXP),))
    da._check_range((top, da.MIN_V_EXP, da.MAX_V_EXP))
    for m in (top + (1 << da._MAX_BITS - da.EXP_BITS), da.MAX_V_EXP + 1, da.MIN_V_EXP - 1):
        with pytest.raises(ExponentOverflow, match="an exponent left its range"):
            da._check_range((0, m))
    with pytest.raises(ExponentOverflow, match="a jet order left its range"):
        da._check_range((1 << da._MAX_BITS,))
    assert da._mono_power(top, 1) == top
    with pytest.raises(ExponentOverflow):
        da._mono_power(top, 2)


def _constant_calls():
    # each routine of the ring on a constant c, and whether it takes a vector
    from magri import varcalc as vc

    return [
        ("euler_derivative", lambda c: da.euler_derivative(c, U)),
        ("total_derivative", lambda c: da.total_derivative(c)),
        ("partial_derivative", lambda c: da.partial_derivative(c, (U, 0))),
        ("partial_derivatives", lambda c: da.partial_derivatives(c, V)),
        ("antiderivative", lambda c: da.antiderivative(c)),
        ("is_total_derivative", lambda c: da.is_total_derivative(c)),
        ("integrate_exact", lambda c: vc.integrate_exact((c,))),
        ("frechet", lambda c: vc.frechet((c,))),
        ("is_closed", lambda c: vc.is_closed((c,))),
        ("max_order", lambda c: da.max_order(c)),
        ("weight", lambda c: da.weight(c)),
        ("min_v_exponent", lambda c: da.min_v_exponent(c)),
        ("subalgebra_member", lambda c: da.subalgebra_member(c, da.V_PLUS)),
        ("differential_order", lambda c: da.differential_order(c)),
    ]


def _result(call, c):
    try:
        return "value", call(c)
    except MagriError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name, call", _constant_calls(), ids=[n for n, _c in _constant_calls()])
def test_ring_routines_take_a_constant_as_its_function(name, call):
    # an int or a Fraction is its constant, as LocalFunctional and
    # variational_derivative take it; anything else is a MagriError, not
    # an AttributeError or a TypeError
    for c in (3, QQ(1, 2), 0):
        assert _result(call, c) == _result(call, da.const(c)), c
    for bad in ("u", 1.5, None):
        with pytest.raises(MagriError, match="a differential function or a constant"):
            call(bad)
