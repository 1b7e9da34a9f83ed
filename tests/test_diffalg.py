"""Ring arithmetic, derivations, Euler operator, antiderivatives."""

from __future__ import annotations

import random
from math import gcd

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import helpers
import oracle
from magri import diffalg as da
from magri.diffalg import (
    LOG_VAR,
    LocalFunctional,
    ONE,
    QQ,
    U,
    V,
    ZERO,
)

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
    calls = []
    dx_into = da._dx_into

    def counting(acc, f):
        calls.append(f)
        return dx_into(acc, f)

    monkeypatch.setattr(da, "_dx_into", counting)
    u, v = da.u_jet(0), da.v_jet(0)
    f = u * u * da.v_pow(-1) + da.log_v() * v
    d3 = da.total_derivative(f, 3)
    assert len(calls) == 3
    calls.clear()
    assert da.total_derivative(f, 2) == da.total_derivative(da.total_derivative(f), 1)
    assert da.total_derivative(f, 3) is d3
    assert da.total_derivative(f, 0) is f
    assert calls == []
    # an equal value built elsewhere has its own tower, with the same derivatives
    assert da.total_derivative(-(-f), 3) == d3
    assert len(calls) == 3
    # a zero derivative is ZERO itself and ends the walk
    calls.clear()
    assert da.total_derivative(u, 5) == da.u_jet(5)
    assert da.total_derivative(da.const(7), 1000) is ZERO
    assert len(calls) == 5 + 1


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


def test_antiderivative_fuel_limit_raises(monkeypatch):
    from magri.errors import FuelExhausted

    # (u')^2 + u^3 is recovered in two rounds: order 2, then order 1
    f = da.total_derivative(da.u_jet(1) ** 2 + da.u_jet(0) ** 3)
    monkeypatch.setattr(da, "_ANTIDERIVATIVE_FUEL", 1)
    with pytest.raises(FuelExhausted):
        da.antiderivative(f)
    monkeypatch.setattr(da, "_ANTIDERIVATIVE_FUEL", 2)
    assert da.total_derivative(da.antiderivative(f)) == f
    assert da.antiderivative(da.u_jet(0)) is None


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
        assert da._dx_mono(da.pack_mono(m)) == _dx_mono_by_factors(m)._t, m


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
        assert list(h.terms) == sorted(h.terms)
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


def test_subalgebra_tag_rejects_bad_kind_and_power():
    from magri.errors import MagriError

    for kind, power in (("bogus", 0), ("scaled_plus", -2), ("minus", -1), ("plus", 1.0)):
        with pytest.raises(MagriError):
            da.SubalgebraTag(kind, power)
    with pytest.raises(MagriError):
        da.SubalgebraTag("affine_scaled", True)
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
                    assert list(got) == _ref_v_candidates(
                        wt, order_bound, v_floor, include_log
                    ), (wt, order_bound, v_floor, include_log)
    # an upper bound on v, and the u jets
    for m in da.monomials(6, 2, -2, 0):
        pm = da.pack_mono(m)
        assert da.mono_weight(pm) == 6 and -2 <= da.mono_exp(pm, V, 0) <= 0
    assert ((U, 0, 1), (V, 0, 1)) in da.monomials(4, 0, 0)
    assert da.monomials(4, 0, 0, fields=(V,)) == (((V, 0, 2),),)
