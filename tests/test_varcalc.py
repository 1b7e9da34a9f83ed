"""Variational derivatives, Frechet derivatives, exactness, homotopy."""

from __future__ import annotations

import random

import pytest
import sympy as sp

import helpers
import oracle
import reference
import magri
from magri import diffalg as da
from magri import diffop as dop
from magri import lenard
from magri import varcalc as vc
from magri.diffalg import LocalFunctional, QQ, U, V, ZERO
from magri.errors import DimensionMismatch, MagriError, NoSolution, NotClosed


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
    # closedness is tested only once the integration fails, and still
    # names the first entry where the Frechet derivative is not self-adjoint
    u, v, up, vp, lg = da.u_jet(0), da.v_jet(0), da.u_jet(1), da.v_jet(1), da.log_v()
    cases = [
        ((up, ZERO), "(1, 1)"),
        ((u * da.v_pow(-1), vp * da.v_pow(-2)), "(1, 2)"),
        ((lg, u * vp), "(1, 2)"),
        ((u * u * lg, v * up), "(1, 2)"),
        ((up * da.v_pow(-3),), "(1, 1)"),
        ((u, v, u), "(1, 3)"),
    ]
    for vec, entry in cases:
        with pytest.raises(NotClosed) as info:
            vc.integrate_exact(vec)
        assert str(info.value) == f"vector is not a variational gradient; entry {entry}"
    # a closed vector with a third component is out of reach, not an IndexError
    for vec in ((da.ONE, ZERO, ZERO), ()):
        with pytest.raises(DimensionMismatch):
            vc.integrate_exact(vec)


def test_integrate_exact_keeps_the_gradient_it_checked():
    rng = random.Random(29)
    for _ in range(20):
        h = helpers.rand_function(rng, terms=3, max_order=2, max_exp=2, log_ok=False)
        xi = vc.variational_derivative(h)
        if not any(xi):
            continue
        got = vc.integrate_exact(xi)
        assert got.variational_gradient() == xi
        assert got._invariant() == LocalFunctional(got.rep)._invariant()


def test_integrate_exact_mixed_weights():
    h = (
        da.u_jet(0) ** 3
        + da.u_jet(0) * da.v_pow(-1)
        - da.v_pow(-3) * da.v_jet(1) ** 2 * QQ(1, 2)
        + da.v_jet(0) * da.u_jet(1) ** 2
    )
    got = vc.integrate_exact(vc.variational_derivative(h))
    assert da.functional_equal(got.rep, h)


def test_homotopies_divide_exactly():
    u, v = da.u_jet(0), da.v_jet(0)
    got = vc._u_homotopy(u * u)
    assert got == u ** 3 / 3
    assert type(got.terms[0][1]) is QQ
    got = vc._poly_homotopy((u, v * v))
    assert got == u * u / 2 + v ** 3 / 3
    assert all(type(c) is QQ for _m, c in got.terms)


def test_v_problem_out_of_reach_in_log_has_no_solution():
    # a candidate is free of log v, or is log(v) times a monomial with no
    # power of v, and the terms in log v of its Euler derivative keep that
    # shape ...
    for wt in (4, 6, 8):
        for m in da.monomials(wt, 5, -4, fields=(V,), include_log=True):
            for mm, _c in vc._euler_mono(m, V).terms:
                mm = da.pack_mono(mm)
                j = da.mono_exp(mm, da.LOG_VAR, 0)
                assert j == 0 or (j == 1 and da.mono_exp(mm, V, 0) == 0)
    # ... so a right side with any other term in log v is out of reach of
    # the candidate space, as it was of every round of the widening search
    for g in _LOG_OUT_OF_REACH:
        want = _outcome(lambda g: _solve_v_density_all_blocks(g, 2), g)
        assert want == _NO_V_DENSITY
        assert _outcome(lambda g: vc._solve_v_density(g, da.weight(g)), g) == want
    for h in _LOG_OUT_OF_REACH_DENSITIES:
        with pytest.raises(NoSolution, match="in its candidate space"):
            vc.integrate_exact(vc.variational_derivative(h))


def _v_degree(m):
    # the v degree of a tuple monomial, log v aside
    return sum(e for var, _n, e in m if var == V)


def _euler_mono_by_sum(m, var):
    # sum over n of (-d)^n d/dx^(n), as _euler_mono computed it before it
    # delegated to euler_derivative; m is a tuple monomial
    f = da.DiffFunction([(m, 1)])
    acc = ZERO
    top = da.max_order(f, var)
    for n in range(top + 1 if top is not None else 0):
        p = da.partial_derivative(f, (var, n))
        if p:
            p = da.total_derivative(p, n)
            acc = acc - p if n % 2 else acc + p
    return acc


_NO_V_DENSITY = "no density found for the v-only part in its candidate space"

_V, _VP, _VPP, _LG = da.v_jet(0), da.v_jet(1), da.v_jet(2), da.log_v()
# right sides with a term in log(v)^2, or in log(v) times a power of v, and
# densities whose gradients leave such a v-only part
_LOG_OUT_OF_REACH = (_VP * _VP * _LG * _LG * da.v_pow(-1), _VPP * _VPP * _V * _LG)
_LOG_OUT_OF_REACH_DENSITIES = (_VP * _VP * _LG * _LG, _VPP ** 4 * _V * _V * _LG)


def _solve_v_density_all_blocks(g, widen_cap):
    # _solve_v_density as it was when it differentiated every candidate,
    # including those of v degrees the right side never reaches, solved
    # over tuple monomials with the solver on sparse dicts, and retried up
    # to widen_cap times over a space widened by 2 in order and v floor
    if not g:
        return ZERO
    wt = da.weight(g)
    if wt is da.INHOMOGENEOUS:
        raise NoSolution("the v-only part is not weight-homogeneous")
    for m, _ in g.terms:
        j = sum(e for var, _n, e in m if var == da.LOG_VAR)
        if j > 1 or (j == 1 and any(g[0] == V and g[1] == 0 for g in m)):
            raise NoSolution(_NO_V_DENSITY)
    base_order = da.max_order(g, V) or 0
    order_bound = max(1, (base_order + 1) // 2 + 1)
    v_floor = min(da.min_v_exponent(g) + 1, 0)
    for _round in range(widen_cap + 1):
        cands = da.monomials(
            wt + 2, order_bound, v_floor, fields=(V,), include_log=True
        )
        by_deg = {}
        for m in map(da.unpack_mono, cands):
            e = _euler_mono_by_sum(m, V)
            if e:
                by_deg.setdefault(_v_degree(m), []).append((m, e))
        rhs_by_deg = {}
        for m, c in g.terms:
            rhs_by_deg.setdefault(_v_degree(m) + 1, {})[m] = c
        parts = []
        failed = False
        for deg, rhs in sorted(rhs_by_deg.items()):
            block = by_deg.get(deg, [])
            cols = [{mm: cc for mm, cc in e.terms} for _m, e in block]
            xs = helpers.dict_solve(cols, rhs)
            if xs is None:
                failed = True
                break
            parts += [(x, m) for (m, _e), x in zip(block, xs)]
        if not failed:
            return da.DiffFunction.from_terms(parts)
        order_bound += 2
        v_floor -= 2
    raise NoSolution(_NO_V_DENSITY)


def _outcome(solve, g):
    try:
        return solve(g)
    except NoSolution as exc:
        return str(exc)


def test_v_density_solves_only_the_blocks_the_right_side_reaches(monkeypatch):
    # seeded v-only right sides over several v degrees, Laurent and log
    # included: Euler derivatives of random candidate combinations (exact)
    # and random combinations of one weight (mostly out of reach)
    rng = random.Random(83)
    seen = []
    euler_mono = vc._euler_mono

    def recording(m, var):
        seen.append(m)
        return euler_mono(m, var)

    monkeypatch.setattr(vc, "_euler_mono", recording)
    degrees_spanned = set()
    outcomes = set()
    laurent = log = False
    for trial in range(30):
        wt = rng.choice((2, 4, 6, 8))
        cands = da.monomials(wt, 4, -4, fields=(V,), include_log=True)
        picked = rng.sample(cands, min(len(cands), rng.randint(1, 4)))
        f = da.DiffFunction.from_packed([(helpers.rand_coeff(rng), m) for m in picked])
        g = da.euler_derivative(f, V) if trial % 3 else f
        if not g:
            continue
        reached = {_v_degree(m) + 1 for m, _c in g.terms}
        degrees_spanned |= reached
        laurent = laurent or da.min_v_exponent(g) < 0
        log = log or any(m[-1][0] == da.LOG_VAR for m, _c in g.terms)
        seen.clear()
        got = _outcome(lambda g: vc._solve_v_density(g, da.weight(g)), g)
        assert got == _outcome(lambda g: _solve_v_density_all_blocks(g, 2), g), g
        assert {_v_degree(da.unpack_mono(m)) for m in seen} <= reached
        outcomes.add(type(got))
    assert len(degrees_spanned) >= 4
    assert outcomes == {da.DiffFunction, str} and laurent and log


def test_commutator_of_plain_vectors_matches_frechet_applied():
    # Laurent and log inputs; the same vectors serve several commutators
    rng = random.Random(73)
    vecs = [helpers.rand_vector(rng, terms=2, max_order=3, max_exp=2) for _ in range(6)]
    for p in vecs:
        for q in vecs:
            want = tuple(
                x - y
                for x, y in zip(dop.apply(vc.frechet(q), p), dop.apply(vc.frechet(p), q))
            )
            assert vc.evolutionary_commutator(p, q) == want
            assert vc.evolutionary_commutator(list(p), iter(q)) == want
    # the kept derivatives agree with those of a fresh copy (-(-f) is a new value)
    f = vecs[0][1]
    assert da.total_derivative(f, 2) == da.total_derivative(-(-f), 2)
    with pytest.raises(DimensionMismatch):
        vc.evolutionary_commutator(vecs[0], vecs[1] + (ZERO,))
    p, q = vecs[0], vecs[1] + (ZERO,)
    with pytest.raises(DimensionMismatch):
        vc.commutator_from_adjoints(p, dop.adjoint(vc.frechet(p)), q, dop.adjoint(vc.frechet(q)))


def _rand_vec(rng, n, max_order=3):
    return tuple(
        helpers.rand_function(rng, terms=2, max_order=max_order, max_exp=2) for _ in range(n)
    )


def test_commutator_matches_the_tower_form():
    # the Horner chains of the higher Euler operators against the tower
    # form they replaced, on seeded Laurent and log vectors of one, two and
    # three components, pairs that commute and pairs that do not, unequal
    # orders and zero components; and antisymmetry on each pair
    rng = random.Random(83)
    u, v = da.u_jet(0), da.v_jet(0)
    shift = (da.u_jet(1), da.v_jet(1))
    pairs = []
    for n in (1, 2, 3):
        for _ in range(6):
            pairs.append((_rand_vec(rng, n), _rand_vec(rng, n)))
        p = _rand_vec(rng, n)
        pairs += [(p, p), (p, tuple(f * QQ(-3, 2) for f in p))]
        # orders 0 and up to 6; zero components
        pairs.append((_rand_vec(rng, n, max_order=0), _rand_vec(rng, n, max_order=6)))
        pairs.append(((ZERO,) * n, _rand_vec(rng, n)))
        pairs.append(((ZERO,) + _rand_vec(rng, n - 1), _rand_vec(rng, n - 1) + (ZERO,)))
    for _ in range(4):
        p = _rand_vec(rng, 2)
        pairs += [(shift, p), (tuple(a + b for a, b in zip(p, shift)), p)]
    pairs.append(((u * v * da.log_v(), ZERO), (ZERO, da.v_pow(-3) * da.v_jet(4))))
    text = " ".join(da.to_text(f) for pq in pairs for x in pq for f in x)
    assert "v^-" in text and "log(v)" in text
    zero = 0
    for p, q in pairs:
        want = reference.evolutionary_commutator(p, q)
        got = vc.evolutionary_commutator(p, q)
        assert got == want, (p, q)
        assert vc.evolutionary_commutator(q, p) == tuple(-f for f in want)
        zero += not any(want)
    assert (zero, len(pairs)) == (20, 42)


def test_commutator_matches_the_tower_form_on_the_chain_flows():
    # every pair of distinct flows of four chains: they all commute, which
    # the tower form shows by multiplying out each flow's derivatives
    flows = [
        p
        for chain in ((1, 0, 2), (1, 1, 1), (0, 0, 1), (0, 1, 1))
        for p in lenard.run_hierarchy(*chain, with_densities=False).flows
    ]
    assert len(flows) == 9
    for a in range(9):
        for b in range(a + 1, 9):
            want = reference.evolutionary_commutator(flows[a], flows[b])
            assert vc.evolutionary_commutator(flows[a], flows[b]) == want == (ZERO, ZERO)


def test_memo_tables_stay_under_the_cap(monkeypatch):
    rng = random.Random(71)
    fs = [helpers.rand_function(rng, terms=4) for _ in range(12)]

    def compute():
        got = []
        for f in fs:
            got.append(da.total_derivative(f, 2))
            got.extend(vc.variational_derivative(f))
            assert helpers.dx_memo_bytes() == da._dx_bytes <= da.MEMO_CAP
        return got

    want = compute()
    # MEMO_CAP counts bytes: room for about five entries
    helpers.fresh_dx_memo(monkeypatch)
    monkeypatch.setattr(da, "MEMO_CAP", 800)
    assert compute() == want
    assert 0 < len(da._DX_MONO) <= 800 // da._DX_ENTRY
    # the pair table is cleared with the memo: it holds only the pairs of the entries left
    held = {id(p) for t in da._DX_MONO.values() for p in t}
    assert {id(p) for p in da._DX_PAIRS.values()} == held


# -- exact integration as it was done weight block by weight block -----------


def _ref_split_by_weight(vec):
    buckets = {}
    for i, f in enumerate(vec):
        for m, c in f.terms:
            w = da.mono_weight(da.pack_mono(m))
            buckets.setdefault(w, {})[(i, m)] = c
    out = {}
    for w, terms in buckets.items():
        comps = []
        for i in range(len(vec)):
            comps.append(
                da.DiffFunction.from_terms(
                    [(c, m) for (j, m), c in terms.items() if j == i]
                )
            )
        out[w] = tuple(comps)
    return out


def _ref_poly_homotopy(vec):
    acc = da.Accumulator()
    gens = (da.u_jet(0), da.v_jet(0))
    for i, fi in enumerate(vec):
        scaled = da.DiffFunction(
            [(m, da.coeff_div(c, sum(e for _v, _n, e in m) + 1)) for m, c in fi.terms]
        )
        da.addmul_into(acc, gens[i], scaled)
    return da.DiffFunction.from_acc(acc)


def _ref_u_homotopy(f):
    return da.u_jet(0) * da.DiffFunction(
        [(m, da.coeff_div(c, sum(e for var, _n, e in m if var == U) + 1)) for m, c in f.terms]
    )


def _ref_integrate(vec):
    # _integrate as it was: the vector split by weight, and per weight a
    # u-homotopy, an Euler derivative and a v-only solve, widened up to
    # twice
    if not 1 <= len(vec) <= 2:
        raise DimensionMismatch("a gradient here has one or two components, for u and v")
    if all(da.subalgebra_member(f, da.V_PLUS) for f in vec):
        return _ref_poly_homotopy(vec)
    if len(vec) != 2:
        raise NoSolution("Laurent integration works on (u, v) vectors")
    h = ZERO
    for _w, (fw, gw) in sorted(_ref_split_by_weight(vec).items()):
        hu = _ref_u_homotopy(fw)
        gtil = gw - da.euler_derivative(hu, V)
        if not all(var != U for m, _ in gtil.terms for var, _n, _e in m):
            raise NoSolution("residual v-problem still involves u")
        h = h + hu + _solve_v_density_all_blocks(gtil, 2)
    return h


def _integration_inputs():
    """1200 seeded vectors: exact gradients (Laurent and log, polynomial,
    one-component, sums over two weights) and vectors that are not closed."""
    grad = vc.variational_derivative
    vecs = []
    for seed in (7, 11):
        rng = random.Random(seed)
        vecs += [grad(helpers.rand_function(rng)) for _ in range(300)]
    rng = random.Random(13)
    vecs += [grad(helpers.rand_polynomial(rng)) for _ in range(150)]
    rng = random.Random(17)
    vecs += [grad(helpers.rand_function(rng), 1) for _ in range(50)]
    vecs += [grad(helpers.rand_polynomial(rng), 1) for _ in range(50)]
    rng = random.Random(19)
    while len(vecs) < 1000:
        parts = da.homogeneous_parts(helpers.rand_function(rng, terms=5))
        if len(parts) < 2:
            continue
        (_wa, a), (_wb, b) = rng.sample(parts, 2)
        vecs.append(tuple(x + y for x, y in zip(grad(a), grad(b))))
    rng = random.Random(5)
    vecs += [helpers.rand_vector(rng) for _ in range(200)]
    return vecs


def _integration_outcome(vec):
    try:
        return vc.integrate_exact(vec).rep
    except MagriError as exc:
        return type(exc), str(exc)


def test_one_pass_integration_matches_the_weight_split(monkeypatch):
    # the reference widens each v-only solve up to twice; the one space
    # reaches every outcome its rounds reach
    vecs = _integration_inputs()
    vecs += [vc.variational_derivative(h) for h in _LOG_OUT_OF_REACH_DENSITIES]
    got = [_integration_outcome(vec) for vec in vecs]
    monkeypatch.setattr(vc, "_integrate", _ref_integrate)
    want = [_integration_outcome(vec) for vec in vecs]
    for vec, g, w in zip(vecs, got, want):
        assert g == w, tuple(map(da.to_text, vec))
    # the inputs reach every outcome: densities, with log v among them,
    # out-of-reach v-only problems and vectors that are not gradients
    kinds = {type(g) if isinstance(g, da.DiffFunction) else g[0] for g in got}
    assert kinds == {da.DiffFunction, NoSolution, NotClosed}
    assert any(isinstance(g, da.DiffFunction) and "log" in da.to_text(g) for g in got)
    assert any(len(vec) == 1 for vec in vecs) and len(vecs) >= 1000


def test_integrate_exact_of_no_components_names_its_own_error():
    # the closedness fallback never sees an empty vector, whose Frechet
    # derivative would have no rows
    for vec in ((), []):
        with pytest.raises(DimensionMismatch) as info:
            vc.integrate_exact(vec)
        assert str(info.value) == "a gradient here has one or two components, for u and v"


def test_a_constant_density_has_the_zero_gradient():
    u = da.u_jet(0)
    for c in (3, 0, QQ(-2, 7)):
        assert vc.variational_derivative(c) == (ZERO, ZERO)
        assert vc.variational_derivative(c, 3) == (ZERO, ZERO, ZERO)
        assert vc.variational_derivative(c) == vc.variational_derivative(LocalFunctional(c))
        assert magri.poisson_bracket(c, u, lenard.H0).is_zero()
        assert magri.poisson_bracket(u * u, c, lenard.H1).is_zero()
    for bad in ("u", 1.5, None, (u,), dop.D):
        with pytest.raises(MagriError, match="a density is"):
            vc.variational_derivative(bad)


def test_one_component_vectors_integrate_in_u():
    # the polynomial homotopy pairs F_i with u or v, so a one-component
    # vector pairs with u alone
    u = da.u_jet(0)
    h = vc.integrate_exact((2 * u,))
    assert h.rep == u * u
    h = vc.integrate_exact((da.total_derivative(u, 2) * -2 + 3 * u * u,))
    assert vc.variational_derivative(h.rep, 1) == (da.total_derivative(u, 2) * -2 + 3 * u * u,)
