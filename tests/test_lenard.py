"""Seeds, Lenard recursion steps, hierarchy runs, ansatz spaces."""

from __future__ import annotations

import dataclasses
import random

import pytest

import helpers
from magri import diffalg as da
from magri import diffop as dop
from magri import lenard
from magri import pva
from magri import varcalc as vc
from magri.diffalg import QQ, ZERO, LocalFunctional
from magri.errors import MagriError, NotClosed


def test_all_four_seeds_verify():
    for eps in (0, 1):
        for alpha in (0, 1):
            s = lenard.seed(eps, alpha)
            assert dop.kernel_verify(lenard.structure(eps), s.gradient)
            assert vc.variational_derivative(s.density) == s.gradient
            assert vc.integrate_exact(s.gradient) == s.density


def test_seed_values_pinned():
    s = lenard.seed(0, 0)
    assert s.gradient == (ZERO, da.ONE)
    assert s.density.rep == da.v_jet(0)
    s = lenard.seed(1, 0)
    assert s.gradient == (da.ONE, ZERO)
    assert s.density.rep == da.u_jet(0)
    s = lenard.seed(1, 1)
    assert s.gradient == (da.u_jet(2) + da.u_jet(0) ** 2 * 4, da.v_jet(0) ** 2 / 2)
    s = lenard.seed(0, 1)
    assert da.to_text(s.density.rep) == "u*v^-1 - v^-3*(v')^2/2"


def test_seed_rejects_bad_labels():
    with pytest.raises(MagriError):
        lenard.seed(2, 0)


def test_eps_outside_zero_and_one_is_rejected():
    # unchecked, such an eps applies H1 to one of its own Casimirs: (0, 0)
    grad = lenard.seed(1, 1).gradient
    for eps in (2, -1, 7):
        with pytest.raises(MagriError, match="eps must be 0 or 1"):
            lenard.structure(eps)
        with pytest.raises(MagriError, match="eps must be 0 or 1"):
            lenard.lm_step(eps, grad)
        with pytest.raises(MagriError, match="eps must be 0 or 1"):
            lenard._lm_step(eps, grad, "recursion")
    assert lenard.structure(0) is lenard.H0 and lenard.structure(1) is lenard.H1


def test_first_step_of_translation_chain():
    s = lenard.seed(1, 0)
    nxt, dens_grad = lenard.lm_step(1, s.gradient), None
    u0, v0 = da.u_jet(0), da.v_jet(0)
    want = (
        da.u_jet(4) + u0 * da.u_jet(2) * 12 + da.u_jet(1) ** 2 * 6 + u0 ** 3 * QQ(32, 3) + v0 ** 3 / 3,
        u0 * v0 ** 2,
    )
    assert nxt == want
    h = vc.integrate_exact(nxt)
    target = u0 * v0 ** 3 / 3 + u0 ** 4 * QQ(8, 3) + u0 * da.u_jet(4) / 2 - u0 * da.u_jet(1) ** 2 * 6
    assert da.functional_equal(h.rep, target)


def test_step_methods_agree():
    for alpha in (0, 1):
        s = lenard.seed(1, alpha)
        a = lenard.lm_step(1, s.gradient, method="recursion")
        b = lenard.lm_step(1, s.gradient, method="ansatz")
        assert a == b, alpha


def test_step_methods_agree_with_negative_v_powers():
    # the second component reaches v^-12, three powers below the right
    # side's least: d^3 lowers the power of v by three
    s = lenard.seed(0, 0)
    a = lenard.lm_step(0, s.gradient, method="recursion")
    b = lenard.lm_step(0, s.gradient, method="ansatz")
    assert a == b
    flow = dop.apply(lenard.H1, s.gradient)
    assert da.min_v_exponent(a[1]) == min(map(da.min_v_exponent, flow)) - 3


def _min_v(f):
    return min((da.mono_exp(m, da.V, 0) for m, _ in da.packed_terms(f)), default=None)


def test_space_bounds_are_the_recursion_answers_own():
    # each candidate space is as small as the chains allow: its order
    # bound and v floor are the answer's jet order and least power of v
    for eps in (0, 1):
        for alpha in (0, 1):
            run = lenard.run_hierarchy(eps, alpha, 3, with_densities=False)
            for n in range(1, 4):
                got = lenard._space_bounds(eps, run.flows[n - 1])
                want = tuple((lenard._ord(c), _min_v(c)) for c in run.gradients[n])
                assert got == want, (eps, alpha, n)


def test_ansatz_step_inverts_h_eps_on_seeded_normalized_gradients():
    # any normalized xi in the tags, the kernel weights included, comes
    # back from H_eps xi: the bounds read off H_eps xi hold a solution
    rng = random.Random(25)
    weights = {0: range(-6, 3), 1: range(0, 7)}
    kernel_weights = {eps: set(map(lenard._vec_weight, lenard._KERNELS[eps])) for eps in (0, 1)}
    seen = set()
    for _ in range(260):
        eps = rng.randrange(2)
        wt = rng.choice(weights[eps])
        xi = []
        for tag in lenard._GRADIENT_TAGS[eps]:
            monos = lenard._candidates(wt, rng.randrange(4), tag, rng.randrange(-4, 0))
            picked = rng.sample(monos, min(len(monos), rng.randrange(4)))
            coeffs = [QQ(rng.randrange(-8, 9) or 1, rng.randrange(1, 4)) for _ in picked]
            xi.append(da.DiffFunction.from_packed(zip(coeffs, picked)))
        xi = lenard._normalize_kernel(eps, xi)
        b = dop.apply(lenard.structure(eps), xi)
        if not any(b):
            continue
        assert lenard._normalize_kernel(eps, lenard._step_ansatz(eps, b)) == xi, (eps, xi)
        seen.add((eps, wt in kernel_weights[eps]))
    assert seen == {(0, False), (0, True), (1, False), (1, True)}


def test_step_verifies_the_relation():
    s = lenard.seed(0, 0)
    nxt = lenard.lm_step(0, s.gradient)
    lhs = dop.apply(lenard.structure(0), nxt)
    rhs = dop.apply(lenard.structure(1), s.gradient)
    assert lhs == rhs


def test_kernel_marker_normalization():
    # the computed gradient carries no component along the seed kernels
    s = lenard.seed(1, 0)
    nxt = lenard.lm_step(1, s.gradient)
    # kernel of H1 is spanned by (1,0) and the (1,1) seed gradient;
    # markers: constant term of comp 1 and v^2 coefficient of comp 2
    assert nxt[0].constant_term() == 0
    marker = lenard.seed(1, 1).gradient[1].terms[0][0]  # the v^2 monomial
    assert nxt[1].coeff(marker) == QQ(0)
    assert nxt[1] != ZERO  # normalization strips kernel directions only


def test_run_hierarchy_depth_one_all_chains():
    for eps in (0, 1):
        for alpha in (0, 1):
            run = lenard.run_hierarchy(eps, alpha, 1)
            assert run.steps == 1
            assert len(run.gradients) == 2
            assert len(run.flows) == 2
            assert all(v is True for v in run.checks.values()), run.checks
            for n, grad in enumerate(run.gradients):
                lhs = dop.apply(lenard.structure(eps), run.gradients[n])
                if n > 0:
                    rhs = dop.apply(lenard.structure(1 - eps), run.gradients[n - 1])
                    assert lhs == rhs


def test_run_densities_regenerate_gradients():
    run = lenard.run_hierarchy(1, 1, 1)
    for grad, dens in zip(run.gradients, run.densities):
        assert vc.variational_derivative(dens) == grad


def test_flow_orders_depth_one():
    want = {(0, 0): 5, (0, 1): 7, (1, 0): 1, (1, 1): 5}
    for (eps, alpha), base in want.items():
        run = lenard.run_hierarchy(eps, alpha, 1)
        assert run.flow_orders[0] == base
        assert run.flow_orders[1] == base + 6


def test_membership_pattern_eps0():
    run = lenard.run_hierarchy(0, 1, 1)
    f, g = run.gradients[1]
    assert da.subalgebra_member(f, da.scaled_v_minus(1))
    assert da.subalgebra_member(g - da.const(g.constant_term()), da.scaled_v_minus(1))


def test_membership_pattern_eps1():
    run = lenard.run_hierarchy(1, 1, 1)
    f, g = run.gradients[1]
    assert da.subalgebra_member(f, da.V_PLUS)
    assert da.subalgebra_member(g, lenard.scaled_v_plus(2))


def test_ansatz_space_contents():
    monos = set(map(da.unpack_mono, lenard._candidates(4, 2, da.V_PLUS, 0)))
    assert ((da.U, 0, 1),) not in monos  # weight 2
    assert ((da.U, 0, 2),) in monos  # weight 4
    assert ((da.U, 2, 1),) in monos  # weight 4
    assert ((da.V, 0, 1), (da.V, 1, 1)) not in monos  # weight 5... wrong weight
    for m in monos:
        assert da.mono_weight(da.pack_mono(m)) == 4


def test_ansatz_space_empty():
    # an empty component space adds no columns: with b0 = 0 the bound of
    # the second component of an eps = 1 step is negative, and the first
    # component alone solves the step
    assert lenard._candidates(1, 0, da.V_PLUS, 0) == ()
    assert lenard._candidates(4, -1, da.V_PLUS, 0) == ()
    u = da.u_jet(0)
    b = dop.apply(lenard.H1, (u, ZERO))
    assert not b[0] and lenard._space_bounds(1, b)[1][0] < 0
    assert lenard._normalize_kernel(1, lenard._step_ansatz(1, b)) == (u, ZERO)


def _ref_candidates(weight, order_bound, tag, v_floor):
    # _candidates with its own enumerator and a v range per tag kind
    if order_bound < 0:
        return ()
    lo, hi = {
        "plus": (max(0, v_floor), None),
        "scaled_plus": (max(tag.power, v_floor), None),
        "zero": (max(0, v_floor), 0),
        "minus": (v_floor, 0),
        "scaled_minus": (v_floor, -tag.power),
        "affine_scaled": (v_floor, max(-tag.power, 1 - tag.power)),
    }[tag.kind]
    gens = [(da.U, n) for n in range(order_bound + 1)] + [
        (da.V, n) for n in range(1, order_bound + 1)
    ]
    found = []

    def rec(idx, remaining, acc):
        if idx == len(gens):
            if remaining % 2:
                return
            e = remaining // 2
            if lo <= e <= hi if hi is not None else lo <= e:
                if e:
                    mono = tuple(
                        sorted(acc + [(da.V, 0, e)], key=lambda g: (g[0], g[1]))
                    )
                else:
                    mono = tuple(acc)
                if da.subalgebra_member(da.DiffFunction([(mono, 1)]), tag):
                    found.append(mono)
            return
        var, n = gens[idx]
        w = n + 2
        e = 0
        while remaining - e * w >= 2 * lo:
            rec(idx + 1, remaining - e * w, acc + ([(var, n, e)] if e else []))
            e += 1

    rec(0, weight, [])
    return tuple(sorted(set(found)))


def test_ansatz_space_matches_the_per_kind_enumerator():
    tags = [da.V_PLUS, da.V_MINUS, da.V_ZERO, da.SubalgebraTag("affine_scaled", 0)]
    for k in (1, 2, 3):
        tags += [da.scaled_v_minus(k), da.scaled_v_plus(k), da.affine_scaled(k)]
    outcomes = set()
    for tag in tags:
        for weight in range(-4, 11):
            for order_bound in range(-2, 4):
                for v_floor in (-6, -4, 0, 1):
                    args = (weight, order_bound, tag, v_floor)
                    want = _ref_candidates(*args)
                    got = tuple(map(da.unpack_mono, lenard._candidates(*args)))
                    assert got == want, args
                    outcomes.add(bool(got))
    assert outcomes == {False, True}


def test_run_rejects_bad_args():
    with pytest.raises(MagriError):
        lenard.run_hierarchy(0, 2, 1)
    with pytest.raises(MagriError, match="nonnegative"):
        lenard.run_hierarchy(1, 0, -1)
    for steps in (1.5, "2", True, None):
        with pytest.raises(MagriError, match="steps must be an int"):
            lenard.run_hierarchy(1, 0, steps)


def test_negative_widen_cap_is_rejected():
    # the widening cap is gone: a caller still passing one is refused
    # rather than having it silently ignored, and the single pass alone
    # integrates the seed gradient
    s = lenard.seed(0, 1)
    for call in (
        lambda: lenard.lm_step(0, s.gradient, method="ansatz", widen_cap=-1),
        lambda: vc.integrate_exact(s.gradient, widen_cap=-1),
        lambda: lenard.run_hierarchy(0, 1, 1, widen_cap=-1),
    ):
        with pytest.raises(TypeError, match="widen_cap"):
            call()
    assert vc.integrate_exact(s.gradient) == s.density


def test_ansatz_order_bounds_must_be_a_pair():
    # the candidate spaces are read off the right side: a caller still
    # passing bounds is refused rather than having them silently ignored
    s = lenard.seed(1, 0)
    want = lenard.lm_step(1, s.gradient)
    for kw in ({"order_bounds": (4, 4)}, {"v_floor": -3}):
        with pytest.raises(TypeError, match=next(iter(kw))):
            lenard.lm_step(1, s.gradient, method="ansatz", **kw)
        with pytest.raises(TypeError, match=next(iter(kw))):
            lenard._lm_step(1, s.gradient, "ansatz", **kw)
    assert lenard.lm_step(1, s.gradient, method="ansatz") == want


def test_bools_and_unknown_methods_are_refused():
    grad = lenard.seed(1, 1).gradient
    for call in (
        lambda: lenard.seed(True, 0),
        lambda: lenard.seed(0, False),
        lambda: lenard.structure(True),
        lambda: lenard.lm_step(True, grad),
        lambda: lenard.run_hierarchy(True, False, 1),
    ):
        with pytest.raises(MagriError, match="must"):
            call()
    # the method is checked before a zero flow or zero steps return early
    with pytest.raises(MagriError, match="unknown stepping method 'bogus'"):
        lenard.lm_step(1, (ZERO, da.ONE), method="bogus")
    with pytest.raises(MagriError, match="unknown stepping method 'bogus'"):
        lenard.run_hierarchy(1, 0, 0, method="bogus")


def test_normalize_kernel_divides_exactly():
    # the (1,1) kernel marker is u^2 with coefficient 4, so a unit u^2
    # coefficient is removed with the non-integral factor 1/4
    u = da.u_jet(0)
    got = lenard._normalize_kernel(1, (u * u, ZERO))
    xi11 = lenard.seed(1, 1).gradient
    assert got == (u * u - xi11[0] / 4, -xi11[1] / 4)
    assert got[1].terms == ((((da.V, 0, 2),), QQ(-1, 8)),)
    assert type(got[1].terms[0][1]) is QQ



def test_involutivity_report_shows_each_failing_pair():
    # (1, 0) chain densities u and h_1 plus a foreign density q; flows: a
    # foreign field, P_1 and the translation P_0.  Only h_1 and q fail to
    # commute under H0, and only the foreign field and P_1 fail to commute;
    # the foreign data have fractional coefficients, so the report's
    # integral scaling and its per-report caches are both on the path.
    run = lenard.run_hierarchy(1, 0, 1)
    u, v = da.u_jet(0), da.v_jet(0)
    q = LocalFunctional(u * u * v * QQ(1, 2))
    foreign = (u * da.u_jet(1) * QQ(1, 3), da.v_jet(1) * QQ(2, 5))
    dens = [run.densities[0], run.densities[1], q]
    flows = [foreign, run.flows[1], run.flows[0]]
    report = lenard.involutivity_report([dataclasses.replace(run, densities=dens, flows=flows)])

    def only(i, j):
        return [[{a, b} != {i, j} for b in range(3)] for a in range(3)]

    assert report.bracket_h0 == only(1, 2)
    assert report.bracket_h1 == [[True] * 3 for _ in range(3)]
    assert report.flows_commute == only(0, 1)
    assert report.all_ok is False
    # the same verdicts, pair by pair, from the unscaled and uncached routines
    for a in range(3):
        for b in range(3):
            for mat, h in ((report.bracket_h0, lenard.H0), (report.bracket_h1, lenard.H1)):
                assert mat[a][b] == pva.poisson_bracket(dens[a], dens[b], h).is_zero()
            assert report.flows_commute[a][b] == (
                not any(vc.evolutionary_commutator(flows[a], flows[b]))
            )


def test_involutivity_report_computes_each_unordered_pair_once(monkeypatch):
    # antisymmetry decides the diagonal and the mirrored pairs: a report on
    # m labels builds the adjoint Frechet matrix of each of its m flows
    # once, makes m(m-1)/2 commutators from them, one Horner chain for
    # each of a commutator's two components, and, under each of H0 and H1,
    # m(m-1)/2 exactness tests
    runs = [lenard.run_hierarchy(1, 0, 1), lenard.run_hierarchy(1, 1, 1)]
    calls = dict.fromkeys(["frechet", "adjoint", "commutator", "chain", "exact"], 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(vc, "frechet", counted("frechet", vc.frechet))
    monkeypatch.setattr(dop, "adjoint", counted("adjoint", dop.adjoint))
    monkeypatch.setattr(vc, "commutator_from_adjoints", counted("commutator", vc.commutator_from_adjoints))
    monkeypatch.setattr(dop, "apply_adjoints", counted("chain", dop.apply_adjoints))
    monkeypatch.setattr(da, "is_total_derivative", counted("exact", da.is_total_derivative))
    report = lenard.involutivity_report(runs)
    m = len(report.labels)
    assert m == 4 and report.all_ok
    pairs = m * (m - 1) // 2
    assert calls == {
        "frechet": m,
        "adjoint": m,
        "commutator": pairs,
        "chain": 2 * pairs,
        "exact": 2 * pairs,
    }


def test_involutivity_report_leaves_no_tower_on_the_flows():
    # the commutators differentiate their Horner partial sums alone, so no
    # flow component gets a derivative tower from the report (the first
    # flow of each chain, which needs no scaling, once kept one)
    runs = [lenard.run_hierarchy(1, 0, 2), lenard.run_hierarchy(1, 1, 1)]
    flows = [f for run in runs for p in run.flows for f in p]
    assert all(f._d is None for f in flows)
    assert lenard.involutivity_report(runs).all_ok
    assert all(f._d is None for f in flows)


def test_involutivity_report_refuses_a_run_without_densities():
    # such a run gives the report no label, so it would check none of its
    # flows and pass
    run = lenard.run_hierarchy(1, 0, 1, with_densities=False)
    with pytest.raises(MagriError, match=r"the \(1, 0\) run to depth 1 has no densities"):
        lenard.involutivity_report([run])
    with pytest.raises(MagriError, match="no densities"):
        lenard.involutivity_report([lenard.run_hierarchy(1, 1, 1), run], include_flows=False)


def test_densities_of_a_run_give_their_checked_gradients(monkeypatch):
    # seed and integrate_exact check each density's gradient exactly and
    # keep it; the report and the Poisson bracket read it back, and only a
    # functional that holds none computes its Euler derivatives
    runs = [lenard.run_hierarchy(1, 0, 2), lenard.run_hierarchy(0, 1, 1)]
    calls = []
    euler = da.euler_derivative
    monkeypatch.setattr(da, "euler_derivative", lambda f, var: calls.append(var) or euler(f, var))
    assert lenard.involutivity_report(runs).all_ok
    dens = [d for run in runs for d in run.densities]
    assert [vc.variational_derivative(d) for d in dens] == [g for run in runs for g in run.gradients]
    assert vc.variational_derivative(dens[1], 3) == runs[0].gradients[1] + (ZERO,)
    assert pva.poisson_bracket(dens[0], dens[1], lenard.H0).is_zero()
    assert calls == []
    fresh = LocalFunctional(dens[1].rep)
    assert vc.variational_derivative(fresh) == runs[0].gradients[1]
    assert calls == [da.U, da.V]


def test_involutivity_report_matches_the_full_square_pair_by_pair():
    # every entry, the diagonal and the lower triangle included, against
    # the public routines on the unscaled densities and flows
    runs = [lenard.run_hierarchy(eps, alpha, 1) for eps in (0, 1) for alpha in (0, 1)]
    report = lenard.involutivity_report(runs)
    dens = [d for run in runs for d in run.densities]
    flows = [p for run in runs for p in run.flows]
    assert len(report.labels) == len(dens) == len(flows) == 8
    for a in range(8):
        for b in range(8):
            for mat, h in ((report.bracket_h0, lenard.H0), (report.bracket_h1, lenard.H1)):
                assert mat[a][b] == pva.poisson_bracket(dens[a], dens[b], h).is_zero()
            assert report.flows_commute[a][b] == (
                not any(vc.evolutionary_commutator(flows[a], flows[b]))
            )
    assert report.all_ok


def test_hierarchy_runs_without_fraction_arithmetic(monkeypatch):
    # values hold int numerators over one denominator, so a chain with
    # rational gradients and densities (32/3*u^3 in xi_1 of chain (1, 0))
    # does its arithmetic in ints; Fraction arithmetic once made 110,181
    # calls in this run
    from fractions import Fraction

    calls = [0]

    def counted(name):
        orig = getattr(Fraction, name)

        def wrapper(*args):
            calls[0] += 1
            return orig(*args)

        return wrapper

    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__neg__"):
        monkeypatch.setattr(Fraction, name, counted(name))
    run = lenard.run_hierarchy(1, 1, 3)
    assert all(run.checks.values())
    assert any(c.denominator != 1 for h in run.densities for _m, c in h.rep.terms)
    assert calls[0] < 110_181 // 100


def test_the_engine_reads_no_tuple_terms(monkeypatch):
    # exact integration, the recursion and the ansatz stepper solve over
    # packed monomials: tuple terms only serve reading values in and
    # writing them out
    rng = random.Random(7)
    grads = [vc.variational_derivative(helpers.rand_function(rng)) for _ in range(60)]
    texts = " ".join(da.to_text(c) for g in grads for c in g)
    assert "v^-" in texts and "log(v)" in texts
    seed = lenard.seed(1, 1).gradient
    want_step = lenard.lm_step(1, seed)

    def no_terms(self):
        raise AssertionError("DiffFunction.terms was read")

    monkeypatch.setattr(da.DiffFunction, "terms", property(no_terms))
    outcomes = set()
    for grad in grads:
        try:
            h = vc.integrate_exact(grad)
            outcomes.add(h.variational_gradient() == grad)
        except MagriError as exc:
            outcomes.add(type(exc).__name__)
    run = lenard.run_hierarchy(0, 1, 1)
    step = lenard.lm_step(1, seed, method="ansatz")
    monkeypatch.undo()
    assert outcomes == {True, "NoSolution"}
    assert all(run.checks.values()) and len(run.densities) == 2
    assert step == want_step


def test_each_density_keeps_the_runs_own_gradient():
    # integrate_exact stores the gradient it was given in the density, not
    # the equal copy its closing check computes
    for eps, alpha, steps in ((1, 1, 2), (0, 0, 1)):
        run = lenard.run_hierarchy(eps, alpha, steps)
        assert len(run.densities) == steps + 1
        for grad, dens in zip(run.gradients, run.densities):
            assert all(a is b for a, b in zip(dens.variational_gradient(), grad, strict=True))


def test_run_hierarchy_proves_each_gradient_closed_once(monkeypatch):
    calls = []
    is_closed = vc.is_closed

    def counted(vec):
        calls.append(vec)
        return is_closed(vec)

    monkeypatch.setattr(vc, "is_closed", counted)
    for eps, alpha in ((0, 0), (1, 0), (1, 1)):
        # with densities, seed proves xi_0 closed and integrate_exact every
        # later xi_n, through variational_derivative(h) == xi_n
        del calls[:]
        run = lenard.run_hierarchy(eps, alpha, 2)
        assert calls == []
        assert run.checks == {"memberships": True, "densities": True, "casimir_pairing": True}
        # without them, each step tests the gradient it starts from
        del calls[:]
        bare = lenard.run_hierarchy(eps, alpha, 2, with_densities=False)
        assert calls == run.gradients[:2]
        assert bare.gradients == run.gradients and bare.flows == run.flows
    # the public step always tests its input
    del calls[:]
    lenard.lm_step(1, run.gradients[1])
    assert calls == [run.gradients[1]]
    with pytest.raises(NotClosed):
        lenard.lm_step(1, (da.u_jet(1), ZERO))


def test_involutivity_report_refuses_an_empty_list_of_runs():
    # no runs give no labels, and an empty report would pass with nothing checked
    with pytest.raises(MagriError, match="at least one run"):
        lenard.involutivity_report([])
    with pytest.raises(MagriError, match="at least one run"):
        lenard.involutivity_report(iter(()), include_flows=False)


def test_run_hierarchy_records_log_free_densities_on_eps_0(monkeypatch):
    # integrate_exact decides each density's gradient; the run's own check
    # is that no eps = 0 density holds log v
    for eps, alpha in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert lenard.run_hierarchy(eps, alpha, 1).checks["densities"] is True
    integrate = vc.integrate_exact
    # the same functional, through a representative that holds log v
    exact = da.total_derivative(da.u_jet(0) * da.log_v())

    def with_log(vec):
        return LocalFunctional(integrate(vec).rep + exact)

    monkeypatch.setattr(vc, "integrate_exact", with_log)
    assert lenard.run_hierarchy(0, 1, 1).checks["densities"] is False
    assert lenard.run_hierarchy(1, 1, 1).checks["densities"] is True


@pytest.mark.parametrize("method", ["recursion", "ansatz"])
def test_lm_step_on_the_other_structures_casimir_is_zero(method):
    # (1, 0) lies in ker H1 and (0, 1) in ker H0, so the flow H_{1-eps} xi
    # is zero and the step returns the zero gradient without solving
    one = da.ONE
    assert dop.apply(lenard.structure(1), (one, ZERO)) == (ZERO, ZERO)
    assert lenard.lm_step(0, (one, ZERO), method) == (ZERO, ZERO)
    assert dop.apply(lenard.structure(0), (ZERO, one)) == (ZERO, ZERO)
    assert lenard.lm_step(1, (ZERO, one), method) == (ZERO, ZERO)
    for grad in ((one, ZERO, ZERO), (one,)):
        with pytest.raises(MagriError, match="gradients here have two components"):
            lenard.lm_step(0, grad, method)
