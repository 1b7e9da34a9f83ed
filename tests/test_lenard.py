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
from magri.errors import EmptyAnsatz, MagriError


def test_all_four_seeds_verify():
    for eps in (0, 1):
        for alpha in (0, 1):
            s = lenard.seed(eps, alpha)
            assert dop.kernel_verify(lenard.structure(eps), s.gradient)
            assert vc.variational_derivative(s.density) == s.gradient


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
            lenard._lm_step(eps, grad, "recursion", None, None, None)
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
    # the candidate space for eps=0 grows quickly as the v-power floor drops,
    # so pin explicit bounds that just contain the known answer
    s = lenard.seed(0, 0)
    a = lenard.lm_step(0, s.gradient, method="recursion")
    b = lenard.lm_step(
        0, s.gradient, method="ansatz", order_bounds=(4, 6), v_floor=-12, widen_cap=0
    )
    assert a == b


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
    space = lenard.ansatz_space(4, 2, da.V_PLUS)
    monos = set(space.monomials)
    assert ((da.U, 0, 1),) not in monos  # weight 2
    assert ((da.U, 0, 2),) in monos  # weight 4
    assert ((da.U, 2, 1),) in monos  # weight 4
    assert ((da.V, 0, 1), (da.V, 1, 1)) not in monos  # weight 5... wrong weight
    for m in monos:
        assert da.mono_weight(da.pack_mono(m)) == 4


def test_ansatz_space_empty():
    with pytest.raises(EmptyAnsatz):
        lenard.ansatz_space(1, 0, da.V_PLUS)


def _ref_ansatz_space(weight, order_bound, tag, include_log=False, v_floor=None):
    # ansatz_space as it was with its own enumerator and a v range per tag kind
    if v_floor is None:
        if tag.kind in ("minus", "scaled_minus", "affine_scaled", "zero"):
            v_floor = weight // 2 - order_bound - 2
        else:
            v_floor = 0
    lo, hi = {
        "plus": (0, None),
        "scaled_plus": (tag.power, None),
        "zero": (0, 0),
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
    out = sorted(set(found))
    if include_log:
        log_g = (da.LOG_VAR, 0, 1)
        extra = [
            tuple(sorted(m + (log_g,), key=lambda g: (g[0], g[1])))
            for m in out
            if not any(g[0] == da.V and g[1] == 0 for g in m)
        ]
        out = sorted(set(out) | set(extra))
    if not out:
        raise EmptyAnsatz(
            f"no monomials of weight {weight} under {tag.kind} with order <= {order_bound}"
        )
    # the floor the enumeration used: the tag's own lower bound when it has one
    return lenard.AnsatzSpace(weight, order_bound, tag, include_log, lo, tuple(out))


def test_ansatz_space_matches_the_per_kind_enumerator():
    tags = [da.V_PLUS, da.V_MINUS, da.V_ZERO, da.SubalgebraTag("affine_scaled", 0)]
    for k in (1, 2, 3):
        tags += [da.scaled_v_minus(k), da.scaled_v_plus(k), da.affine_scaled(k)]
    outcomes = set()
    for tag in tags:
        for weight in range(-4, 11):
            for order_bound in range(4):
                for v_floor in (None, -4, 1):
                    for include_log in (False, True):
                        args = (weight, order_bound, tag, include_log, v_floor)
                        try:
                            want = _ref_ansatz_space(*args)
                        except EmptyAnsatz as exc:
                            with pytest.raises(EmptyAnsatz) as got:
                                lenard.ansatz_space(*args)
                            assert str(got.value) == str(exc)
                            outcomes.add("empty")
                            continue
                        got = lenard.ansatz_space(*args)
                        assert got == want and got.monomials == want.monomials, args
                        monos = got.monomials
                        outcomes.add(any(g[0] == da.LOG_VAR for m in monos for g in m))
    assert outcomes == {"empty", False, True}


def test_ansatz_space_records_the_floor_it_used():
    # a tag with a lower bound ignores v_floor, so the spaces are one space
    assert lenard.ansatz_space(4, 2, da.V_PLUS, v_floor=-3) == lenard.ansatz_space(4, 2, da.V_PLUS)
    assert lenard.ansatz_space(4, 2, da.V_ZERO).v_floor == 0
    assert lenard.ansatz_space(4, 2, lenard.scaled_v_plus(1), v_floor=-5).v_floor == 1
    # a v-negative tag has no lower bound of its own
    assert lenard.ansatz_space(4, 2, da.V_MINUS, v_floor=-3).v_floor == -3
    assert lenard.ansatz_space(4, 2, da.V_MINUS).v_floor == 4 // 2 - 2 - 2


def test_run_rejects_bad_args():
    with pytest.raises(MagriError):
        lenard.run_hierarchy(0, 2, 1)
    with pytest.raises(MagriError, match="nonnegative"):
        lenard.run_hierarchy(1, 0, -1)
    for steps in (0, 1):
        with pytest.raises(MagriError, match="widen_cap must be nonnegative"):
            lenard.run_hierarchy(0, 1, steps, widen_cap=-1)


def test_negative_widen_cap_is_rejected():
    s = lenard.seed(0, 1)
    with pytest.raises(MagriError, match="widen_cap must be nonnegative"):
        lenard.lm_step(0, s.gradient, method="ansatz", widen_cap=-1)
    with pytest.raises(MagriError, match="widen_cap must be nonnegative"):
        vc.integrate_exact(s.gradient, widen_cap=-1)
    assert vc.integrate_exact(s.gradient, widen_cap=0) == s.density


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
    # m labels makes m(m-1)/2 commutators and, under each of H0 and H1,
    # m(m-1)/2 exactness tests
    runs = [lenard.run_hierarchy(1, 0, 1), lenard.run_hierarchy(1, 1, 1)]
    calls = {"commutator": 0, "exact": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(vc, "evolutionary_commutator", counted("commutator", vc.evolutionary_commutator))
    monkeypatch.setattr(da, "is_total_derivative", counted("exact", da.is_total_derivative))
    report = lenard.involutivity_report(runs)
    m = len(report.labels)
    assert m == 4 and report.all_ok
    assert calls == {"commutator": m * (m - 1) // 2, "exact": m * (m - 1)}


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
