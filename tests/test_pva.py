"""Lambda brackets, the Jacobi identity, compatibility, Hamiltonian flows."""

from __future__ import annotations

import itertools
import random
from math import comb

import pytest

import helpers
import magri
import oracle
from magri import diffalg as da
from magri import diffop as dop
from magri import lenard, pva
from magri import varcalc as vc
from magri.diffalg import LocalFunctional, QQ, ZERO
from magri.errors import DimensionMismatch, ExponentOverflow, NotSkewAdjoint
from magri.expr import parse, parse_operator


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


@pytest.fixture
def adjoint_calls(monkeypatch):
    """The operators dop.adjoint is called on, in order."""
    calls = []
    adjoint = dop.adjoint

    def counted(h):
        calls.append(h)
        return adjoint(h)

    monkeypatch.setattr(dop, "adjoint", counted)
    return calls


def test_a_matrix_operator_keeps_its_skew_verdict(monkeypatch, adjoint_calls):
    f = LocalFunctional(parse("u*v^-1 + log(v)*v'"))
    g = LocalFunctional(parse("u^2*v - (v')^2*v^-3"))
    h = lenard.structure(1)
    monkeypatch.setattr(h, "_skew", None)  # undecided, whatever ran before
    first = pva.poisson_bracket(f, g, h)
    assert pva.poisson_bracket(f, g, h).rep == first.rep
    assert adjoint_calls == [h] and h._skew is True
    # a False verdict is kept too, and raises on every call
    bad = dop.MatrixDiffOp([[dop.D, dop.ScalarDiffOp()], [dop.ScalarDiffOp(), dop.multiplication(da.u_jet(0))]])
    for _ in range(2):
        with pytest.raises(NotSkewAdjoint):
            pva.poisson_bracket(f, g, bad)
    assert adjoint_calls == [h, bad] and bad._skew is False
    # the verdict belongs to the object: an equal operator built elsewhere decides anew
    again = dop.builtin_pair()[1]
    assert again == h and again is not h and again._skew is None
    assert dop.is_skew_adjoint(again) and adjoint_calls == [h, bad, again]


def test_a_scalar_operator_is_decided_on_every_call(adjoint_calls):
    f = LocalFunctional(parse("u^3*log(v)"))
    g = LocalFunctional(parse("(u')^2*v^-1"))
    want = pva.poisson_bracket(f, g, dop.MatrixDiffOp([[dop.D]])).rep
    for _ in range(2):
        assert pva.poisson_bracket(f, g, dop.D).rep == want
    # pva wraps a scalar operator in a new 1x1 matrix on each call
    assert len(adjoint_calls) == 3
    mu = dop.multiplication(da.u_jet(0))
    for _ in range(2):
        assert dop.is_skew_adjoint(dop.D) and not dop.is_skew_adjoint(mu)
        with pytest.raises(NotSkewAdjoint):
            pva.poisson_bracket(f, g, mu)
    assert len(adjoint_calls) == 5


def test_bracket_with_function_checks_the_generator_index():
    g = da.u_jet(0) * da.v_jet(1)
    for h in (H0, dop.D):
        n, _ = pva._as_matrix(h).shape
        for i in (0, -1, n + 1):
            with pytest.raises(DimensionMismatch):
                pva.bracket_with_function(h, i, g)
    # on a generator it is the bracket of two generators
    for i in (1, 2):
        assert pva.bracket_with_function(H0, i, da.u_jet(0)) == pva.generator_bracket(H0, i, 1)


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


def _current_algebra_pair():
    zero = dop.ScalarDiffOp()
    vir = dop.ScalarDiffOp([(0, da.u_jet(1)), (1, da.u_jet(0) * 2)])
    m1 = dop.MatrixDiffOp([[vir, zero], [zero, dop.D]])
    m2 = dop.MatrixDiffOp([[zero, dop.D], [dop.D, zero]])
    return m1, m2


def test_incompatible_pair_detected():
    # current-algebra and mixing structures are each Poisson but not compatible
    m1, m2 = _current_algebra_pair()
    assert pva.is_poisson(m1)
    assert pva.is_poisson(m2)
    assert not pva.is_compatible(m1, m2)


# -- the bracket table against the per-coefficient jacobiator ----------------


def _ref_bracket_gen_fun(h, i, g):
    n, _ = h.shape
    acc = dop.accumulators()
    for j, dg in enumerate(vc.frechet_row(g, n)):
        dop.compose_into(acc, dg, h.entries[j][i - 1])
    return dop.ScalarDiffOp.from_acc(acc)


def _ref_bracket_fun_gen(h, g, k):
    n, _ = h.shape
    acc = dop.accumulators()
    for op, dg in zip(h.entries[k - 1], vc.frechet_row(g, n)):
        if op and dg:
            dop.compose_into(acc, op, dop.adjoint_scalar(dg))
    return dop.ScalarDiffOp.from_acc(acc)


def _ref_jacobiator(h, i, j, k):
    # the jacobiator as it was before the bracket table: every piece is
    # rebuilt for every triple
    acc = dop.accumulators()

    def put(a, b, f, k):
        da.addmul_into(acc[a, b], f, da.ONE, k)

    for s, a in h.entries[k - 1][j - 1].terms:
        for t, f in _ref_bracket_gen_fun(h, i, a).terms:
            put(t, s, f, 1)
    for t, b in h.entries[k - 1][i - 1].terms:
        for s, f in _ref_bracket_gen_fun(h, j, b).terms:
            put(t, s, f, -1)
    for t, c in h.entries[j - 1][i - 1].terms:
        for s, f in _ref_bracket_fun_gen(h, c, k).terms:
            for p in range(s + 1):
                put(p + t, s - p, f, -comb(s, p))
    return dop.SparsePoly.from_acc(acc)


def _rand_v_function(rng):
    """A random nonzero function of v alone, with Laurent and log v terms."""
    pairs = []
    for _ in range(rng.randint(1, 3)):
        mono = ((da.V, 0, rng.randint(-3, 2)), (da.LOG_VAR, 0, rng.randint(0, 1)))
        pairs.append((helpers.rand_coeff(rng), mono))
    f = da.normalize(pairs)
    return f if f else da.log_v()


def _rand_skew_operators(rng, count):
    """Seeded 2x2 skew operators with Laurent and log v coefficients.

    Odd draws are Poisson: a constant-coefficient u block beside the
    v block phi(v) d phi(v), which is d after a change of the variable v.
    Even draws are A - A* for a random A, or the same v block with phi
    depending on u; most of them are not Poisson.
    """
    zero = dop.ScalarDiffOp()
    ops = []
    for n in range(count):
        if n % 2:
            ublock = dop.ScalarDiffOp(
                [(1, da.const(helpers.rand_coeff(rng))), (3, da.const(rng.randint(0, 2)))]
            )
            phi = dop.multiplication(_rand_v_function(rng))
            ops.append(dop.MatrixDiffOp([[ublock, zero], [zero, phi * dop.D * phi]]))
        elif n % 4:
            phi = dop.multiplication(_rand_v_function(rng) * da.u_jet(0) + da.ONE)
            ops.append(dop.MatrixDiffOp([[dop.D, zero], [zero, phi * dop.D * phi]]))
        else:
            def entry():
                return dop.ScalarDiffOp(
                    [
                        (s, helpers.rand_function(rng, terms=2, max_order=1, max_exp=2))
                        for s in range(rng.randint(0, 2))
                    ]
                )

            a = dop.MatrixDiffOp([[entry(), entry()], [entry(), entry()]])
            ops.append(a - dop.adjoint(a))
    return ops


def test_bracket_table_matches_the_per_coefficient_jacobiator():
    ops = _rand_skew_operators(random.Random(61), 12) + [H0 + H1 * QQ(-5, 2)]
    coeffs = [f for h in ops for row in h.entries for op in row for _k, f in op.terms]
    text = " ".join(da.to_text(f) for f in coeffs)
    assert "v^-" in text and "log(v)" in text
    verdicts = []
    for h in ops:
        assert dop.is_skew_adjoint(h)
        table = pva._BracketTable(h)  # one table for every triple, as is_poisson uses it
        poisson = True
        for i, j, k in itertools.product((1, 2), repeat=3):
            want = _ref_jacobiator(h, i, j, k)
            assert pva.jacobiator(h, i, j, k) == want
            assert dop.SparsePoly.from_acc(table.jacobiator(i, j, k)) == want
            poisson = poisson and not want
        assert pva.is_poisson(h) is poisson
        verdicts.append(poisson)
    assert all(verdicts[1:12:2]) and False in verdicts


def _compatible_by_sampling(h, k):
    # is_compatible as it was: the pencil jacobiator, quadratic in t, is zero
    # exactly when it is zero at three distinct points
    return all(pva.is_poisson(h + k * t) for t in (1, 2, 3))


def test_compatibility_matches_three_point_sampling():
    m1, m2 = _current_algebra_pair()
    ops = _rand_skew_operators(random.Random(67), 6)
    pairs = [(H0, H1), (H1, H0 * QQ(-2, 3)), (m1, m2), (m2, m1), (m1, m1 * 5)]
    pairs += list(itertools.combinations(ops, 2))
    verdicts = []
    for h, k in pairs:
        want = _compatible_by_sampling(h, k)
        assert pva.is_compatible(h, k) is want
        verdicts.append(want)
    # a pair of Poisson operators with no Poisson pencil, (M1, M2), and
    # seeded pairs of both verdicts
    assert verdicts[2] is False and pva.is_poisson(m1) and pva.is_poisson(m2)
    assert True in verdicts[5:] and False in verdicts[5:]


def test_is_poisson_derives_each_frechet_row_once(monkeypatch):
    rows = []
    frechet_row = vc.frechet_row

    def counted_row(g, nvars=2):
        rows.append(g)
        return frechet_row(g, nvars)

    checks = []
    jacobi_holds = pva._jacobi_holds

    def counted_check(h):
        del rows[:]
        ok = jacobi_holds(h)
        coeffs = {f for row in h.entries for op in row for _k, f in op.terms}
        checks.append((len(rows), len(coeffs)))
        return ok

    monkeypatch.setattr(vc, "frechet_row", counted_row)
    monkeypatch.setattr(pva, "_jacobi_holds", counted_check)
    assert pva.is_poisson(H0)
    assert pva.is_poisson(H1)
    assert pva.is_compatible(H0, H1)
    assert len(checks) == 5  # one per is_poisson, three inside is_compatible
    for calls, distinct in checks:
        assert calls == distinct


def test_is_poisson_keeps_the_exponent_check():
    # each entry is fine, but a bracket multiplies u^19999 by u^20000
    h = parse_operator("d*u^20000 + u^20000*d")
    with pytest.raises(ExponentOverflow):
        pva.is_poisson(h)


def test_is_poisson_ignores_rational_scaling():
    # every jacobiator is quadratic in H, so the check may run on an
    # integral multiple of H without changing the verdict
    h0, h1 = magri.builtin_pair()
    assert pva.is_poisson(h0 * QQ(3, 4))
    assert pva.is_poisson(h0 + h1 * QQ(-7, 3))
    m1, m2 = _current_algebra_pair()
    assert not pva.is_poisson(m1 + m2 * QQ(1, 2))
    h = h0 * QQ(1, 4) + h1 * QQ(5, 6)

    def coeffs(h):
        return [f for row in h.entries for op in row for _k, f in op.terms]

    # the multiplier is the lcm of the stored denominators
    assert da.denominator(coeffs(h)) == 12
    scaled = h * 12
    assert all(type(c) is int for f in coeffs(scaled) for _m, c in f.terms)
    assert da.denominator(coeffs(scaled)) == da.denominator(coeffs(h0)) == 1
    # scaling by 1 keeps the coefficient objects, and the derivatives kept on them
    assert all(a is b for a, b in zip(coeffs(h0 * 1), coeffs(h0)))


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


def _swap_lambda_mu(poly):
    """-J(mu, lambda) for a jacobiator J(lambda, mu)."""
    return dop.SparsePoly([((m, l), -f) for (l, m), f in poly.terms])


def test_skew_symmetry_settles_the_mirrored_checks():
    # the three identities that let involutivity_report skip its diagonal
    # and is_poisson skip the triples with i > j, on H0, H1 and random skew
    # operators, most of them not Poisson, against Laurent and log inputs
    rng = random.Random(5)
    ops = [H0, H1]
    for _ in range(12):
        a = helpers.rand_matrix_op(rng, max_deg=2, terms=2, max_order=2, max_exp=2)
        ops.append(a - dop.adjoint(a))
    xs = [helpers.rand_vector(rng) for _ in range(6)]
    text = " ".join(da.to_text(f) for x in xs for f in x)
    assert "v^-" in text and "log(v)" in text
    # the diagonal bracket: the integral of x . Hx vanishes for skew H
    for h in ops:
        assert dop.is_skew_adjoint(h)
        for x in xs[:2]:
            assert da.is_total_derivative(da.dot(x, dop.apply(h, x)))
    # a field commutes with itself
    for p in xs:
        assert vc.evolutionary_commutator(p, p) == (ZERO, ZERO)
    # J(u_j, u_i, u_k)(lambda, mu) = -J(u_i, u_j, u_k)(mu, lambda)
    nonzero = 0
    for h in ops:
        jac = {t: pva.jacobiator(h, *t) for t in itertools.product((1, 2), repeat=3)}
        for (i, j, k), val in jac.items():
            assert jac[j, i, k] == _swap_lambda_mu(val)
            nonzero += bool(val)
    assert nonzero >= 80  # 91 of the 96 jacobiators of the random operators


def test_is_poisson_builds_only_the_triples_with_i_at_most_j(monkeypatch):
    built = []
    jacobiator = pva._BracketTable.jacobiator

    def counted(self, i, j, k):
        built.append((i, j, k))
        return jacobiator(self, i, j, k)

    monkeypatch.setattr(pva._BracketTable, "jacobiator", counted)
    assert pva.is_poisson(H0)
    assert sorted(built) == [(i, j, k) for i, j, k in itertools.product((1, 2), repeat=3) if i <= j]
    assert len(built) == 6
