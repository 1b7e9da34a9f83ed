"""Per-layer tracing of magri, installed from outside the program.

``install(tracer)`` wraps the public functions of each layer and the
``DiffFunction`` arithmetic; ``per_layer(tracer, memo)`` turns what the
tracer saw into the per-layer metrics.  The memo tables are only read.
"""

from __future__ import annotations

from magri import cli, diffalg, diffop, expr, lenard, linsolve, pva, render, varcalc

# span name -> functions recorded under it
SPANS = {
    "diffalg.total_derivative": [(diffalg, "total_derivative")],
    "diffalg.partial_derivative": [(diffalg, "partial_derivative")],
    "diffalg.euler_derivative": [(diffalg, "euler_derivative")],
    "diffalg.antiderivative": [(diffalg, "antiderivative")],
    "diffop.apply": [(diffop, "apply")],
    "diffop.compose": [(diffop, "compose")],
    "diffop.adjoint": [(diffop, "adjoint")],
    "diffop.is_skew_adjoint": [(diffop, "is_skew_adjoint")],
    "varcalc.variational_derivative": [(varcalc, "variational_derivative")],
    "varcalc.frechet": [(varcalc, "frechet")],
    "varcalc.is_closed": [(varcalc, "is_closed")],
    "varcalc.evolutionary_commutator": [(varcalc, "evolutionary_commutator")],
    "varcalc.integrate_exact": [(varcalc, "integrate_exact")],
    "linsolve.solve": [(linsolve, "solve")],
    "pva.jacobiator": [(pva, "jacobiator")],
    "pva.is_poisson": [(pva, "is_poisson")],
    "pva.is_compatible": [(pva, "is_compatible")],
    "pva.poisson_bracket": [(pva, "poisson_bracket")],
    "pva.hamiltonian_flow": [(pva, "hamiltonian_flow")],
    "lenard.run_hierarchy": [(lenard, "run_hierarchy")],
    "lenard.lm_step": [(lenard, "lm_step")],
    "lenard.involutivity_report": [(lenard, "involutivity_report")],
    "expr.parse": [(expr, "parse"), (expr, "parse_vector"), (expr, "parse_operator")],
    "render": [(diffalg, "to_text")]
    + [
        (render, n)
        for n in (
            "function_to_json",
            "vector_to_json",
            "operator_to_json",
            "run_to_json",
            "latex",
            "latex_vector",
            "latex_operator",
            "op_text",
        )
    ],
    "cli.main": [(cli, "main")],
}

CHAINS = [(e, a) for e in (0, 1) for a in (0, 1)]


def _arg(args, kwargs, i, name, default):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def install(tracer):
    """Wrap every layer function; returns the number of names rebound."""
    counts = tracer.counts
    DF = diffalg.DiffFunction

    def on_total_derivative(args, kwargs, result, raised, dur):
        terms = len(args[0].terms)
        counts["total_derivative.terms_in"] += terms
        counts["dx_memo.lookups"] += terms * _arg(args, kwargs, 1, "n", 1)

    def on_partial_derivative(args, kwargs, result, raised, dur):
        counts["pd_memo.lookups"] += len(args[0].terms)

    def on_antiderivative(args, kwargs, result, raised, dur):
        counts["antiderivative.none_returned"] += not raised and result is None

    def on_integrate(args, kwargs, result, raised, dur):
        counts["integrate_exact.fail"] += raised

    def on_solve(args, kwargs, result, raised, dur):
        columns, rhs = args[0], args[1]
        rows = set(rhs)
        for col in columns:
            rows.update(col)
        counts["solve.rows_max"] = max(counts["solve.rows_max"], len(rows))
        counts["solve.cols_max"] = max(counts["solve.cols_max"], len(columns))

    def on_report(args, kwargs, result, raised, dur):
        if not raised:
            m = len(result.labels)
            counts["involutivity_report.pairs"] += m * (m + 1) // 2

    def on_chain(args, kwargs, result, raised, dur):
        eps = _arg(args, kwargs, 0, "eps", None)
        alpha = _arg(args, kwargs, 1, "alpha", None)
        counts[f"chain_s.e{eps}a{alpha}"] += dur

    hooks = {
        "lenard.run_hierarchy": on_chain,
        "diffalg.total_derivative": on_total_derivative,
        "diffalg.partial_derivative": on_partial_derivative,
        "diffalg.antiderivative": on_antiderivative,
        "varcalc.integrate_exact": on_integrate,
        "linsolve.solve": on_solve,
        "lenard.involutivity_report": on_report,
    }

    n = 0
    for name, targets in SPANS.items():
        for mod, attr in targets:
            orig = getattr(mod, attr)
            n += tracer.rebind(orig, tracer.span(name, orig, hooks.get(name)))

    def coeffs(result):
        terms = result.terms
        counts["coeff.total"] += len(terms)
        counts["coeff.nonint"] += sum(1 for _m, c in terms if c.denominator != 1)

    def on_add(a, b, result):
        counts["add.terms_in"] += len(a.terms) + (len(b.terms) if isinstance(b, DF) else 1)
        coeffs(result)

    def on_mul(a, b, result):
        counts["mul.term_pairs"] += len(a.terms) * (len(b.terms) if isinstance(b, DF) else 1)
        coeffs(result)

    add, mul = DF.__add__, DF.__mul__
    n += tracer.rebind_method(DF, add, tracer.leaf("diffalg.add", add, on_add))
    n += tracer.rebind_method(DF, mul, tracer.leaf("diffalg.mul", mul, on_mul))
    return n


def memo_sizes():
    """Sizes of the module-level memo tables (read, never cleared)."""
    return {
        "dx": len(getattr(diffalg, "_DX_MONO", ())),
        "pd": len(getattr(diffalg, "_PD_MONO", ())),
        "euler": len(getattr(varcalc, "_EULER_MONO", ())),
    }


def _hit_ratio(lookups, misses):
    return 1.0 - misses / lookups if lookups else 0.0


def per_layer(tracer, before, after):
    """The per-layer metrics, given memo sizes before and after the run."""
    c, s = tracer.counts, tracer.self_s
    m = {}
    for name in (
        "diffalg.total_derivative",
        "diffalg.partial_derivative",
        "diffalg.euler_derivative",
        "diffalg.antiderivative",
        "diffop.apply",
        "diffop.compose",
        "diffop.adjoint",
        "varcalc.variational_derivative",
        "varcalc.frechet",
        "varcalc.is_closed",
        "varcalc.evolutionary_commutator",
        "varcalc.integrate_exact",
        "linsolve.solve",
        "pva.jacobiator",
        "pva.poisson_bracket",
        "lenard.lm_step",
        "expr.parse",
        "render",
        "cli.main",
    ):
        m[f"{name}.self_s"] = (s[name], "s")
    for name in (
        "diffalg.total_derivative",
        "diffop.apply",
        "varcalc.integrate_exact",
        "linsolve.solve",
        "pva.jacobiator",
        "diffalg.add",
        "diffalg.mul",
    ):
        m[f"{name}.calls"] = (tracer.calls[name], "count")
    m["diffalg.arith.self_s"] = (s["diffalg.add"] + s["diffalg.mul"], "s")
    m["diffalg.total_derivative.terms_in"] = (c["total_derivative.terms_in"], "count")
    m["diffalg.antiderivative.none_returned"] = (c["antiderivative.none_returned"], "count")
    m["diffalg.add.terms_in"] = (c["add.terms_in"], "count")
    m["diffalg.mul.term_pairs"] = (c["mul.term_pairs"], "count")
    total = c["coeff.total"]
    m["diffalg.coeff.nonint_share"] = (c["coeff.nonint"] / total if total else 0.0, "share")
    m["diffalg.dx_memo.size"] = (after["dx"], "count")
    m["diffalg.dx_memo.hit_ratio"] = (
        _hit_ratio(c["dx_memo.lookups"], after["dx"] - before["dx"]),
        "share",
    )
    m["diffalg.pd_memo.size"] = (after["pd"], "count")
    m["diffalg.pd_memo.hit_ratio"] = (
        _hit_ratio(c["pd_memo.lookups"], after["pd"] - before["pd"]),
        "share",
    )
    m["varcalc.euler_memo.size"] = (after["euler"], "count")
    m["varcalc.integrate_exact.fail"] = (c["integrate_exact.fail"], "count")
    m["linsolve.solve.rows_max"] = (c["solve.rows_max"], "count")
    m["linsolve.solve.cols_max"] = (c["solve.cols_max"], "count")
    for e, a in CHAINS:
        m[f"lenard.chain_s.e{e}a{a}"] = (c[f"chain_s.e{e}a{a}"], "s")
    m["lenard.involutivity_report.pairs"] = (c["involutivity_report.pairs"], "count")
    m["trace.spans"] = (len(tracer.span_name), "count")
    return m
