"""The four workloads: inputs, the timed pass, and the output checks.

A workload is an object with three methods:

- ``build()`` makes the inputs (this is part of set-up);
- ``run(inputs)`` is the timed pass; it returns one ``Op`` per operation;
- ``check(inputs, ops)`` runs after the clock stops and marks each
  operation whose output is wrong, comparing against answers that magri
  did not compute (hand-written verdicts, the order law, the sympy
  oracle in ``tests/oracle.py``).

An operation is one chain, one verdict, one pair or one query.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field

import magri
from magri import cli
from magri.errors import MagriError

import querygen
import speed


@dataclass
class Op:
    label: str
    output: str = ""  # bytes that go into the digest
    start: float = 0.0  # speed.now() when the call began
    seconds: float = 0.0
    error: str | None = None  # the program failed (raised or nonzero exit)
    wrong: str | None = None  # a check found a wrong answer
    extra: dict = field(default_factory=dict)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _timed(label, fn):
    t0 = speed.now()
    value = fn()
    return Op(label, start=t0, seconds=speed.now() - t0), value


class Workload:
    def timed_calls(self, ops):
        """The ops that carry a latency sample: one per top-level call into magri."""
        return ops


# -- hierarchy ---------------------------------------------------------------

# Order law of acceptance criterion 5: orders[n] == (6n + cu, 6n + cv) for
# n >= 1 and flow_orders[n] == 6n + c.
GRAD_C = {(0, 0): (-2, 0), (0, 1): (0, 2), (1, 0): (-2, -6), (1, 1): (2, -2)}
FLOW_C = {(0, 0): 5, (0, 1): 7, (1, 0): 1, (1, 1): 5}


class Hierarchy(Workload):
    """``magri hierarchy`` with densities and JSON output, four chains.

    (0, 1) stops at depth 1: depth 2 alone takes about 52 s.
    """

    def __init__(self, seed, smoke, seconds):
        self.chains = [(1, 0, 1), (1, 1, 1)] if smoke else [(0, 0, 2), (0, 1, 1), (1, 0, 3), (1, 1, 3)]

    def build(self):
        return [["hierarchy", "--eps", str(e), "--alpha", str(a), "--steps", str(d)] for e, a, d in self.chains]

    def run(self, inputs):
        ops = []
        for (e, a, d), argv in zip(self.chains, inputs):
            op, (rc, out, err) = _timed(f"e{e}a{a}d{d}", lambda: _cli(argv))
            op.output = f"{rc}\n{out}"
            if rc != 0:
                op.error = f"exit {rc}: {err.strip()[:200]}"
            ops.append(op)
        return ops

    def check(self, inputs, ops):
        for (e, a, d), op in zip(self.chains, ops):
            if op.error:
                continue
            run = json.loads(op.output.split("\n", 1)[1])
            bad = [k for k, v in run["checks"].items() if v is not True]
            cu, cv = GRAD_C[(e, a)]
            for n in range(1, d + 1):
                if run["orders"][n] != [6 * n + cu, 6 * n + cv]:
                    bad.append(f"orders[{n}]={run['orders'][n]}")
            for n in range(d + 1):
                if run["flow_orders"][n] != 6 * n + FLOW_C[(e, a)]:
                    bad.append(f"flow_orders[{n}]={run['flow_orders'][n]}")
            if len(run["densities"]) != d + 1:
                bad.append("densities")
            if bad:
                op.wrong = ", ".join(bad)


# -- poisson -----------------------------------------------------------------


class Poisson(Workload):
    """Poisson and compatibility verdicts, expected answers by hand.

    The six verdicts of the paper's pair and of the current-algebra pair
    come first.  Then come pencil members drawn from the seed: H0 + t*H1
    is Poisson for every t, because the pair is compatible, and
    M1 + t*M2 is not Poisson for any t != 0, because its Jacobi defect
    is t times the nonzero mixed term.  They add seeded work of the same
    kind: one H pencil member per second of ``--seconds`` (each takes
    under a second), so that a run is long enough to be steady.
    """

    PENCIL_M = 2

    def __init__(self, seed, smoke, seconds):
        self.seed = seed
        self.smoke = smoke
        self.pencil_h = seconds

    def build(self):
        h0, h1 = magri.builtin_pair()
        zero = magri.ScalarDiffOp()
        vir = magri.ScalarDiffOp([(0, magri.u_jet(1)), (1, magri.u_jet(0) * 2)])
        m1 = magri.MatrixDiffOp([[vir, zero], [zero, magri.D]])
        m2 = magri.MatrixDiffOp([[zero, magri.D], [magri.D, zero]])
        cases = [
            ("is_poisson(H0)", lambda: magri.is_poisson(h0), True),
            ("is_poisson(H1)", lambda: magri.is_poisson(h1), True),
            ("is_compatible(H0,H1)", lambda: magri.is_compatible(h0, h1), True),
            ("is_poisson(M1)", lambda: magri.is_poisson(m1), True),
            ("is_poisson(M2)", lambda: magri.is_poisson(m2), True),
            ("is_compatible(M1,M2)", lambda: magri.is_compatible(m1, m2), False),
        ]
        if self.smoke:
            return [c for c in cases if "H1" not in c[0]]
        rng = random.Random(self.seed)
        for k in range(self.pencil_h + self.PENCIL_M):
            t = magri.QQ(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 4))
            if k < self.pencil_h:
                op = h0 + h1 * t
                cases.append((f"is_poisson(H0+({t})*H1)", lambda op=op: magri.is_poisson(op), True))
            else:
                op = m1 + m2 * t
                cases.append((f"is_poisson(M1+({t})*M2)", lambda op=op: magri.is_poisson(op), False))
        return cases

    def run(self, inputs):
        ops = []
        for label, fn, _want in inputs:
            try:
                op, got = _timed(label, fn)
                op.extra["verdict"] = got
                op.output = f"{label}={got}\n"
            except MagriError as exc:
                op = Op(label, error=repr(exc))
            ops.append(op)
        return ops

    def check(self, inputs, ops):
        for (_label, _fn, want), op in zip(inputs, ops):
            if not op.error and op.extra["verdict"] is not want:
                op.wrong = f"verdict {op.extra['verdict']}, expected {want}"


# -- involution --------------------------------------------------------------


class Involution(Workload):
    """``involutivity_report(include_flows=True)`` on two chains.

    The (1, 0) chain to depth 2 and the (1, 1) chain to depth 1 give five
    densities and fifteen pairs.  The (0, 0) and (1, 1) chains at depth 1
    take 47 s on a 2-core 2.1 GHz Xeon, 31 s of it in the single (0,0,1)
    self-commutator, and a traced run of them takes about 112 s.
    """

    def __init__(self, seed, smoke, seconds):
        self.chains = [(1, 0, 1), (1, 1, 1)] if smoke else [(1, 0, 2), (1, 1, 1)]

    def build(self):
        return [magri.run_hierarchy(e, a, d) for e, a, d in self.chains]

    def run(self, inputs):
        try:
            op, report = _timed("report", lambda: magri.involutivity_report(inputs, include_flows=True))
        except MagriError as exc:
            return [Op(f"pair{k}", error=repr(exc)) for k in range(self._pairs())]
        m = len(report.labels)
        out = json.dumps(
            {
                "labels": report.labels,
                "h0": report.bracket_h0,
                "h1": report.bracket_h1,
                "flows": report.flows_commute,
                "all_ok": report.all_ok,
            }
        )
        ops = []
        for i in range(m):
            for j in range(i, m):
                pair = Op(f"{report.labels[i]}x{report.labels[j]}")
                pair.extra["ok"] = (
                    report.bracket_h0[i][j] and report.bracket_h1[i][j] and report.flows_commute[i][j]
                )
                ops.append(pair)
        # one call computes every pair: its time and output go on the first
        ops[0].start, ops[0].seconds = op.start, op.seconds
        ops[0].output = out
        ops[0].extra["all_ok"] = report.all_ok
        ops[0].extra["labels"] = [list(x) for x in report.labels]
        return ops

    def _pairs(self):
        m = sum(d + 1 for _e, _a, d in self.chains)
        return m * (m + 1) // 2

    def check(self, inputs, ops):
        if ops[0].error:
            return
        want = [[e, a, n] for e, a, d in self.chains for n in range(d + 1)]
        if ops[0].extra["labels"] != want or len(ops) != self._pairs():
            ops[0].wrong = f"labels {ops[0].extra['labels']}"
        if not ops[0].extra["all_ok"] and ops[0].wrong is None:
            ops[0].wrong = "all_ok is false"
        for op in ops:
            # every pair of densities and flows in these chains commutes
            if not op.extra["ok"] and op.wrong is None:
                op.wrong = "pair does not commute"

    def timed_calls(self, ops):
        return ops[:1]


# -- calculus ----------------------------------------------------------------

# a seeded sample of this many queries of these kinds is checked by sympy
ORACLE_SAMPLE = 16
ORACLE_KINDS = ("integrate", "fmt_json", "varder_json", "reduce_exact")


class Calculus(Workload):
    """Seeded one-shot queries through ``cli.main`` and ``integrate_exact``."""

    QUERIES_PER_SECOND = 200  # about what one second holds on a 2.1 GHz Xeon

    def __init__(self, seed, smoke, seconds):
        self.seed = seed
        self.count = 56 if smoke else max(1000, self.QUERIES_PER_SECOND * seconds)

    def build(self):
        qs = querygen.make_queries(self.seed, self.count)
        for q in qs:
            if q["argv"] is None:
                q["xi"] = magri.variational_derivative(magri.parse(q["text"]))
        return qs

    def run(self, inputs):
        ops = []
        for q in inputs:
            if q["argv"] is None:
                t0 = speed.now()
                try:
                    h = magri.integrate_exact(q["xi"])
                    op = Op("integrate", output=magri.to_text(h.rep) + "\n", extra={"h": h})
                except MagriError as exc:
                    op = Op("integrate", output=type(exc).__name__ + "\n", error=repr(exc))
                op.start, op.seconds = t0, speed.now() - t0
            else:
                op, (rc, out, err) = _timed(q["kind"], lambda: _cli(q["argv"]))
                op.output = f"{rc}\n{out}"
                op.extra["stdout"] = out
                if rc != 0:
                    op.error = f"exit {rc}: {err.strip()[:200]}"
            ops.append(op)
        return ops

    def check(self, inputs, ops):
        from magri import render

        import oracle

        eligible = [
            k for k, (q, op) in enumerate(zip(inputs, ops)) if not op.error and q["kind"] in ORACLE_KINDS
        ]
        rng = random.Random(self.seed)
        sampled = set(rng.sample(eligible, min(ORACLE_SAMPLE, len(eligible))))
        for k, (q, op) in enumerate(zip(inputs, ops)):
            if op.error:
                continue
            kind = q["kind"]
            use_oracle = k in sampled
            if kind == "integrate":
                h = op.extra["h"]
                if magri.variational_derivative(h) != q["xi"]:
                    op.wrong = "variational_derivative(h) != xi"
                elif use_oracle:
                    f_sym = _terms_sym(oracle, q["f"])
                    h_sym = oracle.to_sympy(h.rep)
                    for var in (0, 1):
                        if not oracle.sym_equal(oracle.sym_euler(h_sym, var), oracle.sym_euler(f_sym, var)):
                            op.wrong = "oracle: gradient of h differs"
            elif kind == "fmt_json":
                f = magri.parse(q["text"])
                if render.function_from_json(json.loads(op.extra["stdout"])) != f:
                    op.wrong = "fmt --json differs from parse"
                elif magri.parse(magri.to_text(f)) != f:
                    op.wrong = "parse(to_text(f)) != f"
                elif use_oracle:
                    if not oracle.sym_equal(oracle.to_sympy(f), _terms_sym(oracle, q["f"])):
                        op.wrong = "oracle: parsed function differs"
            elif kind == "varder_json" and use_oracle:
                grad = render.vector_from_json(json.loads(op.extra["stdout"]))
                f_sym = _terms_sym(oracle, q["f"])
                for var in (0, 1):
                    if not oracle.sym_equal(oracle.to_sympy(grad[var]), oracle.sym_euler(f_sym, var)):
                        op.wrong = "oracle: variational derivative differs"
            elif kind == "reduce_exact":
                payload = json.loads(op.extra["stdout"])
                if not payload["in_derivative_image"]:
                    op.wrong = "D(f) not recognised as exact"
                elif use_oracle:
                    g = render.function_from_json(payload["antiderivative"])
                    diff = oracle.to_sympy(g) - _terms_sym(oracle, q["f"])
                    if not oracle.sym_zero(oracle.sp.diff(diff, oracle.x)):
                        op.wrong = "oracle: antiderivative of D(f) is not f + const"


def _terms_sym(oracle, terms):
    """sympy expression of generator terms, built without magri."""
    sp = oracle.sp
    acc = sp.Integer(0)
    for num, den, factors in terms:
        t = sp.Rational(num, den)
        for name, order, exp in factors:
            if name == "log":
                t *= sp.log(oracle.v_fn) ** exp
            else:
                t *= oracle.jet_sym("uv".index(name), order) ** exp
        acc += t
    return acc


WORKLOADS = {
    "hierarchy": Hierarchy,
    "poisson": Poisson,
    "involution": Involution,
    "calculus": Calculus,
}
