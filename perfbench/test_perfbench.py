"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf_fn(a, b):
        clock.now += 0.5
        return a + b

    add = tr.leaf("add", leaf_fn, lambda a, b, r: tr.counts.update(["adds"]))

    def inner():
        clock.now += 2.0
        add(1, 2)  # 0.5 s, covered by inner
        return 1

    inner_w = tr.span("inner", inner)

    def outer():
        clock.now += 1.0
        inner_w()
        clock.now += 3.0
        inner_w()
        return 2

    outer_w = tr.span("outer", outer)
    assert outer_w() == 2
    # outer lasts 1 + 2.5 + 3 + 2.5 = 9 s, of which its two children cover 5
    assert tr.self_s["outer"] == pytest.approx(4.0)
    assert tr.self_s["inner"] == pytest.approx(4.0)
    assert tr.self_s["add"] == pytest.approx(1.0)
    assert tr.calls == {"outer": 1, "inner": 2, "add": 2}
    assert tr.counts["adds"] == 2
    # spans carry their parent's id; outer opened first
    assert list(tr.span_parent) == [-1, 0, 0]
    assert [tr.names[i] for i in tr.span_name] == ["outer", "inner", "inner"]
    assert tr.span_end[0] - tr.span_start[0] == pytest.approx(9.0)
    assert tr.span_end[2] - tr.span_start[2] == pytest.approx(2.5)


def test_span_records_a_raising_call():
    tr = Tracer(FakeClock())
    seen = []

    def boom():
        raise ValueError("x")

    w = tr.span("boom", boom, lambda a, k, r, raised, dur: seen.append(raised))
    with pytest.raises(ValueError):
        w()
    assert seen == [True]
    assert tr.calls["boom"] == 1
    assert tr._stack == []


def test_install_rebinds_aliases_and_uninstall_restores():
    import magri
    from magri import diffalg, lenard

    import layers

    orig = diffalg.total_derivative
    orig_add = diffalg.DiffFunction.__add__
    tr = Tracer()
    assert layers.install(tr) > len(layers.SPANS)
    try:
        assert diffalg.total_derivative is not orig
        assert magri.total_derivative is diffalg.total_derivative
        assert lenard.run_hierarchy is magri.run_hierarchy
        assert diffalg.DiffFunction.__radd__ is diffalg.DiffFunction.__add__
        u = magri.u_jet(0)
        assert magri.total_derivative(u * u + u) == 2 * u * magri.u_jet(1) + magri.u_jet(1)
        assert tr.calls["diffalg.total_derivative"] == 1
        assert tr.calls["diffalg.mul"] >= 2
    finally:
        tr.uninstall()
    assert diffalg.total_derivative is orig
    assert magri.total_derivative is orig
    assert diffalg.DiffFunction.__add__ is orig_add


def test_speedometer_samples_and_takes_probe_time_out():
    import time

    import speed

    with speed.Speedometer(interval=0.01) as sm:
        t0, w0 = time.perf_counter(), speed.now()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1, w1 = time.perf_counter(), speed.now()
    assert len(sm.samples) > 2 * speed.EDGE_PROBES
    assert w1 - w0 < t1 - t0
    assert sm.factor() > 0
    # an interval with probes near it uses them; one far away falls back
    assert sm.factor_between(w0, w1) > 0
    assert sm.factor_between(w1 + 100, w1 + 101) == sm.factor()


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["hierarchy", "poisson", "involution", "calculus"])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    info, res = _run("--workload", workload, "--seed", "5", "--trace", "0", "--smoke")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    # the only known failures: integrate_exact raises NoSolution on some
    # exact gradients with a log v factor
    assert all(f.startswith("integrate: NoSolution") for f in info["failures"])
    assert res["failed"] == len(info["failures"])
    want = {m["name"]: m["unit"] for m in _bench()["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert info["seed"] == 5 and info["nproc"] and info["python"]


def test_smoke_traced_run_reports_every_per_layer_metric():
    info, res = _run("--workload", "calculus", "--seed", "2", "--trace", "1", "--smoke")
    assert res["correct"] is True
    want = {m["name"]: m["unit"] for m in _bench()["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["metrics"]["expr.parse.self_s"]["value"] > 0
    assert res["metrics"]["diffalg.total_derivative.calls"]["value"] > 0


def test_same_seed_same_inputs():
    import querygen

    a = querygen.make_queries(11, 200)
    assert a == querygen.make_queries(11, 200)
    assert a != querygen.make_queries(12, 200)
    kinds = {q["kind"] for q in a}
    assert kinds == {k for k, _ in querygen.KINDS}
    factors = [f[0] for q in a for _n, _d, fs in q["f"] for f in fs]
    assert "log" in factors
    assert any(e < 0 for q in a for _n, _d, fs in q["f"] for _v, _o, e in fs)
