"""magri benchmark: four workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hierarchy --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0   # one row per workload
    python3 perfbench/run.py --workload all --seed 1 --trace 1   # per-layer table

Workloads: hierarchy, poisson, involution, calculus (see workloads.py).
Each run imports magri from ``src/`` of the checkout, in a fresh
interpreter, so the module-level memo tables start empty.  The timed
pass runs in this process on one thread; the child interpreters that
sample set-up time, or give the untraced reference of a traced run,
run one at a time and never beside the timed pass.

The last line of standard output is the result, a JSON object with
keys correct, attempted, failed and metrics.  The line before it,
``{"info": ...}``, records the Python version, nproc, the seed, the
sample counts and a SHA-256 digest of every output the program gave.

``--trace 0`` reports the end-to-end metrics.  Times are scaled to a
nominal machine speed by the probe of speed.py (the host's speed drifts
by up to a factor of two); the raw times are in the info line.

- setup_s: median of five child interpreters that start, import magri
  and build the workload's inputs (for involution, the chains);
- wall_s: the timed pass;
- peak_rss_mb: peak resident memory of this process, read right after
  the timed pass;
- ok_share: operations that gave a checked answer over operations
  attempted, that is 1 - failed/attempted;
- ops_per_s: operations over wall_s;
- query_ms.p50 and query_ms.p99: latency of each top-level call into
  magri (nearest rank for p99).

``--trace 1`` wraps each layer's functions from outside (layers.py),
runs the same pass traced, and reports the per-layer metrics, in raw
seconds, and trace.overhead_s, the traced raw wall time minus that of
an untraced child run of the same seed, whose output digest must
match.  Spans go to ``.perfbench_out/`` in the checkout.

``--smoke`` runs a small version of a workload, for the tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("hierarchy", "poisson", "involution", "calculus")
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 170


def _use_checkout():
    """Import magri from this checkout's src/ only; exit if it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "magri", "__init__.py")):
        sys.exit(f"perfbench: no magri sources under {src}")
    sys.path[:0] = [src, os.path.join(ROOT, "tests")]
    import magri

    if not os.path.abspath(magri.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: magri imported from {magri.__file__}, not {src}")


def _workload(args):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, args.smoke, args.seconds)


def _argv(args, **override):
    a = dict(vars(args), **override)
    out = [sys.executable, os.path.abspath(__file__), "--workload", a["workload"], "--seed", str(a["seed"]),
           "--seconds", str(a["seconds"]), "--trace", str(a["trace"])]
    if a["smoke"]:
        out.append("--smoke")
    if a["setup_only"]:
        out.append("--setup-only")
    return out


def _child(argv):
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"perfbench: child {argv[2:]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def _setup_seconds(args):
    """Raw set-up times of child interpreters, and each one's speed factor."""
    samples = []
    for _ in range(1 if args.smoke else SETUP_SAMPLES):
        with speed.Speedometer(interval=None) as sm:
            t0 = speed.now()
            _child(_argv(args, setup_only=True, trace=0))
            dt = speed.now() - t0
        samples.append((dt, sm.factor()))
    return samples


def _digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(op.label.encode())
        h.update(b"\0")
        h.update(op.output.encode())
        h.update(b"\0")
    return h.hexdigest()


def _p99(xs):
    xs = sorted(xs)
    return xs[math.ceil(0.99 * len(xs)) - 1]


def _timed_pass(wl, inputs, interval=speed.INTERVAL_S):
    """Run the pass; returns ops, raw wall time and the Speedometer."""
    with speed.Speedometer(interval) as sm:
        t0 = speed.now()
        ops = wl.run(inputs)
        wall = speed.now() - t0
    return ops, wall, sm


def _result(wl, inputs, ops, info, ref_digest=None):
    wl.check(inputs, ops)
    failed = [op for op in ops if op.error or op.wrong]
    info["digest"] = _digest(ops)
    info["failures"] = [f"{op.label}: {op.wrong or op.error}" for op in failed[:20]]
    correct = not any(op.wrong for op in ops)
    if ref_digest is not None and info["digest"] != ref_digest:
        info["failures"].append("traced output digest differs from the untraced one")
        correct = False
    return {"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": {}}


def measure(args):
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if args.trace:
        return measure_traced(args, info)
    setup = _setup_seconds(args)
    wl = _workload(args)
    inputs = wl.build()
    ops, wall, sm = _timed_pass(wl, inputs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calls = wl.timed_calls(ops)
    lat_raw = [op.seconds for op in calls]
    lat = [op.seconds * sm.factor_between(op.start, op.start + op.seconds) for op in calls]
    # the time between calls (harness, redirects) at the whole pass's speed
    wall_scaled = sum(lat) + (wall - sum(lat_raw)) * sm.factor()
    info["query_samples"] = len(lat)
    info["probes"] = len(sm.samples)
    info["speed_factor"] = sm.factor()
    info["raw"] = {
        "setup_s": [dt for dt, _f in setup],
        "wall_s": wall,
        "query_ms.p50": 1000 * statistics.median(lat_raw),
        "query_ms.p99": 1000 * _p99(lat_raw),
    }
    result = _result(wl, inputs, ops, info)
    n = result["attempted"]
    result["metrics"] = {
        "setup_s": {"value": statistics.median(dt * sf for dt, sf in setup), "unit": "s"},
        "wall_s": {"value": wall_scaled, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "ok_share": {"value": (n - result["failed"]) / n, "unit": "share"},
        "ops_per_s": {"value": n / wall_scaled, "unit": "1/s"},
        "query_ms.p50": {"value": 1000 * statistics.median(lat), "unit": "ms"},
        "query_ms.p99": {"value": 1000 * _p99(lat), "unit": "ms"},
    }
    return info, result


def measure_traced(args, info):
    import layers
    from tracer import Tracer

    ref_info, _ = _parse_output(_child(_argv(args, trace=0)))
    wl = _workload(args)
    inputs = wl.build()
    tracer = Tracer()
    info["names_rebound"] = layers.install(tracer)
    before = layers.memo_sizes()
    try:
        # no probes inside the traced pass, so that spans hold magri's time only
        ops, wall, _sm = _timed_pass(wl, inputs, interval=None)
    finally:
        tracer.uninstall()
    after = layers.memo_sizes()
    info["raw"] = {"wall_s": wall}
    info["untraced_raw_wall_s"] = ref_info["raw"]["wall_s"]
    result = _result(wl, inputs, ops, info, ref_info["digest"])
    metrics = layers.per_layer(tracer, before, after)
    metrics["trace.overhead_s"] = (wall - info["untraced_raw_wall_s"], "s")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
    return info, result


def _parse_output(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def run_all(args):
    """Every workload in its own child interpreter, one table row each."""
    rows = []
    ok = True
    for name in NAMES:
        info, res = _parse_output(_child(_argv(args, workload=name)))
        ok = ok and res["correct"]
        print(json.dumps({"info": info}), file=sys.stderr)
        fail_share = res["failed"] / res["attempted"]
        rows.append((name, "correct", res["correct"], ""))
        rows.append((name, "attempted", res["attempted"], "count"))
        rows.append((name, "fail_share", fail_share, "share"))
        if "query_samples" in info:
            rows.append((name, "query_samples", info["query_samples"], "count"))
        for key, m in res["metrics"].items():
            rows.append((name, key, m["value"], m["unit"]))
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, seed {args.seed}, seconds {args.seconds}")
    for name, key, value, unit in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<11} {key:<40} {text:>14} {unit}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=16)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, for the tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    _use_checkout()
    if args.setup_only:
        _workload(args).build()
        return 0
    info, result = measure(args)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
