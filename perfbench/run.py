"""balkwise benchmark: a serial, closed-loop harness over the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pricing-doubling --seed 101 --seconds 30 --trace 0

One process, one numeric thread, one op at a time: the next op starts only
after the previous one returns.  Inputs come from --seed only.  The last line
of standard output is the result, one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment.

Times are reported at a nominal host speed: the hosts this runs on change
speed while an op runs, so each op and each set-up is timed by clock.py,
which samples the host's speed during it.  Every op is timed once, on its
first run.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 is a
separate run that records spans and counters around the calls each balkwise
module makes (see spans.py) and reports per-layer metrics, normalised per op.

Per-op outputs and the spans are written to perfbench-out/ in the checkout.
README.md next to this file says why the workloads were chosen and what each
layer metric should move.
"""

from __future__ import annotations

import os

# One numeric thread, fixed before numpy can be imported (here or in children).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import clock  # imports numpy, so set-up times leave numpy's import out
import stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
# Set-ups per run: one in this process, then one in a fresh interpreter after
# each equal slice of the run, so one slow spell cannot set them all.
SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 60
# Workloads and their default seeds.  pricing-increment runs but is not in
# BENCHMARK.json: see README.md.
DEFAULT_SEEDS = {"pricing-doubling": 101, "study-normality": 2, "pricing-increment": 101}


class SetupError(Exception):
    """balkwise could not be imported from this checkout's sources."""


def _import_and_build(workload: str, seed: int):
    sys.path.insert(0, str(SRC))
    try:
        import balkwise
    except ImportError as exc:
        raise SetupError(f"cannot import balkwise from {SRC}: {exc}") from exc
    if not Path(balkwise.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"balkwise imported from {balkwise.__file__}, not from {SRC}")
    import workloads

    return workloads.build(workload, seed, OUT)


def set_up(workload: str, seed: int):
    """Import balkwise from this checkout and build the workload.

    Returns (set-up seconds at nominal host speed, workload).
    """
    wl, _, seconds = clock.measure(lambda: _import_and_build(workload, seed))
    if isinstance(wl, Exception):
        raise wl
    return seconds, wl


def setup_probe(workload: str, seed: int) -> float:
    """Set up once more in a fresh interpreter; returns its set-up seconds."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(done.stdout.split()[-1])


def run_ops(wl, seconds: float = None, ops=None, tracer=None, first: int = 0):
    """Closed loop: issue ops one at a time, for ``seconds`` from op ``first`` on,
    or over the given op ids.

    Returns a list of (op, wall seconds, speed scale, outcome).  The wall
    seconds times the scale is the op's time at nominal host speed; the
    outcome is the op's result or the exception it raised.
    """
    done = []
    start = time.perf_counter()
    todo = None if ops is None else iter(ops)
    op = first
    while True:
        if todo is None:
            if time.perf_counter() - start >= seconds:
                break
        else:
            op = next(todo, None)
            if op is None:
                break
        if tracer is not None:
            tracer.begin_op(op)
        outcome, wall, nominal = clock.measure(lambda: wl.run(op))
        if tracer is not None:
            tracer.end_op()
        done.append((op, wall, nominal / wall, outcome))
        op += 1
    return done


def nominal_seconds(done) -> list[float]:
    return [seconds * scale for _, seconds, scale, _ in done]


def judge(wl, done):
    """Check each op's outputs; returns (per-op rows, failed count, all-correct flag)."""
    rows = []
    failed = 0
    correct = True
    for op, _, _, outcome in done:
        row = {"op": op}
        if isinstance(outcome, Exception):
            problems = wl.check_error(outcome)
            row["status"] = "error" if problems else "documented_error"
            row["error"] = f"{type(outcome).__name__}: {outcome}"
        else:
            row.update(wl.record(op, outcome))
            problems = wl.check(row)
            row["status"] = "check_failed" if problems else "ok"
        if problems:
            row["problems"] = problems
            correct = False
        if row["status"] != "ok":
            failed += 1
        rows.append(row)
    return rows, failed, correct


def untraced(wl, args, first_setup: float):
    """The closed loop for --seconds, with a set-up probe after each equal slice of it."""
    done = []
    setups = [first_setup]
    for _ in range(SETUP_SAMPLES - 1):
        done += run_ops(wl, seconds=args.seconds / (SETUP_SAMPLES - 1), first=len(done))
        setups.append(setup_probe(args.workload, args.seed))
    rows, failed, correct = judge(wl, done)
    ms = [1e3 * seconds for seconds in nominal_seconds(done)]
    tail_ms, tail_pct, n = stats.tail(ms)
    ok = [r["revenue_frac"] for r in rows if r["status"] == "ok"]
    metrics = {
        "setup_s": (stats.median(setups), "s"),
        "ops_per_s": (1e3 * len(ms) / sum(ms), "1/s"),
        "op_p50_ms": (stats.median(ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "revenue_frac": (sum(ok) / len(ok) if ok else 0.0, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    theta_err = [wl.theta_rel_err(r) for r in rows if r["status"] == "ok"]
    notes = {
        "op_tail_percentile": tail_pct,
        "op_samples": n,
        "setup_samples_s": setups,
        # Reported per layer, not gated; here so spread.py can give its spread.
        "theta_rel_err": sum(theta_err) / len(theta_err) if theta_err else None,
        "op_ms": ms,
    }
    return rows, failed, correct, metrics, notes


def traced(wl, args):
    """An untraced pass for a third of --seconds, then two traced replays of its ops.

    The first replay gives the per-layer metrics and, against the untraced
    pass, the tracing overhead; the second must repeat every count exactly.
    """
    import spans

    wl.run(0)  # warm-up, so lazy set-up lands in none of the compared passes
    plain = run_ops(wl, seconds=args.seconds / 3)
    ops = [op for op, _, _, _ in plain]
    tracers = []
    for _ in range(2):
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            timed = run_ops(wl, ops=ops, tracer=tracer)
        finally:
            uninstall()
        tracers.append((tracer, timed))
    (first, timed), (again, _) = tracers

    rows, failed, correct = judge(wl, plain)
    mismatches = [
        {"op": op, "first": dict(first.op_counts[op]), "again": dict(again.op_counts[op])}
        for op in ops
        if first.op_counts[op] != again.op_counts[op]
    ]
    if mismatches:
        correct = False

    layer = spans.layer_metrics(first, {op: scale for op, _, scale, _ in timed})
    ok = [r for r in rows if r["status"] == "ok"]
    layer["theta_rel_err"] = sum(wl.theta_rel_err(r) for r in ok) / len(ok) if ok else 0.0
    layer["failed_frac"] = stats.failed_frac(len(plain), failed)
    traced_s = sum(nominal_seconds(timed))
    plain_s = sum(nominal_seconds(plain))
    layer["trace.ops_per_s"] = len(ops) / traced_s
    layer["trace.untraced_ops_per_s"] = len(ops) / plain_s
    layer["trace.overhead_frac"] = traced_s / plain_s - 1.0

    OUT.mkdir(exist_ok=True)
    first.write(OUT / f"{args.workload}-seed{args.seed}.spans.json")
    metrics = {name: (value, PER_LAYER_UNITS[name]) for name, value in layer.items()}
    notes = {
        "dominant_layer": spans.dominant_layer(layer),
        "count_mismatches": mismatches,
        "op_counts": {str(op): dict(first.op_counts[op]) for op in ops},
    }
    return rows, failed, correct, metrics, notes


PER_LAYER_UNITS = {
    "inference.fit_calls": "count",
    "inference.fit_ms": "ms",
    "inference.fit_p50_ms": "ms",
    "inference.boundary_fits": "count",
    "inference.fit_errors": "count",
    "inference.interior_ratio": "frac",
    "pricing.boundary_retries": "count",
    "stationary.optimal_price_calls": "count",
    "stationary.optimal_price_ms": "ms",
    "stationary.revenue_calls": "count",
    "stationary.revenue_per_search": "count",
    "stationary.theoretical_sigma_ms": "ms",
    "model.sf_calls": "count",
    "model.sf_points": "count",
    "model.grad_cdf_calls": "count",
    "model.hess_cdf_calls": "count",
    "model.require_calls": "count",
    "simulator.simulate_path_ms": "ms",
    "simulator.transitions": "count",
    "simulator.transitions_per_s": "1/s",
    "pricing.collect_calls": "count",
    "pricing.collect_ms": "ms",
    "pricing.run_ms": "ms",
    "pricing.self_ms": "ms",
    "pricing.iterations": "count",
    "pricing.observations": "count",
    "pricing.trace_metrics_ms": "ms",
    "experiments.run_ms": "ms",
    "experiments.self_ms": "ms",
    "theta_rel_err": "frac",
    "failed_frac": "frac",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_frac": "frac",
}


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workers": 1,
        "clock": {"interval_s": clock.INTERVAL_S, "probe_nominal_s": clock.PROBE_NOMINAL_S},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    try:
        first_setup, wl = set_up(args.workload, args.seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            print(repr(first_setup))
            return 0
        if args.trace:
            rows, failed, correct, metrics, notes = traced(wl, args)
        else:
            rows, failed, correct, metrics, notes = untraced(wl, args, first_setup)
    finally:
        wl.close()

    env = environment(args.workload, args.seed)
    notes["run_wall_s"] = time.perf_counter() - started
    result = {
        "correct": correct,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}.ops.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    with open(OUT / f"{name}.json", "w") as fh:
        json.dump({"env": env, "result": result, "notes": notes, "seconds": args.seconds},
                  fh, indent=1, sort_keys=True)
    brief = {k: v for k, v in notes.items() if k not in ("op_ms", "op_counts")}
    print(json.dumps({"env": env, "notes": brief}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
