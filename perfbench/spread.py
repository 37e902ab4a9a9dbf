"""Run the benchmark over several seeds and report each metric's spread.

From the root of a checkout:

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--first-seed 1]

For each workload in BENCHMARK.json this runs ``--runs`` untraced runs of
``run_seconds`` each, one per seed, and prints every end-to-end metric's
median and its spread (the distance between the first and third quartile
over the median, as ``statistics.quantiles(values, n=4)`` gives them) next to
the metric's bound.  A spread above a third of its bound is marked WIDE and
fails the check.  It also prints the spread of ``theta_rel_err``, which is
reported per layer and has no bound.  It then makes two traced runs at the
first seed and checks that their per-op counts agree exactly.  Runs go one
after another; each is waited for.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().with_name("run.py")
RUN_TIMEOUT_S = 600


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns its result and the notes printed before it."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    *_, env, result = done.stdout.splitlines()
    return json.loads(result), json.loads(env)["notes"]


def op_counts(workload: str, seed: int) -> dict:
    """Per-op counters of the last traced run, read back from its outputs."""
    with open(ROOT / "perfbench-out" / f"{workload}-seed{seed}-trace1.json") as fh:
        return json.load(fh)["notes"]["op_counts"]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run(workload, seed, seconds, 0) for seed in seeds]
        results = [result for result, _ in runs]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        ok &= correct
        print(f"{workload}: correct={correct} attempted={attempted} failed={failed}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            spread = stats.spread(values)
            verdict = "ok" if spread <= metric["bound"] / 3 else "WIDE"
            ok &= verdict == "ok"
            print(f"  {metric['name']:14s} median {stats.median(values):12.6g} "
                  f"spread {spread:7.4f} bound {metric['bound']:.3f} {verdict}")
        errors = [notes["theta_rel_err"] for _, notes in runs]
        print(f"  {'theta_rel_err':14s} median {stats.median(errors):12.6g} "
              f"spread {stats.spread(errors):7.4f} (per layer, no bound)")
        seed = args.first_seed
        first, _ = run(workload, seed, seconds, 1)
        counts = op_counts(workload, seed)
        again, _ = run(workload, seed, seconds, 1)
        later = op_counts(workload, seed)
        # Each traced run covers the ops that fit in its time; compare the shared ones.
        shared = counts.keys() & later.keys()
        same = bool(shared) and all(counts[op] == later[op] for op in shared)
        ok &= same and first["correct"] and again["correct"]
        print(f"  traced counts of {len(shared)} ops repeat across two runs at seed {seed}: {same}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
