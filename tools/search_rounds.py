"""Print the batched calls of the exact searches, per op of a benchmark workload.

Builds the workload with ``build`` from perfbench/workloads.py, which this
only imports, runs its ops 0..N-1 one at a time and counts, by wrapping
balkwise's private functions in this process only:

- the price searches (``grid_then_golden``; no workload runs
  ``min_std_price``): the calls of their grid scans (``_Row.scan``) and the
  prices those score, and their golden phases' ``batch`` calls and the
  points of each;
- ``price_upper_bound``: its calls of the family's survival kernel
  ``_survival``, the first of which scores the ladder around the guess the
  value quantile gives and the rest narrow the bracket;
- the fits (``_fit_batch``): ``_Batch.evaluate`` rounds (calls from a fit),
  the table calls they split into (``_CELLS`` cells at a time) and their
  points;
- the row tabulations of the stationary law: the passes of ``_Row._tables``
  (one per ``revenues``, ``scan`` or single-price call), the tables they
  weigh (``_weigh``, one per width a pass reaches) and, in ``table_rows``,
  how many rows they tabulate at each width.

Every count is deterministic.  It prints one JSON line per op, then one
line of means per op and per search, bound or fit batch.  Point PYTHONPATH
at a checkout's ``src`` to measure it, so two commits can be compared:

    PYTHONPATH=src python tools/search_rounds.py --workload pricing-doubling --seed 101 --ops 50
    PYTHONPATH=<other checkout>/src python tools/search_rounds.py --workload pricing-doubling --seed 101 --ops 50

Needs only the standard library, numpy and balkwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import balkwise  # noqa: E402
import workloads  # noqa: E402
from balkwise import experiments, inference, model, stationary  # noqa: E402

COUNTS = Counter()
WIDTHS = Counter()  # rows tabulated at each width


def _wrap_golden(inner):
    def grid_then_golden(scan, lo, hi, grid, tol, batch):
        COUNTS["price_searches"] += 1

        def counted(points):
            COUNTS["golden_calls"] += 1
            COUNTS["golden_points"] += len(points)
            return batch(points)

        return inner(scan, lo, hi, grid, tol, counted)

    return grid_then_golden


def _wrap_scan(inner):
    def scan(self, prices):  # only optimal_price's grid calls it
        COUNTS["scan_calls"] += 1
        COUNTS["scan_rows"] += len(prices)
        return inner(self, prices)

    return scan


def _wrap_bound(inner, family):
    survival = family._survival

    def price_upper_bound(theta, cfg, fam):
        def counted(self, r, theta):
            COUNTS["bound_sf_calls"] += 1
            return survival(self, r, theta)

        COUNTS["bounds"] += 1
        family._survival = counted
        try:
            return inner(theta, cfg, fam)
        finally:
            family._survival = survival

    return price_upper_bound


def _wrap_fits(inner):
    def _fit_batch(datas, cfg, fam):
        COUNTS["fit_batches"] += 1
        COUNTS["fits"] += len(datas)
        COUNTS["in_fit"] += 1
        try:
            return inner(datas, cfg, fam)
        finally:
            COUNTS["in_fit"] -= 1

    return _fit_batch


def _wrap_evaluate(inner):
    nesting = [0]

    def evaluate(self, reps, thetas, need=inference._LOGLIK):
        if COUNTS["in_fit"]:
            if nesting[0] == 0:
                COUNTS["rounds"] += 1
                COUNTS["round_points"] += len(thetas)
            parts = len(thetas) > 1 and len(thetas) * self.thresholds.shape[1] > inference._CELLS
            COUNTS["table_calls"] += not parts
        nesting[0] += 1
        try:
            return inner(self, reps, thetas, need)
        finally:
            nesting[0] -= 1

    return evaluate


def _wrap_passes(inner):
    def _tables(self, prices, settle):
        COUNTS["table_passes"] += 1
        return inner(self, prices, settle)

    return _tables


def _wrap_weigh(inner):
    def _weigh(lam_q, cfg, eps):
        COUNTS["tables"] += 1
        WIDTHS[lam_q.shape[1]] += lam_q.shape[0]
        return inner(lam_q, cfg, eps)

    return _weigh


def _ratio(a: str, b: str) -> float:
    return round(COUNTS[a] / COUNTS[b], 3) if COUNTS[b] else float("nan")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="pricing-doubling")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--ops", type=int, default=50)
    args = parser.parse_args(argv)
    print(f"# balkwise {balkwise.__version__} from {Path(balkwise.__file__).parent}")
    stationary.grid_then_golden = _wrap_golden(model.grid_then_golden)
    stationary._Row.scan = _wrap_scan(stationary._Row.scan)
    stationary.price_upper_bound = _wrap_bound(stationary.price_upper_bound,
                                               model.ExponentialFamily)
    inference._fit_batch = experiments._fit_batch = _wrap_fits(inference._fit_batch)
    inference._Batch.evaluate = _wrap_evaluate(inference._Batch.evaluate)
    stationary._Row._tables = _wrap_passes(stationary._Row._tables)
    stationary._weigh = _wrap_weigh(stationary._weigh)
    keys = ("price_searches", "scan_calls", "scan_rows", "golden_calls", "golden_points",
            "bounds", "bound_sf_calls", "fit_batches", "fits", "rounds", "table_calls",
            "round_points", "table_passes", "tables")
    with tempfile.TemporaryDirectory() as out_root:
        wl = workloads.build(args.workload, args.seed, Path(out_root))
        try:
            for op in range(args.ops):
                before, widths = {key: COUNTS[key] for key in keys}, WIDTHS.copy()
                try:
                    wl.run(op)
                    error = None
                except Exception as exc:  # a failed op is counted as the benchmark counts it
                    error = type(exc).__name__
                rows = {str(w): n for w, n in sorted((WIDTHS - widths).items())}
                print(json.dumps({"op": op, "error": error,
                                  **{key: COUNTS[key] - before[key] for key in keys},
                                  "table_rows": rows}), flush=True)
        finally:
            wl.close()
    print(json.dumps({
        "ops": args.ops,
        "per_op": {key: round(COUNTS[key] / args.ops, 3) for key in keys},
        "scan_rows_per_search": _ratio("scan_rows", "price_searches"),
        "scan_calls_per_search": _ratio("scan_calls", "price_searches"),
        "golden_calls_per_search": _ratio("golden_calls", "price_searches"),
        "points_per_golden_call": _ratio("golden_points", "golden_calls"),
        "survival_calls_per_bound": _ratio("bound_sf_calls", "bounds"),
        "rounds_per_fit_batch": _ratio("rounds", "fit_batches"),
        "table_calls_per_round": _ratio("table_calls", "rounds"),
        "points_per_round": _ratio("round_points", "rounds"),
        "tables_per_pass": _ratio("tables", "table_passes"),
        "table_rows_per_op": {str(w): round(n / args.ops, 3) for w, n in sorted(WIDTHS.items())},
    }))


if __name__ == "__main__":
    main()
