"""The benchmark's workloads: inputs from the seed, one op, its output checks.

Every op goes through balkwise's public API only.  A workload object is
built once per run (that is the timed set-up); ``run(op)`` is the timed
operation; ``record(op, result)`` turns its result into the plain values
written per op, and ``check(rec)`` lists what is wrong with them.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

import balkwise
from balkwise import experiments, pricing

THETA0 = 0.02

# run_pricing's documented failure: no interior estimate within the retry cap.
RETRY_CAP_MESSAGE = "no interior estimate after"


class PricingWorkload:
    """One op: run_pricing plus trace_metrics on a criterion-10 table cell.

    Settings are those of the pricing-tables driver (box [0.01, 5], budget
    1530, tol 0.01, nominal growth, cumulative gap, retry floor 150), and the
    op's run seed is SeedSequence((seed, cell, op)) as that driver derives it.
    """

    def __init__(self, seed: int, cell: int, schedule: str, k1: int, p1: float):
        self.seed = seed
        self.cell = cell
        self.cfg = balkwise.ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=15.0)
        self.fam = balkwise.ExponentialFamily(balkwise.ParamSpace([0.01], [5.0]))
        self.pcfg = balkwise.PricingConfig(
            initial_price=p1,
            k1_min=k1,
            schedule=schedule,
            tol=0.01,
            max_observations=1530,
            grow_on="nominal",
            delta_mode="cumulative",
            boundary_retry_floor=150,
        )
        self.theta0 = [THETA0]

    def run_seed(self, op: int) -> int:
        return int(np.random.SeedSequence((self.seed, self.cell, op)).generate_state(1)[0])

    def run(self, op: int):
        # Module attributes, so the traced run's rebinding sees these calls.
        trace = pricing.run_pricing(self.cfg, self.fam, self.pcfg, theta0=self.theta0,
                                    seed=self.run_seed(op))
        return trace, pricing.trace_metrics(trace, self.theta0, self.cfg, self.fam)

    def record(self, op: int, result) -> dict:
        trace, m = result
        return {
            "iterations": m.iterations,
            "observations": m.total_observations,
            "final_price": m.final_price,
            "theta_hat": float(trace.records[-1].theta_pooled[0]),
            "revenue_frac": m.final_fraction,
            "stopped": trace.stopped_reason,
        }

    def check_error(self, exc: Exception) -> list[str]:
        if isinstance(exc, RuntimeError) and RETRY_CAP_MESSAGE in str(exc):
            return []
        return [f"undocumented {type(exc).__name__}: {exc}"]

    def check(self, rec: dict) -> list[str]:
        problems = []
        if not (math.isfinite(rec["revenue_frac"]) and 0.0 < rec["revenue_frac"] <= 1.0):
            problems.append(f"revenue fraction {rec['revenue_frac']!r} outside (0, 1]")
        if not (math.isfinite(rec["final_price"]) and rec["final_price"] > 0.0):
            problems.append(f"final price {rec['final_price']!r} not positive and finite")
        if rec["iterations"] < 1:
            problems.append("no iterations")
        return problems

    def theta_rel_err(self, rec: dict) -> float:
        return abs(rec["theta_hat"] - THETA0) / THETA0

    def close(self) -> None:
        pass


class StudyWorkload:
    """One op: run_experiment with the normality driver at k = 10^5.

    Serial (workers=1), stationary warm-up, REPLICATIONS fits per op; the
    op's master seed is derived from (seed, op).  Outputs go to a temporary
    directory inside the checkout, one per op, removed at the end.
    """

    REPLICATIONS = 20  # the normality verdict needs at least 20 interior fits
    K = 10**5

    def __init__(self, seed: int, out_root: Path):
        self.seed = seed
        out_root.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="study-", dir=out_root))
        base = balkwise.ExperimentConfig(experiment="normality", k_list=(self.K,))
        self.cfg = base.model
        self.fam = base.value_family
        self.lower, self.upper = base.theta_lower, base.theta_upper
        self.rev_star = None  # maximum revenue at THETA0; found by record(), outside set-up

    def config(self, op: int) -> balkwise.ExperimentConfig:
        master = int(np.random.SeedSequence((self.seed, op)).generate_state(1)[0])
        return balkwise.ExperimentConfig(
            experiment="normality",
            k_list=(self.K,),
            replications=self.REPLICATIONS,
            seed=master,
            theta0=THETA0,
            workers=1,
            out_dir=str(self.tmp / f"op{op}"),
        )

    def run(self, op: int):
        return experiments.run_experiment(self.config(op))

    def record(self, op: int, result) -> dict:
        with open(result["file"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        thetas = [float(r["theta_hat"]) for r in rows]
        with open(Path(result["file"]).with_name("normality_summary.json")) as fh:
            verdict = json.load(fh)[str(self.K)]
        # Revenue earned at the price that is optimal under this op's estimate.
        mean_theta = float(np.mean(thetas))
        if self.rev_star is None:
            p_star = balkwise.optimal_price([THETA0], self.cfg, self.fam)
            self.rev_star = balkwise.expected_revenue(p_star, [THETA0], self.cfg, self.fam)
        if self.lower < mean_theta < self.upper:
            price = balkwise.optimal_price([mean_theta], self.cfg, self.fam)
            revenue_frac = balkwise.expected_revenue(price, [THETA0], self.cfg, self.fam) / self.rev_star
        else:
            price, revenue_frac = float("nan"), float("nan")
        return {
            "rows": len(rows),
            "theta_hat": thetas,
            "mean_rel_error": verdict["mean_rel_error"],
            "jb_stat": verdict["jb_stat"],
            "final_price": price,
            "revenue_frac": revenue_frac,
        }

    def check_error(self, exc: Exception) -> list[str]:
        return [f"{type(exc).__name__}: {exc}"]

    def check(self, rec: dict) -> list[str]:
        problems = []
        if rec["rows"] != self.REPLICATIONS:
            problems.append(f"{rec['rows']} CSV rows for {self.REPLICATIONS} replications")
        outside = [t for t in rec["theta_hat"] if not self.lower <= t <= self.upper]
        if outside:
            problems.append(f"estimates outside the box: {outside}")
        if not (math.isfinite(rec["revenue_frac"]) and 0.0 < rec["revenue_frac"] <= 1.0):
            problems.append(f"revenue fraction {rec['revenue_frac']!r} outside (0, 1]")
        return problems

    def theta_rel_err(self, rec: dict) -> float:
        return abs(rec["mean_rel_error"])

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def build(name: str, seed: int, out_root: Path):
    if name == "pricing-increment":
        return PricingWorkload(seed, 0, "increment", 2, 15.0)
    if name == "pricing-doubling":
        return PricingWorkload(seed, 1, "doubling", 100, 100.0)
    if name == "study-normality":
        return StudyWorkload(seed, out_root)
    raise ValueError(f"unknown workload {name!r}")

