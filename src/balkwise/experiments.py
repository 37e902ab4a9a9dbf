"""Experiment drivers: the Monte-Carlo studies behind the simulation figures.

Every driver takes an ExperimentConfig, writes CSV (and optionally SVG) files
into the output directory, and returns a summary dict.  Replications are
seeded as (master seed, sample size, replication index), plus the price grid
index where prices vary, through numpy's SeedSequence, so results are
independent of execution order and identical whether run serially or on a
worker pool.  The BALKWISE_THREADS environment variable caps the pool size.

The replication drivers (consistency, normality, score convergence and the
std-vs-price overlay) split their replications into jobs: at least one per
worker, and at most _FIT_BATCH replications each.  A job walks its
replications in walk chunks of about _CHUNK_DRAWS draws, each chunk one
lockstep walk that keeps only transition counts, and then fits all of its
counts as one fit batch (inference._fit_batch), whose fits equal fit_mle's
bit for bit.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

# fit_mle and simulate_path stay names of this module: perfbench/spans.py wraps them
from .inference import _fit_batch, _Likelihood, fit_mle, score  # noqa: F401
from .model import ExponentialFamily, ModelConfig, ParamSpace, ValueFamily
from .pricing import PricingConfig, _optimum, _trace_metrics, run_pricing
from .simulator import SimOptions, _walk_counts, simulate_path
from .stationary import (TRUNC_EPS, _Row, asymptotic_std, expected_revenue, theoretical_sigma,
                         write_curve_csv)
from . import svgplot

EXPERIMENTS = (
    "score-convergence",
    "consistency",
    "normality",
    "std-vs-price",
    "revenue-vs-price",
    "pricing-tables",
)


def jarque_bera(sample) -> tuple[float, bool]:
    """Moments-based normality statistic and its 5%-level rejection flag.

    Returns (statistic, reject): n/6 * (skewness^2 + (kurtosis-3)^2/4),
    rejecting normality when the statistic exceeds the chi-square(2) 5%
    critical value 5.99.
    """
    x = np.asarray(sample, dtype=float)
    if x.size < 20:
        raise ValueError("normality test needs a sample of at least 20")
    std = x.std()
    if std == 0.0:
        raise ValueError("normality test undefined for a zero-variance sample")
    z = (x - x.mean()) / std
    skew = float(np.mean(z**3))
    kurt = float(np.mean(z**4))
    stat = x.size / 6.0 * (skew**2 + 0.25 * (kurt - 3.0) ** 2)
    return stat, stat > 5.99


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment driver needs, JSON-loadable.

    k_list is used by the multi-sample-size experiments; k by single-size
    ones (each falls back to the other when only one is given).
    """

    experiment: str
    lam: float = 1.0
    mu: float = 1.0
    cost_c: float = 1.0
    price: float = 15.0
    theta_lower: float = 1e-3
    theta_upper: float = 5.0
    theta0: float = 0.02
    k: Optional[int] = None
    k_list: tuple[int, ...] = ()
    replications: int = 200
    seed: int = 0
    price_grid: tuple[float, float, int] = (1.0, 250.0, 64)
    empirical_reps: int = 500
    out_dir: str = "out"
    fmt: str = "csv"
    workers: int = 1
    warmup_steps: int = 1000
    pricing_tol: float = 0.01
    pricing_budget: Optional[int] = 1530
    pricing_cells: tuple = (("increment", 2, 15.0), ("doubling", 100, 100.0))
    pricing_runs: int = 100

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose one of {', '.join(EXPERIMENTS)}"
            )
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.fmt not in ("csv", "svg"):
            raise ValueError("format must be csv or svg")
        if not self.theta_lower < self.theta0 < self.theta_upper:
            raise ValueError(
                f"theta0={self.theta0} must lie strictly inside "
                f"[{self.theta_lower}, {self.theta_upper}]"
            )
        needs_k = self.experiment in ("score-convergence", "consistency", "normality")
        if needs_k and self.k is None and not self.k_list:
            raise ValueError(f"experiment {self.experiment} needs k or k_list")

    @property
    def model(self) -> ModelConfig:
        return ModelConfig(self.lam, self.mu, self.cost_c, self.price)

    @property
    def value_family(self) -> ValueFamily:
        return ExponentialFamily(ParamSpace([self.theta_lower], [self.theta_upper]))

    @property
    def sizes(self) -> tuple[int, ...]:
        if self.k_list:
            return tuple(self.k_list)
        return (self.k,)

    @staticmethod
    def from_json(raw: dict) -> "ExperimentConfig":
        kwargs = dict(experiment=raw.get("experiment", ""), **model_settings(raw))
        for key in (
            "theta0",
            "k",
            "replications",
            "seed",
            "empirical_reps",
            "out_dir",
            "workers",
            "warmup_steps",
            "pricing_tol",
            "pricing_budget",
            "pricing_runs",
        ):
            if key in raw:
                kwargs[key] = raw[key]
        if "k_list" in raw:
            kwargs["k_list"] = tuple(int(v) for v in raw["k_list"])
        if "price_grid" in raw:
            lo, hi, n = raw["price_grid"]
            kwargs["price_grid"] = (float(lo), float(hi), int(n))
        if "format" in raw:
            kwargs["fmt"] = raw["format"]
        if "pricing_cells" in raw:
            kwargs["pricing_cells"] = tuple(
                (str(s), int(k1), float(p1)) for s, k1, p1 in raw["pricing_cells"]
            )
        try:
            return ExperimentConfig(**kwargs)
        except TypeError as exc:
            raise ValueError(f"bad experiment config: {exc}") from exc


# (block, key, ExperimentConfig field) of each model setting in a JSON config
_MODEL_KEYS = (
    ("model", "lambda", "lam"),
    ("model", "mu", "mu"),
    ("model", "cost_c", "cost_c"),
    ("model", "price", "price"),
    ("family", "lower", "theta_lower"),
    ("family", "upper", "theta_upper"),
)


def model_settings(raw: dict) -> dict:
    """ExperimentConfig's model fields, read from the "model" and "family" blocks of a JSON config.

    A key left out takes its ExperimentConfig default.  "exponential" is the
    only family a config can name; any other name, a block that is not an
    object and a setting that is not a number raise ValueError naming it.
    """
    blocks = {block: raw.get(block, {}) for block in ("model", "family")}
    for block, value in blocks.items():
        if not isinstance(value, dict):
            raise ValueError(f"config key {block!r} must be an object, got {value!r}")
    name = blocks["family"].get("name", "exponential")
    if name != "exponential":
        raise ValueError(f"unknown value family {name!r}")
    settings = {}
    for block, key, field in _MODEL_KEYS:
        value = blocks[block].get(key, getattr(ExperimentConfig, field))
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config key '{block}.{key}' must be a number, got {value!r}")
        settings[field] = value
    return settings


def rep_seed(master: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((master, *key))


def resolve_workers(requested: int) -> int:
    cap = os.environ.get("BALKWISE_THREADS")
    workers = max(1, requested)
    if cap is not None:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise ValueError(f"BALKWISE_THREADS must be an integer, got {cap!r}") from None
    return min(workers, os.cpu_count() or 1)


def _pool_map(fn, jobs, workers: int):
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=max(1, len(jobs) // (4 * workers))))


# Draws per walk chunk, the chains a job walks together: a chain of 10^5
# steps is walked alone (measured, BENCH_count_walk.json)
_CHUNK_DRAWS = 100_000
# Replications per job, at most: a job fits all of its replications as one
# batch, whose tables stay near 1 MB (measured, BENCH_batch_fit.json)
_FIT_BATCH = 64


def _run_options(config: ExperimentConfig, k: int, *key: int) -> SimOptions:
    """simulate_path's options for k transitions after a stationary warm-up, seeded by key."""
    return SimOptions(steps=k, seed=rep_seed(config.seed, k, *key),
                      initial_state="stationary-warmup", warmup_steps=config.warmup_steps)


def _replications(fn, config: ExperimentConfig, workers: int, k: int, reps: int, *key: int,
                  price=None) -> list:
    """fn's result for each replication, seeded by (master seed, k, rep, *key), in rep order.

    fn maps a job, (cfg, fam, theta0, options of its replications), to one
    result each.  The replications split into as few jobs of nearly equal
    size as keep each within _FIT_BATCH and give every worker one.
    """
    cfg = config.model if price is None else config.model.with_price(price)
    runs = [_run_options(config, k, rep, *key) for rep in range(reps)]
    n_jobs = max(min(workers, reps), -(-reps // _FIT_BATCH))
    cuts = [j * reps // n_jobs for j in range(n_jobs + 1)]
    jobs = [(cfg, config.value_family, [config.theta0], runs[a:b]) for a, b in zip(cuts, cuts[1:])]
    return [r for job in _pool_map(fn, jobs, workers) for r in job]


def _fits(job):
    """Each replication's transition counts and its fit.

    The replications are walked in chunks of about _CHUNK_DRAWS draws, and
    all their counts are fitted as one batch.
    """
    cfg, fam, theta0, runs = job
    per_chunk = max(1, _CHUNK_DRAWS // (runs[0].steps + runs[0].warmup_steps))
    counts = [c for i in range(0, len(runs), per_chunk)
              for c in _walk_counts(cfg, fam, theta0, runs[i:i + per_chunk])]
    return zip(counts, _fit_batch(counts, cfg, fam))


def _fit_rep(job):
    """(theta_hat, boundary) of each replication of a job; shared by several drivers."""
    return [(float(fit.theta_hat[0]), bool(fit.boundary)) for _, fit in _fits(job)]


def _fit_score_rep(job):
    """_fit_rep plus the signed normalized score at the estimate."""
    cfg, fam, _, _ = job
    return [(float(fit.theta_hat[0]), bool(fit.boundary),
             float(score(counts, fit.theta_hat, cfg, fam)[0])) for counts, fit in _fits(job)]


def _out(config: ExperimentConfig, name: str) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _write_csv(path: Path, header, rows) -> None:
    """CSV with a header row; floats are written in their shortest round-trip form."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def exp_score_convergence(config: ExperimentConfig) -> dict:
    """Score at the fitted parameter across sample sizes and replications."""
    workers = resolve_workers(config.workers)
    rows = []
    spreads = {}
    for k in config.sizes:
        results = _replications(_fit_score_rep, config, workers, k, config.replications)
        for rep, (theta_hat, _, score_val) in enumerate(results):
            rows.append((k, rep, theta_hat, score_val))
        spreads[k] = float(np.std([r[2] for r in results]))
    path = _out(config, "score_convergence.csv")
    _write_csv(path, ["k", "rep", "theta_hat", "score"], rows)
    if config.fmt == "svg":
        svgplot.scatter(
            [(float(np.log10(r[0])), r[3]) for r in rows],
            _out(config, "score_convergence.svg"),
            x_label="log10 k",
            y_label="score at estimate",
        )
    return {"file": str(path), "score_std_by_k": spreads}


def exp_consistency(config: ExperimentConfig) -> dict:
    """Estimates across sample sizes plus log-likelihood profile curves."""
    workers = resolve_workers(config.workers)
    rows = []
    medians = {}
    for k in config.sizes:
        results = _replications(_fit_rep, config, workers, k, config.replications)
        errs = []
        for rep, (theta_hat, _) in enumerate(results):
            rows.append((k, rep, theta_hat, abs(theta_hat - config.theta0)))
            errs.append(abs(theta_hat - config.theta0))
        medians[k] = float(np.median(errs))
    path = _out(config, "consistency.csv")
    _write_csv(path, ["k", "rep", "theta_hat", "abs_error"], rows)

    # likelihood profile on one fixed path per sample size
    cfg, fam = config.model, config.value_family
    curve_path = _out(config, "loglik_profile.csv")
    thetas = np.linspace(config.theta_lower, min(config.theta_upper, 10 * config.theta0), 201)
    with open(curve_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "theta", "loglik"])
        for k in config.sizes:
            # replication 0's counts, scored at every theta in one table
            counts = _walk_counts(cfg, fam, [config.theta0], [_run_options(config, k, 0)])[0]
            values = _Likelihood(counts, cfg, fam).scan(thetas[:, None])[0]
            w.writerows([k, repr(float(t)), repr(float(v))] for t, v in zip(thetas, values))
    _write_csv(_out(config, "consistency_summary.csv"), ["k", "median_abs_error"],
               [(k, medians[k]) for k in config.sizes])
    return {"file": str(path), "median_abs_error_by_k": medians}


def exp_normality(config: ExperimentConfig) -> dict:
    """Standardized estimation errors and the moments-based normality verdict.

    Errors are standardized by the estimator-exact asymptotic std (jump
    weighting, transition accounting) at the experiment's price; boundary
    fits are excluded from the test and counted.
    """
    workers = resolve_workers(config.workers)
    cfg, fam = config.model, config.value_family
    rows = []
    verdicts = {}
    for k in config.sizes:
        sigma = theoretical_sigma([config.theta0], cfg, fam)
        std_theory = 1.0 / np.sqrt(float(sigma[0, 0]))
        results = _replications(_fit_rep, config, workers, k, config.replications)
        z_vals, rel_errors, n_boundary = [], [], 0
        for rep, (theta_hat, boundary) in enumerate(results):
            z = float(np.sqrt(k) * (theta_hat - config.theta0) / std_theory)
            rel = (theta_hat - config.theta0) / config.theta0
            rows.append((k, rep, theta_hat, z, int(boundary)))
            if boundary:
                n_boundary += 1
            else:
                z_vals.append(z)
                rel_errors.append(rel)
        stat, reject = jarque_bera(z_vals)
        verdicts[k] = {
            "jb_stat": float(stat),
            "reject_normality": bool(reject),
            "mean_z": float(np.mean(z_vals)),
            "mean_rel_error": float(np.mean(rel_errors)),
            "boundary_excluded": n_boundary,
            "theoretical_std": float(std_theory),
        }
    path = _out(config, "normality.csv")
    _write_csv(path, ["k", "rep", "theta_hat", "z", "boundary"], rows)
    with open(_out(config, "normality_summary.json"), "w") as fh:
        json.dump(verdicts, fh, indent=2)
    if config.fmt == "svg":
        for k in config.sizes:
            zs = [r[3] for r in rows if r[0] == k and not r[4]]
            svgplot.histogram(zs, _out(config, f"normality_k{k}.svg"), bins=40)
    return {"file": str(path), "verdicts": verdicts}


def exp_std_vs_price(config: ExperimentConfig) -> dict:
    """Theoretical std-vs-price curve with a Monte-Carlo overlay.

    The theoretical curve uses the curve convention of asymptotic_std; the
    empirical overlay fits empirical_reps simulated paths per price point
    and reports the sample std of the sqrt(k)-scaled errors.
    """
    cfg, fam = config.model, config.value_family
    lo, hi, n = config.price_grid
    prices = np.linspace(lo, hi, n)
    workers = resolve_workers(config.workers)

    theory = []
    for p in prices:
        try:
            theory.append(float(asymptotic_std(p, [config.theta0], cfg, fam)[0]))
        except (ValueError, RuntimeError):
            theory.append(float("nan"))
    path = _out(config, "std_vs_price.csv")
    with open(path, "w", newline="") as fh:
        write_curve_csv(fh, prices, theory, "std")

    empirical_rows = []
    for k in config.sizes if (config.k or config.k_list) else (1000,):
        for index, p in enumerate(prices):
            # the grid index keys the seed, so every price point has its own stream
            fits = _replications(_fit_rep, config, workers, k, config.empirical_reps, index,
                                 price=float(p))
            interior = [t for t, boundary in fits if not boundary]
            if len(interior) >= 2:
                emp = float(np.std(np.sqrt(k) * (np.array(interior) - config.theta0), ddof=1))
            else:
                emp = float("nan")
            empirical_rows.append((float(p), k, emp, len(interior)))
    emp_path = _out(config, "std_vs_price_empirical.csv")
    _write_csv(emp_path, ["price", "k", "empirical_std", "fits_used"], empirical_rows)
    if config.fmt == "svg":
        svgplot.line(
            list(zip(prices.tolist(), theory)),
            _out(config, "std_vs_price.svg"),
            x_label="price",
            y_label="asymptotic std",
        )
    return {"file": str(path), "empirical_file": str(emp_path)}


def exp_revenue_vs_price(config: ExperimentConfig) -> dict:
    """Stationary revenue as a function of price."""
    cfg, fam = config.model, config.value_family
    lo, hi, n = config.price_grid
    prices = np.linspace(lo, hi, n)
    theta0 = [config.theta0]
    values = _Row(fam.param_space.require(theta0), cfg, fam, TRUNC_EPS).revenues(prices, 0)
    for i in np.flatnonzero(np.isnan(values)):  # rows one pass cannot settle, bad prices
        try:
            values[i] = expected_revenue(prices[i], theta0, cfg, fam)
        except (ValueError, RuntimeError):
            pass
    values = values.tolist()
    path = _out(config, "revenue_vs_price.csv")
    with open(path, "w", newline="") as fh:
        write_curve_csv(fh, prices, values, "revenue")
    if config.fmt == "svg":
        svgplot.line(
            list(zip(prices.tolist(), values)),
            _out(config, "revenue_vs_price.svg"),
            x_label="price",
            y_label="revenue rate",
        )
    return {"file": str(path)}


TABLE_ROW_LABELS = (
    "Iterations",
    "Total number of observations used for learning",
    "Final stationary fraction of max revenue",
    "Stationary cumulative fraction of max revenue",
    "Total lost revenue",
    "Mean error of final price",
    "Std of final price error",
    "Failed runs",
)


def _pricing_run(job):
    """Metrics of one seeded pricing run, or None when the run raises RuntimeError.

    The job carries the optimum at theta0, found once per driver call.
    """
    cfg, fam, theta0, pcfg, seed, optimum = job
    try:
        trace = run_pricing(cfg, fam, pcfg, theta0=theta0, seed=seed)
    except RuntimeError:
        return None
    m = _trace_metrics(trace, theta0, cfg, fam, *optimum)
    return (
        m.iterations,
        m.total_observations,
        m.final_fraction,
        m.cumulative_fraction,
        m.total_lost_revenue,
        m.final_price_error,
    )


def exp_pricing_tables(config: ExperimentConfig) -> dict:
    """Summary metrics of seeded pricing runs over a grid of loop settings."""
    workers = resolve_workers(config.workers)
    cfg, fam = config.model, config.value_family
    optimum = _optimum([config.theta0], cfg, fam)
    cells = {}
    for cell_idx, (schedule, k1, p1) in enumerate(config.pricing_cells):
        pcfg = PricingConfig(initial_price=p1, k1_min=k1, schedule=schedule,
                             tol=config.pricing_tol, max_observations=config.pricing_budget,
                             grow_on="nominal", delta_mode="cumulative", boundary_policy="skip")
        jobs = [
            (cfg, fam, [config.theta0], pcfg,
             int(rep_seed(config.seed, cell_idx, rep).generate_state(1)[0]), optimum)
            for rep in range(config.pricing_runs)
        ]
        results = _pool_map(_pricing_run, jobs, workers)
        ok = [r for r in results if r is not None]
        failed = len(results) - len(ok)
        arr = np.array(ok, dtype=float).reshape(len(ok), 6)
        n = len(arr)
        nan = float("nan")
        mean = [float(arr[:, j].mean()) if n else nan for j in range(6)]
        std = [float(arr[:, j].std(ddof=1)) if n > 1 else nan for j in range(6)]
        key = f"{schedule},k1={k1},p1={p1:g}"
        cells[key] = {
            "Iterations": mean[0],
            "Total number of observations used for learning": mean[1],
            "Final stationary fraction of max revenue": mean[2],
            "Stationary cumulative fraction of max revenue": mean[3],
            "Total lost revenue": mean[4],
            "Mean error of final price": mean[5],
            "Std of final price error": std[5],
            "Failed runs": failed,
            "unreliable": failed > 0.05 * config.pricing_runs,
            # Monte-Carlo standard errors of the two means the table is judged on
            "Std error of iterations": std[0] / max(n, 1) ** 0.5,
            "Std error of final stationary fraction": std[2] / max(n, 1) ** 0.5,
        }
    path = _out(config, "pricing_tables.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["schedule", "k1_min", "p1", "metric", "value"])
        for cell_idx, (schedule, k1, p1) in enumerate(config.pricing_cells):
            key = f"{schedule},k1={k1},p1={p1:g}"
            for label in TABLE_ROW_LABELS:
                w.writerow([schedule, k1, repr(float(p1)), label, repr(float(cells[key][label]))])
    with open(_out(config, "pricing_tables.json"), "w") as fh:
        json.dump(cells, fh, indent=2)
    return {"file": str(path), "cells": cells}


DRIVERS = {
    "score-convergence": exp_score_convergence,
    "consistency": exp_consistency,
    "normality": exp_normality,
    "std-vs-price": exp_std_vs_price,
    "revenue-vs-price": exp_revenue_vs_price,
    "pricing-tables": exp_pricing_tables,
}


def run_experiment(config: ExperimentConfig) -> dict:
    return DRIVERS[config.experiment](config)
