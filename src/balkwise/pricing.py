"""Iterative estimate-then-reprice loop for revenue maximization.

Each iteration collects a batch of queue transitions at the current price,
fits the value-distribution parameter on that batch, pools the per-iteration
estimates weighted by sample size, moves the price to the revenue maximizer
under the pooled estimate, and stops once the realized revenue rate agrees
with the model's prediction to within a tolerance.  A batch whose fit lands
on the parameter box (or has no informative transition) carries no usable
estimate; PricingConfig.boundary_policy decides what happens then: "retry"
collects one more observation and refits until the fit is interior, "skip"
keeps the batch as an iteration whose estimate stays out of the pool.

The observation source is abstract: the shipped SimulatedSource drives the
queue simulator with a known true parameter (evaluation mode), but anything
that can return a QueuePath of transitions collected at a requested price
satisfies the contract (deployment mode).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import Optional, Protocol, Sequence

import numpy as np

from .inference import fit_mle
from .model import ModelConfig, ValueFamily
from .simulator import QueuePath, build_path, concat_paths
from .stationary import TRUNC_EPS, _Row, expected_revenue, optimal_price


class ObservationSource(Protocol):
    """Anything that can hand over queue transitions observed at a price."""

    def collect(self, price: float, steps: int) -> QueuePath: ...


class SimulatedSource:
    """Observation source backed by the seeded queue simulator.

    The chain state persists across calls (the queue does not reset when the
    price changes) and the random stream continues, so a whole pricing run is
    deterministic given the seed.
    """

    def __init__(self, cfg_base: ModelConfig, fam: ValueFamily, theta0, seed: int = 0):
        if seed < 0:
            raise ValueError("seed must be >= 0")
        self.cfg_base = cfg_base
        self.fam = fam
        self.theta0 = fam.param_space.require(theta0)
        self.rng = np.random.default_rng(seed)
        self.state = 0

    def collect(self, price: float, steps: int) -> QueuePath:
        if steps < 1:
            raise ValueError("steps must be >= 1")
        cfg = self.cfg_base.with_price(price)
        path = build_path(self.rng, self.state, 0, steps, self.theta0, cfg, self.fam)
        self.state = int(path.states[-1])
        return path


_SCHEDULES = ("increment", "doubling")
_BOUNDARY_POLICIES = ("retry", "skip")
# Under the "retry" policy an iteration may buy at most this many times its
# minimum observation count in retries (and at least boundary_retry_floor).
BOUNDARY_RETRY_FACTOR = 10


@dataclass(frozen=True)
class PricingConfig:
    """Knobs of the pricing loop.

    schedule picks the growth rule for the per-iteration minimum observation
    count: "increment" (k+1) or "doubling" (2k); grow_on decides whether the
    rule is applied to the observations actually used (including boundary
    retries) or to the nominal minimum.  max_observations optionally caps the
    total observations spent on learning, at least k1_min: an iteration that
    would push the total past the cap is not started.  delta_mode picks
    whether the stopping gap compares the model prediction against the
    current iteration's revenue rate or the cumulative rate over all
    iterations so far.

    boundary_policy says what a batch without an interior estimate (a
    boundary fit, or no informative transition) does.  "retry", the default,
    collects one more observation at a time and refits; the retries count
    toward k_i and the budget, and are capped at BOUNDARY_RETRY_FACTOR times
    the iteration minimum, with a floor so tiny early batches still get
    enough room, after which the run raises RuntimeError.  "skip" records
    the batch as an iteration of exactly its nominal minimum whose estimate
    gets weight zero in the pool; the price is held until an interior fit
    exists.  The pricing-tables experiment driver uses "skip".

    Each repricing is an optimal_price search, which fixes its own price
    range and truncates the stationary law at stationary.TRUNC_EPS.
    """

    initial_price: float
    k1_min: int = 2
    schedule: str = "increment"
    tol: float = 0.01
    max_iterations: int = 10_000
    max_observations: Optional[int] = None
    boundary_retry_floor: int = 100
    delta_mode: str = "iteration"
    grow_on: str = "actual"
    boundary_policy: str = "retry"

    def __post_init__(self):
        if not self.initial_price >= 0:
            raise ValueError("initial price must be nonnegative")
        if self.k1_min < 1:
            raise ValueError("k1_min must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.max_observations is not None and self.max_observations < self.k1_min:
            raise ValueError("max_observations must be >= k1_min")
        if self.schedule not in _SCHEDULES:
            raise ValueError(f"schedule must be one of {_SCHEDULES}")
        if self.delta_mode not in ("cumulative", "iteration"):
            raise ValueError("delta_mode must be 'cumulative' or 'iteration'")
        if self.grow_on not in ("actual", "nominal"):
            raise ValueError("grow_on must be 'actual' or 'nominal'")
        if self.boundary_policy not in _BOUNDARY_POLICIES:
            raise ValueError(f"boundary_policy must be one of {_BOUNDARY_POLICIES}")

    def grow(self, k: int) -> int:
        return k + 1 if self.schedule == "increment" else 2 * k


@dataclass(frozen=True)
class IterationRecord:
    """One batch of the loop.

    pooled says whether theta_i entered the pooled estimate; a batch skipped
    under the "skip" boundary policy has pooled=False and a theta_i that is
    its boundary fit, or NaN when the batch had no informative transition.
    theta_pooled is NaN until some batch has entered the pool; delta is +inf
    until then and whenever the gap revenue is zero.  The JSON form writes a
    NaN estimate and an infinite delta as null.
    """

    index: int
    k_i: int
    theta_i: np.ndarray
    theta_pooled: np.ndarray
    price_used: float
    price_next: float
    delta: float
    revenue_pi: float
    time_ti: float
    boundary_retries: int
    pooled: bool = True


@dataclass(frozen=True)
class PricingTrace:
    records: tuple[IterationRecord, ...]
    final_price: float
    stopped_reason: str

    def to_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj)
        writer.writerow(
            ["iter", "k_i", "theta_i", "theta_pooled", "price_next", "delta", "revenue", "time"]
        )
        for r in self.records:
            writer.writerow(
                [
                    r.index,
                    r.k_i,
                    _theta_cell(r.theta_i),
                    _theta_cell(r.theta_pooled),
                    repr(float(r.price_next)),
                    repr(float(r.delta)),
                    repr(float(r.revenue_pi)),
                    repr(float(r.time_ti)),
                ]
            )

    def to_json(self) -> str:
        return json.dumps(
            {
                "final_price": self.final_price,
                "stopped_reason": self.stopped_reason,
                "records": [
                    {
                        "iter": r.index,
                        "k_i": r.k_i,
                        "theta_i": _theta_json(r.theta_i),
                        "theta_pooled": _theta_json(r.theta_pooled),
                        "price_used": r.price_used,
                        "price_next": r.price_next,
                        "delta": r.delta if math.isfinite(r.delta) else None,
                        "revenue": r.revenue_pi,
                        "time": r.time_ti,
                        "boundary_retries": r.boundary_retries,
                        # written only when false, so retry-policy traces keep their form
                        **({} if r.pooled else {"pooled": False}),
                    }
                    for r in self.records
                ],
            }
        )


def _theta_cell(theta: np.ndarray) -> str:
    return repr(float(theta[0])) if theta.size == 1 else ";".join(repr(float(t)) for t in theta)


def _theta_json(theta: np.ndarray) -> list:
    """theta as a JSON list, with a missing estimate (NaN) written as null."""
    return [None if math.isnan(t) else t for t in theta.tolist()]


def pooled_theta(records: Sequence[IterationRecord]) -> np.ndarray:
    """Sample-size-weighted mean of the per-iteration estimates.

    Records with pooled=False get weight zero.
    """
    members = [r for r in records if r.pooled]
    if not members:
        raise ValueError("no pooled estimate among the records")
    total = sum(r.k_i for r in members)
    acc = np.zeros_like(members[0].theta_i, dtype=float)
    for r in members:
        acc += r.k_i * r.theta_i
    return acc / total


def revenue_gap(
    revenue_pi: float,
    time_ti: float,
    theta_pooled,
    price_hat: float,
    cfg_base: ModelConfig,
    fam: ValueFamily,
) -> float:
    """Relative gap between the realized revenue rate and the model prediction.

    An iteration with no revenue cannot certify anything, so the gap is
    defined as +inf there (the loop never stops on it).
    """
    if time_ti <= 0:
        raise ValueError("iteration time must be positive")
    if revenue_pi <= 0.0:
        return float("inf")
    rate = revenue_pi / time_ti
    predicted = expected_revenue(price_hat, theta_pooled, cfg_base, fam)
    return abs(rate - predicted) / rate


def run_pricing(
    cfg_base: ModelConfig,
    fam: ValueFamily,
    pcfg: PricingConfig,
    theta0=None,
    seed: int = 0,
    source: Optional[ObservationSource] = None,
) -> PricingTrace:
    """Run the estimate-then-reprice loop until the stopping rule fires.

    Either a true parameter (evaluation mode, simulated observations) or an
    explicit observation source must be provided.  Deterministic per seed in
    evaluation mode.
    """
    if source is None:
        if theta0 is None:
            raise ValueError("need either theta0 (evaluation mode) or an observation source")
        source = SimulatedSource(cfg_base, fam, theta0, seed=seed)

    records: list[IterationRecord] = []
    price = pcfg.initial_price
    k_min = pcfg.k1_min
    total_used = 0
    stopped = "max_iterations"

    for index in range(1, pcfg.max_iterations + 1):
        if pcfg.max_observations is not None and total_used + k_min > pcfg.max_observations:
            stopped = "budget"
            break

        cfg_i = cfg_base.with_price(price)
        path = source.collect(price, k_min)
        retries = 0
        retry_cap = max(BOUNDARY_RETRY_FACTOR * k_min, pcfg.boundary_retry_floor)
        while True:
            try:
                fit = fit_mle(path, cfg_i, fam)
            except ValueError:
                fit = None  # not enough informative data yet
            interior = fit is not None and not fit.boundary
            if interior or pcfg.boundary_policy == "skip":
                break
            if retries >= retry_cap:
                raise RuntimeError(
                    f"iteration {index}: no interior estimate after {retries} extra observations"
                )
            path = concat_paths(path, source.collect(price, 1))
            retries += 1

        k_i = len(path)
        total_used += k_i
        record = IterationRecord(
            index=index,
            k_i=k_i,
            theta_i=fit.theta_hat if fit is not None else np.full(fam.dim, np.nan),
            theta_pooled=np.full(fam.dim, np.nan),
            price_used=price,
            price_next=price,
            delta=math.inf,
            revenue_pi=path.revenue,
            time_ti=path.total_time,
            boundary_retries=retries,
            pooled=interior,
        )
        if interior or any(r.pooled for r in records):
            theta_pool = pooled_theta([*records, record])
            if interior:
                price_next = optimal_price(theta_pool, cfg_base, fam)
            else:
                price_next = price  # a skipped batch leaves the pool, so the price, as it was
            if pcfg.delta_mode == "cumulative":
                gap_revenue = path.revenue + sum(r.revenue_pi for r in records)
                gap_time = path.total_time + sum(r.time_ti for r in records)
            else:
                gap_revenue, gap_time = path.revenue, path.total_time
            delta = revenue_gap(gap_revenue, gap_time, theta_pool, price_next, cfg_base, fam)
            record = replace(record, theta_pooled=theta_pool, price_next=price_next, delta=delta)
        records.append(record)

        if record.delta < pcfg.tol:
            stopped = "tolerance"
            break
        price = record.price_next
        k_min = pcfg.grow(k_i if pcfg.grow_on == "actual" else k_min)

    return PricingTrace(tuple(records), final_price=records[-1].price_next, stopped_reason=stopped)


@dataclass(frozen=True)
class TraceMetrics:
    """Evaluation of a pricing run against the known true parameter."""

    optimal_price: float
    optimal_revenue: float
    final_price: float
    final_fraction: float
    cumulative_fraction: float
    total_lost_revenue: float
    final_price_error: float
    iterations: int
    total_observations: int


def trace_metrics(
    trace: PricingTrace, theta0, cfg_base: ModelConfig, fam: ValueFamily
) -> TraceMetrics:
    """Stationary revenue metrics of a finished run (evaluation mode only).

    Final fraction compares the last chosen price against the optimum, both
    under the true parameter.  The cumulative fraction weights each
    iteration's price by the time the system actually spent there.  Lost
    revenue charges each iteration the gap between the optimum and the
    model-predicted revenue at the price and estimate used in it; a batch
    whose estimate stayed out of the pool has no model prediction, so it is
    charged the true revenue gap at the price it held.
    """
    return _trace_metrics(trace, optimal_price(theta0, cfg_base, fam), theta0, cfg_base, fam)


def _trace_metrics(trace: PricingTrace, p_star: float, theta0, cfg_base: ModelConfig,
                   fam: ValueFamily) -> TraceMetrics:
    """trace_metrics given the revenue-maximizing price at theta0.

    Every revenue comes from one batch pass of one row function over
    (parameter, price) rows: theta0 at the optimum, at the final price and
    at each price used, then each pooled record's estimate at its price
    used.  Each equals expected_revenue's.
    """
    n, pooled = len(trace.records), [r for r in trace.records if r.pooled]
    prices = [p_star, trace.final_price, *(r.price_used for r in [*trace.records, *pooled])]
    thetas = [*[np.ravel(theta0)] * (n + 2), *(r.theta_i for r in pooled)]
    row = _Row(fam.param_space.require_rows(thetas), cfg_base, fam, TRUNC_EPS)
    rev_star, final_rev, *revenues = row.revenues(prices, len(prices))
    model, num, den, lost = iter(revenues[n:]), 0.0, 0.0, 0.0
    for r, rev_at_used in zip(trace.records, revenues):
        num += r.time_ti * rev_at_used
        den += r.time_ti * rev_star
        rev_model = next(model) if r.pooled else rev_at_used
        lost += r.time_ti * (rev_star - rev_model)
    return TraceMetrics(
        optimal_price=p_star,
        optimal_revenue=rev_star,
        final_price=trace.final_price,
        final_fraction=final_rev / rev_star,
        cumulative_fraction=num / den,
        total_lost_revenue=lost,
        final_price_error=abs(trace.final_price - p_star),
        iterations=len(trace.records),
        total_observations=sum(r.k_i for r in trace.records),
    )
