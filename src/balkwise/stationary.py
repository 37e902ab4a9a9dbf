"""Closed-form stationary analysis of the balking queue.

The queue length is an ergodic birth-death process whenever somebody joins
the empty queue, so its stationary law has the classical product form: the
unnormalized weight of state q is the product of joining-to-service rate
ratios up to q.  Everything here is computed on a provably-truncated state
space.  Two stationary weightings coexist: the continuous-time occupancy law
(weight proportional to the product itself) and the transition-epoch law of
the jump chain (product times the total exit rate).  Revenue accrues in
continuous time; the score ergodics of the estimator live on the jump chain.

The truncated tables have a price axis, one row per price, as wide as that
price needs: the revenue-maximizing price search scores its whole grid on
them, then refines the best grid point by a speculative golden section whose
calls score single-price rows, each as expected_revenue does, on every branch
of the next steps and on a predicted one.  The settings are the module
constants below; only stationary_distribution takes its own truncation eps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import _PREDICTED, ModelConfig, StateTable, ValueFamily, _threshold, grid_then_golden

STATE_CAP = 10**6
GOLDEN_TOL = 1e-9  # relative bracket width at which a price search stops
TRUNC_EPS = 1e-12  # tail mass left out when the stationary law is truncated
PRICE_FLOOR = 0.01  # lowest price a price search considers
PRICE_GRID = 256  # prices a search scores before its golden phase
_NARROW = 32  # states a price row or scan's table starts with, doubled for the rows that need more
_ROW = 128  # states a single price's row widens to before the tables take over
JOIN_FRAC = 1e-6  # price_upper_bound: share of lam still joining the empty queue
# steps a speculative call settles on every branch (BENCH_speculative_search.json)
_PRICE_DEPTH = 3  # optimal_price's golden phase: a tree of 7 rows, then model._PREDICTED steps
_BISECTION_DEPTH = 8  # price_upper_bound: a tree of 255 midpoints, then model._PREDICTED steps
# theoretical_sigma's accounting and the stationary weighting it averages over
_SIGMA_WEIGHTING = {"transition": "jump", "occupancy": "time"}


class TruncationError(RuntimeError):
    """State space could not be truncated (non-balking parameters)."""


@dataclass(frozen=True)
class StationaryDist:
    """Stationary probabilities over states 0..qstar.

    tail_bound is a rigorous upper bound on the probability mass beyond
    qstar under the chosen weighting.
    """

    probs: np.ndarray
    qstar: int
    tail_bound: float
    weighting: str


def stationary_weights(theta, cfg: ModelConfig, fam: ValueFamily, qmax: int) -> np.ndarray:
    """Unnormalized stationary weights of states 0..qmax.

    The weight of state 0 is 1; each further state multiplies on the ratio of
    the previous state's joining rate to the service rate.  Computed
    iteratively, never re-multiplying full products.
    """
    theta = fam.param_space.require(theta)
    rates = StateTable(np.arange(qmax + 1), theta, cfg, fam).lam_q
    out = np.empty(qmax + 1)
    out[0] = 1.0
    if qmax >= 1:
        np.cumprod(rates[:-1] / cfg.mu, out=out[1:])
    return out


def _weigh(lam_q, mu: float, eps: float):
    """Weights, accumulated weights and truncation mask of (rows, width) joining rates.

    A row may be cut where its joining-to-service ratio is below 1/2 and its
    weight below eps times the accumulated weight: the rest is dominated by a
    geometric sequence with ratio < 1/2, a provable tail bound.  Weights are
    running products, so up to a state they do not depend on the width.
    """
    ratio = lam_q / mu
    weights = np.empty_like(lam_q)
    weights[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.multiply.accumulate(ratio[:, :-1], axis=1, out=weights[:, 1:])  # cumprod, unwrapped
        partial = np.add.accumulate(weights, axis=1)
        if not partial[:, -1].max() < np.inf:  # redo an overflowing row in logs, scaled by its top
            big = ~np.isfinite(partial[:, -1])
            logs = np.cumsum(np.log(ratio[big, :-1]), axis=1)
            top = np.maximum(logs.max(axis=1, keepdims=True), 0.0)
            weights[big] = np.exp(np.concatenate([np.zeros_like(top), logs], axis=1) - top)
            partial[big] = np.cumsum(weights[big], axis=1)
    return weights, partial, (ratio < 0.5) & (weights < eps * partial)


def _truncated_tables(prices, theta, cfg: ModelConfig, fam: ValueFamily, eps: float, width=_NARROW):
    """Weights and joining rates up to the truncation state, one row per price.

    Rows (``cfg.price`` is not used) start at ``width`` states and are cut at
    the first state of ``_weigh``'s mask; only the rows not yet cut are
    tabulated again at double the width.  Returns ``(rows, weights, lam_q,
    totals, qstar)`` per width that cuts rows: the prices' indices, their
    (n, width) tables, valid up to ``qstar``, the accumulated weight at
    ``qstar``, and ``qstar``.  The rows are the leading ones, usually all:
    they stop before the first price at which nobody joins the empty queue,
    and before the first unfinished row once the unfinished rows reach
    STATE_CAP states or would pass STATE_CAP entries at double the width;
    the caller then calls again with the remaining prices.  Only a first row
    raises (nobody joins, or no cut within STATE_CAP states), so a scan meets
    the error of the first bad price, in order.  theta and eps are validated
    by the callers.
    """
    prices = np.asarray(prices, dtype=float).reshape(-1, 1)
    lam_q = StateTable(np.arange(width), theta, cfg, fam, price=prices).lam_q
    zero = lam_q[:, 0] <= 0.0
    if zero[0]:
        raise ValueError("joining rate at the empty queue is zero")
    pending = np.arange(int(np.argmax(zero)) if zero.any() else len(prices))
    lam_q, out = lam_q[: len(pending)], []
    while True:
        weights, partial, ok = _weigh(lam_q, cfg.mu, eps)
        done = ok.any(axis=1)
        if done.any():
            qstar = np.argmax(ok[done], axis=1)
            totals = partial[done][np.arange(len(qstar)), qstar]
            out.append((pending[done], weights[done], lam_q[done], totals, qstar))
            pending, lam_q = pending[~done], lam_q[~done]
        if not len(pending):
            return out
        size = lam_q.shape[1]
        new_size = min(2 * size, STATE_CAP)
        if size >= STATE_CAP or len(pending) * new_size > STATE_CAP:
            first = pending[0]  # every row before it is truncated
            out = [tuple(part[group[0] < first] for part in group) for group in out]
            if first > 0:
                return out
            if size >= STATE_CAP:
                raise TruncationError(f"no truncation state found within {STATE_CAP} states; "
                                      "the chain does not appear to balk")
            pending, lam_q = pending[:1], lam_q[:1]
        more = StateTable(np.arange(size, new_size), theta, cfg, fam, price=prices[pending]).lam_q
        lam_q = np.concatenate([lam_q, more], axis=1)


class _Row:
    """price -> weights, joining rates and accumulated weight of its row, to its truncation state.

    A pass tabulates its rows _NARROW (32) states wide and doubles the
    width of the rows it leaves unsettled, up to _ROW (128) states: at a
    revenue-maximizing price a row ends within 4 to 25 states.
    It settles a row cut within its states at which somebody joins the
    empty queue; any other row, and its errors, go to _truncated_tables
    from double _ROW.  Up to a state a row does not depend on the width
    (_weigh), so each width gives the values of one _ROW-state pass.
    ``revenues`` makes that pass for many prices in one call.  theta is one
    parameter its callers validated, or an (n, dim) array of rows they
    validated, row i for the i-th price ``revenues`` scores.
    """

    def __init__(self, theta, cfg: ModelConfig, fam: ValueFamily, eps: float):
        if not 0.0 < eps < 1.0:
            raise ValueError("tail tolerance must lie in (0, 1)")
        self.theta, self.cfg, self.fam, self.eps = np.asarray(theta, dtype=float), cfg, fam, eps
        self.offsets = _threshold(np.arange(_ROW), cfg, price=0.0)  # price + offsets: the thresholds

    def _groups(self, prices: np.ndarray, pending: np.ndarray) -> list:
        """The rows of prices[pending] the pass settles: (rows, weights, lam_q, totals) per group.

        A group's rows share a truncation state: rows are their indices
        into prices, weights and lam_q their (rows, state + 1) tables up to
        that state, and totals the accumulated weights there.  One sum over
        a group's table then covers all its rows.
        """
        out, width = [], _NARROW
        while len(pending):
            thresholds = prices[pending, None] + self.offsets[:width]
            theta = self.theta if self.theta.ndim == 1 else self.theta[pending]
            lam_q = self.cfg.lam * self.fam._survival(thresholds, theta)
            weights, partial, ok = _weigh(lam_q, self.cfg.mu, self.eps)
            # each row's truncation state; 0 where nobody joins the empty queue, or where
            # no state within the width cuts the row (_weigh never cuts at state 0)
            qstar = (ok.argmax(axis=1) * (lam_q[:, 0] > 0.0)).tolist()
            first = qstar[0]
            if first and qstar.count(first) == len(qstar):  # one group, of every row
                out.append((pending, weights[:, :first + 1], lam_q[:, :first + 1],
                            partial[:, first]))
                return out
            groups = {}
            for i, q in enumerate(qstar):
                groups.setdefault(q, []).append(i)
            unsettled = groups.pop(0, None)
            for q, rows in groups.items():
                out.append((pending[rows], weights[rows, :q + 1], lam_q[rows, :q + 1],
                            partial[rows, q]))
            if unsettled is None or width == _ROW:
                break
            pending, width = pending[unsettled], 2 * width
        return out

    def __call__(self, price: float):
        groups = self._groups(np.array([price], dtype=float), np.zeros(1, dtype=int))
        if groups:
            _, weights, lam_q, totals = groups[0]
            return weights[0], lam_q[0], totals[0]
        _, weights, lam_q, totals, qstar = _truncated_tables(
            [price], self.theta, self.cfg, self.fam, self.eps, 2 * _ROW)[-1]
        return weights[0, : qstar[0] + 1], lam_q[0, : qstar[0] + 1], totals[0]

    def revenues(self, prices, settle: int) -> np.ndarray:
        """_revenue at each price, bit for bit, from one pass over all of them.

        Each run of rows that share a truncation state is summed in one call,
        each row over the states _revenue sums, in its order.  The first
        ``settle`` prices are always scored, in order, raising what
        expected_revenue raises; a later one whose row the pass does not
        settle, or that is not a nonnegative price, is NaN.
        """
        prices = np.asarray(prices, dtype=float)
        out = np.full(len(prices), np.nan)
        for rows, weights, lam_q, _ in self._groups(prices, np.flatnonzero(prices >= 0)):
            out[rows] = np.add.reduce(weights * lam_q, axis=1) / np.add.reduce(weights, axis=1)
        out *= prices
        for i in [i for i, value in enumerate(out[:settle].tolist()) if value != value]:
            if not prices[i] >= 0:
                raise ValueError("price must be nonnegative")
            row = self if self.theta.ndim == 1 else _Row(self.theta[i], self.cfg, self.fam, self.eps)
            out[i] = _revenue(row, prices[i])
        return out


def _revenue(row: _Row, price: float) -> float:
    """expected_revenue from a _Row."""
    weights, lam_q, _ = row(price)
    return price * float((weights * lam_q).sum() / weights.sum())


def stationary_distribution(
    theta,
    cfg: ModelConfig,
    fam: ValueFamily,
    eps: float = TRUNC_EPS,
    weighting: str = "time",
) -> StationaryDist:
    """Truncated stationary distribution of the queue length.

    weighting="time" gives the continuous-time occupancy law; "jump" gives
    the law of the state seen at transition epochs (weights multiplied by
    the total exit rate of each state).  eps is the tail tolerance of the
    truncation; every other function here uses TRUNC_EPS.
    """
    theta = fam.param_space.require(theta)
    weights, lam_q, total = _Row(theta, cfg, fam, eps)(cfg.price)
    qstar = len(weights) - 1
    rho = lam_q[-1] / cfg.mu
    tail_weight = weights[-1] * rho / (1.0 - rho)
    if weighting == "time":
        probs = weights / weights.sum()
        tail_bound = tail_weight / total
    elif weighting == "jump":
        exit_rates = lam_q + cfg.mu
        exit_rates[0] = lam_q[0]
        w = weights * exit_rates
        probs = w / w.sum()
        tail_bound = tail_weight * (lam_q[-1] + cfg.mu) / w.sum()
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    return StationaryDist(probs=probs, qstar=qstar, tail_bound=float(tail_bound), weighting=weighting)


def expected_revenue(price: float, theta, cfg: ModelConfig, fam: ValueFamily) -> float:
    """Stationary expected revenue per unit time at the given price.

    Revenue accrues in continuous time, so the time-weighted stationary law
    applies: price times the stationary mean of the joining rate, from the
    row function optimal_price's golden phase uses.  cfg.price is ignored.
    """
    if not price >= 0:
        raise ValueError("price must be nonnegative")
    return _revenue(_Row(fam.param_space.require(theta), cfg, fam, TRUNC_EPS), price)


def _revenue_scan(prices, theta, cfg: ModelConfig, fam: ValueFamily) -> np.ndarray:
    """expected_revenue at every price, from (price x state) tables.

    Each row is summed over its table's width with the states past qstar
    masked out, so a value can differ from expected_revenue's in the last
    bits (the summation order differs).  A negative price raises
    ValueError; otherwise the scan raises what the first price that cannot
    be tabulated raises.
    """
    prices = np.asarray(prices, dtype=float)
    if not (prices >= 0).all():
        raise ValueError("price must be nonnegative")
    out, start = np.empty(len(prices)), 0
    while start < len(prices):
        tables = _truncated_tables(prices[start:], theta, cfg, fam, TRUNC_EPS)
        for rows, weights, lam_q, _, qstar in tables:
            weights = np.where(np.arange(weights.shape[1]) <= qstar[:, None], weights, 0.0)
            out[start + rows] = (weights * lam_q).sum(axis=1) / weights.sum(axis=1)
        start += sum(len(rows) for rows, *_ in tables)
    return prices * out


def theoretical_sigma(
    theta, cfg: ModelConfig, fam: ValueFamily, accounting: str = "transition"
) -> np.ndarray:
    """Asymptotic information matrix of the estimator at the given parameter.

    With accounting="transition" (the exact form, matching the ergodic limit
    of the observed information): the mean under the jump-chain stationary
    law of mu*lam*g(q)g(q)^T / ((1-F)(mu + lam*(1-F))^2) over informative
    pre-states q >= 1, with g the cdf parameter gradient at the
    offered-reward threshold of q.  The empty state contributes nothing; its
    transition probability does not depend on the parameter.

    With accounting="occupancy": an alternative bookkeeping over the
    time-stationary law that attributes to every occupied state, the empty
    one included, the information of the arrival that fills it, i.e. the
    same summand evaluated at threshold price + q*cost_c/mu.  This is the
    convention behind the std-vs-price sensitivity curves; use the default
    for anything estimator-facing.
    """
    if accounting not in _SIGMA_WEIGHTING:
        raise ValueError(f"unknown accounting {accounting!r}")
    theta = fam.param_space.require(theta)
    dist = stationary_distribution(theta, cfg, fam, weighting=_SIGMA_WEIGHTING[accounting])
    if accounting == "transition":
        probs = dist.probs[1:]
        pre = np.arange(1, dist.qstar + 1)
    else:
        # the arrival that fills state q found q - 1 others (state 0: pre-state -1)
        probs = dist.probs
        pre = np.arange(-1, dist.qstar)
    if pre.size == 0:
        return np.zeros((fam.dim, fam.dim))
    tab = StateTable(pre, theta, cfg, fam)
    surv, denom = tab.surv, cfg.mu + tab.lam_q
    live = surv > 0.0
    coeff = np.zeros(pre.size)
    coeff[live] = probs[live] * cfg.mu * cfg.lam / (surv[live] * denom[live] ** 2)
    return np.einsum("q,qj,ql->jl", coeff, tab.grad, tab.grad)


def asymptotic_std(price: float, theta, cfg: ModelConfig, fam: ValueFamily) -> np.ndarray:
    """Asymptotic standard deviation of the sqrt(k)-scaled estimation errors.

    Square root of the diagonal of the inverse information matrix, evaluated
    with the queue operating at the given price, in the occupancy accounting
    over the time-stationary law: the convention the std-vs-price
    sensitivity curves are drawn in.  The estimator-exact value is
    theoretical_sigma's default (transition) accounting.
    """
    sigma = theoretical_sigma(theta, cfg.with_price(price), fam, accounting="occupancy")
    try:
        inv = np.linalg.inv(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("information matrix is singular") from exc
    diag = np.diag(inv)
    if np.any(diag <= 0):
        raise ValueError("information matrix is not positive definite")
    return np.sqrt(diag)


def price_upper_bound(theta, cfg: ModelConfig, fam: ValueFamily) -> float:
    """Smallest price at which effectively nobody joins the empty queue.

    Doubling scores 1, 2, ..., 2**39 in one call; an 80-step bisection
    narrows the last doubling.  Each call scores every midpoint of its next
    _BISECTION_DEPTH steps, the inner points of that many halvings' equal
    cells (exact: the bracket's width is a power of two and its ends are
    multiples of it), and those of the model._PREDICTED steps after them on
    the branch that a log rate linear between the bracket's ends predicts.
    """
    theta = fam.param_space.require(theta)
    offset = _threshold(0, cfg, price=0.0)

    def rate0(p):
        return cfg.lam * fam._survival(p + offset, theta)

    target = JOIN_FRAC * cfg.lam
    rates = rate0(2.0 ** np.arange(40))
    i = int(np.argmin(rates >= target))  # the first power of two nobody joins at, if any
    if rates[i] >= target:
        raise TruncationError("joining rate does not vanish with price")
    hi, r_hi = 2.0**i, rates[i]  # r_lo and r_hi: the joining rates at lo and hi
    lo, r_lo = (hi / 2.0, rates[i - 1]) if i else (0.0, math.nan)
    start, depth, path = 0, 0, []  # the last call's step, tree depth and predicted midpoints
    for step in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi  # rate0 is a function of the price: no later step moves lo or hi
        ahead = step - start - depth  # steps past the tree
        if ahead >= 0 and not (ahead < len(path) and mid == path[ahead]):
            start, depth, ahead = step, min(_BISECTION_DEPTH, 80 - step), -1
            path = _bisection_path(lo, hi, r_lo, r_hi, target, depth, 80 - step)
            tree = lo + (hi - lo) / 2**depth * np.arange(1, 2**depth)  # every branch's midpoints
            rates = rate0(np.concatenate([tree, path]))
            joins, left, right = (rates >= target).tolist(), 0, 2**depth  # lo and hi, in cells
        half = (left + right) // 2  # past the tree, left and right are no longer read
        i = half - 1 if ahead < 0 else 2**depth - 1 + ahead
        left, right = (half, right) if joins[i] else (left, half)
        lo, hi, r_lo, r_hi = (mid, hi, rates[i], r_hi) if joins[i] else (lo, mid, r_lo, rates[i])
    return hi


def _bisection_path(lo, hi, r_lo, r_hi, target, skip: int, steps: int) -> list:
    """Midpoints of steps skip + 1 .. skip + _PREDICTED (of steps) if the log rate is linear."""
    fall = math.log(r_lo) - math.log(r_hi) if r_hi > 0.0 and r_lo == r_lo else 0.0
    cross = lo + (hi - lo) * math.log(r_lo / target) / fall if fall > 0.0 else math.nan
    out = []
    for _ in range(min(skip + _PREDICTED, steps) if cross == cross else 0):
        mid = 0.5 * (lo + hi)
        out.append(mid)
        lo, hi = (mid, hi) if mid <= cross else (lo, mid)
    return out[skip:]


def optimal_price(theta, cfg: ModelConfig, fam: ValueFamily) -> float:
    """Revenue-maximizing price for the given parameter.

    theta is validated once.  The grid is scored on (price x state) tables;
    the golden phase scores _PRICE_DEPTH steps ahead on every branch and a
    predicted branch past them per call, on expected_revenue's one-row
    function built once per search, without its checks: the result is a
    scan by expected_revenue's whenever both pick the same grid point.
    Raises TruncationError when nobody effectively joins above PRICE_FLOOR.
    """
    theta = fam.param_space.require(theta)
    row = _Row(theta, cfg, fam, TRUNC_EPS)
    return grid_then_golden(
        lambda prices: _revenue_scan(prices, theta, cfg, fam),
        PRICE_FLOOR,
        _price_ceiling(theta, cfg, fam),
        PRICE_GRID,
        GOLDEN_TOL,
        lambda prices: row.revenues(prices, 1).tolist(),
        _PRICE_DEPTH,
    )


def _price_ceiling(theta, cfg: ModelConfig, fam: ValueFamily) -> float:
    """price_upper_bound, the top of a price search, which must lie above PRICE_FLOOR."""
    hi = price_upper_bound(theta, cfg, fam)
    if hi <= PRICE_FLOOR:
        share = fam._survival(np.array([_threshold(0, cfg, price=0.0)]), theta)[0]
        raise TruncationError(
            f"no price to search: the share of arrivals joining the empty queue is {share:.3g} "
            f"at price 0 and falls below JOIN_FRAC ({JOIN_FRAC:g}) by price {hi:.3g}, "
            f"not above PRICE_FLOOR ({PRICE_FLOOR:g})")
    return hi


def min_std_price(theta, cfg: ModelConfig, fam: ValueFamily) -> float:
    """Price that minimizes the asymptotic estimation standard deviation.

    Each point is one asymptotic_std call; the golden phase scores one
    point at a time.  Raises TruncationError as optimal_price does.
    """
    theta = fam.param_space.require(theta)

    def scores(prices):
        return [-float(asymptotic_std(p, theta, cfg, fam)[0]) for p in prices]

    return grid_then_golden(
        scores, PRICE_FLOOR, _price_ceiling(theta, cfg, fam), PRICE_GRID, GOLDEN_TOL, scores, 1
    )


def revenue_curve(prices, theta, cfg: ModelConfig, fam: ValueFamily):
    """expected_revenue at each price, from one row function's batch pass."""
    prices = np.asarray(prices, dtype=float)
    return _Row(fam.param_space.require(theta), cfg, fam, TRUNC_EPS).revenues(prices, len(prices))


def std_curve(prices, theta, cfg: ModelConfig, fam: ValueFamily):
    return np.array([float(asymptotic_std(p, theta, cfg, fam)[0]) for p in prices])


def write_curve_csv(fileobj, prices, values, label: str) -> None:
    """Serialize a (price, value) curve; label is "revenue" or "std"."""
    writer = csv.writer(fileobj)
    writer.writerow(["price", label])
    for p, v in zip(prices, values):
        writer.writerow([repr(float(p)), repr(float(v))])
