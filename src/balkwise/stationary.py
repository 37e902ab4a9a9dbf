"""Closed-form stationary analysis of the balking queue.

The queue length is an ergodic birth-death process whenever somebody joins
the empty queue, so its stationary law has the classical product form: the
unnormalized weight of state q is the product of joining-to-service rate
ratios up to q.  Everything here is computed on a provably-truncated state
space.  Two stationary weightings coexist: the continuous-time occupancy law
(weight proportional to the product itself) and the transition-epoch law of
the jump chain (product times the total exit rate).  Revenue accrues in
continuous time; the score ergodics of the estimator live on the jump chain.

One widening pass tabulates the truncated law's rows, one per price, each
as wide as that price needs, and two reductions read it: the
revenue-maximizing price search scans, on masked tables, the grid prices
whose revenue bound p * min(lam_0(p), mu) reaches the best value, then
refines the best grid point by a speculative golden section whose calls
score rows exactly as expected_revenue does: both points of each of the
next steps along a predicted branch.  The settings are the module
constants below; only stationary_distribution takes its own truncation eps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import (ModelConfig, StateTable, ValueFamily, _first_float, _threshold,
                    grid_then_golden)

STATE_CAP = 10**6
GOLDEN_TOL = 1e-9  # relative bracket width at which a price search stops
TRUNC_EPS = 1e-12  # tail mass left out when the stationary law is truncated
PRICE_FLOOR = 0.01  # lowest price a price search considers
PRICE_GRID = 256  # prices a search's grid holds before its golden phase
_PEAK_FIRST = 16  # grid prices optimal_price scores first: those of highest revenue bound
_NARROW = 32  # states every row starts with, doubled for the rows not yet cut
_ROW = 128  # states a row widens to when the caller need not settle it
JOIN_FRAC = 1e-6  # price_upper_bound: share of lam still joining the empty queue
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


def _weigh(lam_q, cfg: ModelConfig, eps: float):
    """Weights, accumulated weights and truncation mask of (rows, width) joining rates.

    A row may be cut where its joining-to-service ratio is below 1/2 and its
    weight below eps times the accumulated weight: the rest is dominated by a
    geometric sequence with ratio < 1/2, a provable tail bound.  Weights are
    running products, so up to a state they do not depend on the width.  A
    row whose weights overflow is redone in logs, scaled by its top; one whose
    revenue sum (at most weight times lam) could is scaled by 2**-512, exactly.
    """
    ratio = lam_q / cfg.mu
    weights = np.empty_like(lam_q)
    weights[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.multiply.accumulate(ratio[:, :-1], axis=1, out=weights[:, 1:])  # cumprod, unwrapped
        partial = np.add.accumulate(weights, axis=1)
        if not partial[:, -1].max() * cfg.lam < 2.0**1023:
            big = ~np.isfinite(partial[:, -1])
            logs = np.cumsum(np.log(ratio[big, :-1]), axis=1)
            top = np.maximum(logs.max(axis=1, keepdims=True), 0.0)
            weights[big] = np.exp(np.concatenate([np.zeros_like(top), logs], axis=1) - top)
            partial[big] = np.cumsum(weights[big], axis=1)
            over = ~(partial[:, -1] * cfg.lam < 2.0**1023)
            weights[over], partial[over] = weights[over] * 2.0**-512, partial[over] * 2.0**-512
    return weights, partial, (ratio < 0.5) & (weights < eps * partial)


class _Row:
    """Rows of the truncated stationary law, one per price, from one widening pass.

    The pass (``_tables``) tabulates every row _NARROW (32) states wide and
    gives the rows not yet cut new columns, at double the width: a row the
    caller must settle widens up to STATE_CAP states, any other up to _ROW
    (128), past which it is left unscored (at a revenue-maximizing price a
    row ends within 4 to 25 states).  A widened table holds at most STATE_CAP
    cells: past that its leading rows widen first.  Up to a state a row does not
    depend on the width (_weigh).  ``scan`` sums each table masked past each
    row's truncation state; ``revenues`` sums each group of rows that share
    one over exactly its states, as expected_revenue does.  theta is one
    parameter its callers validated, or (n, dim) rows, row i for price i.
    """

    def __init__(self, theta, cfg: ModelConfig, fam: ValueFamily, eps: float):
        if not 0.0 < eps < 1.0:
            raise ValueError("tail tolerance must lie in (0, 1)")
        self.theta, self.cfg, self.fam, self.eps = np.asarray(theta, dtype=float), cfg, fam, eps
        self.offsets = _threshold(np.arange(_ROW), cfg, price=0.0)  # price + offsets: the thresholds

    def _rates(self, prices: np.ndarray, rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Joining rates of states lo .. hi - 1 at prices[rows], one row per price."""
        offsets = (self.offsets[lo:hi] if hi <= _ROW
                   else _threshold(np.arange(lo, hi), self.cfg, price=0.0))
        theta = self.theta if self.theta.ndim == 1 else self.theta[rows]
        return self.cfg.lam * self.fam._survival(prices[rows, None] + offsets, theta)

    def _tables(self, prices: np.ndarray, settle: int):
        """The pass: (rows, weights, lam_q, partial, qstar) of the rows each table cuts.

        rows index prices; weights, lam_q and partial (_weigh) are their
        tables at the width that cut them, valid up to the truncation states
        qstar.  The first ``settle`` prices are settled in order: once the
        rows before it are cut, the pass raises what expected_revenue raises
        at the first of them that is not a nonnegative price, at which nobody
        joins the empty queue, or that no state within STATE_CAP cuts.
        """
        rows = (prices >= 0).nonzero()[0]
        lam_q = self._rates(prices, rows, 0, _NARROW)
        if np.count_nonzero(lam_q[:, 0]) < len(rows):  # nobody joins the empty queue
            joins = lam_q[:, 0] > 0.0
            rows, lam_q = rows[joins], lam_q[joins]
        # the first price to settle that cannot be; only the rows before it widen past _ROW
        bad = min(set(range(len(prices[:settle]))) - set(rows[:settle].tolist()), default=settle)
        waiting = []  # (rows, lam_q) of later rows held back by the cell bound, the next one last
        while True:
            if len(rows):
                weights, partial, ok = _weigh(lam_q, self.cfg, self.eps)
                qstar = ok.argmax(axis=1)  # 0 for a row not cut: _weigh never cuts at state 0
                if 0 not in qstar.tolist():
                    yield rows, weights, lam_q, partial, qstar
                    rows = rows[:0]
                elif qstar.any():
                    cut = qstar > 0
                    yield rows[cut], weights[cut], lam_q[cut], partial[cut], qstar[cut]
                    rows, lam_q = rows[~cut], lam_q[~cut]
            if lam_q.shape[1] >= _ROW and len(rows) and rows[-1] >= bad:
                rows, lam_q = rows[rows < bad], lam_q[rows < bad]
            if not len(rows) and waiting:
                rows, lam_q = waiting.pop()
            width = lam_q.shape[1]
            if bad < settle and not (len(rows) and rows[0] < bad):
                raise ValueError("price must be nonnegative" if not prices[bad] >= 0
                                 else "joining rate at the empty queue is zero")
            if not len(rows):
                return
            if width >= STATE_CAP:
                raise TruncationError(f"no truncation state found within {STATE_CAP} states; "
                                      "the chain does not appear to balk")
            new_width = min(2 * width, STATE_CAP)
            fit = max(1, STATE_CAP // new_width)
            if len(rows) > fit:
                waiting.append((rows[fit:], lam_q[fit:]))
                rows, lam_q = rows[:fit], lam_q[:fit]
            lam_q = np.concatenate([lam_q, self._rates(prices, rows, width, new_width)], axis=1)

    def __call__(self, price: float):
        """The row of one price: its weights, joining rates and accumulated weight."""
        ((_, weights, lam_q, partial, qstar),) = self._tables(np.array([price], dtype=float), 1)
        end = qstar[0] + 1
        return weights[0, :end], lam_q[0, :end], partial[0, end - 1]

    def revenues(self, prices, settle: int) -> np.ndarray:
        """expected_revenue at each price, bit for bit, from one pass over all of them.

        Each group of rows that share a truncation state is summed in one
        call, each row over the states expected_revenue sums, in its order.  The
        first ``settle`` prices are always scored, in order, raising what
        expected_revenue raises; a later one whose row passes _ROW states,
        or that is not a nonnegative price, is NaN.
        """
        prices = np.asarray(prices, dtype=float)
        out = np.full(len(prices), np.nan)
        for rows, weights, lam_q, _, qstar in self._tables(prices, settle):
            qstar, groups = qstar.tolist(), {}
            if qstar.count(qstar[0]) == len(qstar):  # one group, of every row
                groups[qstar[0]] = slice(None)
            else:
                for i, q in enumerate(qstar):
                    groups.setdefault(q, []).append(i)
            for q, group in groups.items():
                w, lam = weights[group, :q + 1], lam_q[group, :q + 1]
                out[rows[group]] = np.add.reduce(w * lam, axis=1) / np.add.reduce(w, axis=1)
        return out * prices

    def scan(self, prices) -> np.ndarray:
        """expected_revenue at every price, for a search's grid, raising as ``revenues`` does.

        Each table is summed over its width with the states past each row's
        truncation state masked out, so a value can differ from
        expected_revenue's in the last bits (the summation order differs).
        """
        prices = np.asarray(prices, dtype=float)
        out = np.empty(len(prices))
        for rows, weights, lam_q, _, qstar in self._tables(prices, len(prices)):
            weights = np.where(np.arange(weights.shape[1]) <= qstar[:, None], weights, 0.0)
            out[rows] = np.add.reduce(weights * lam_q, axis=1) / np.add.reduce(weights, axis=1)
        return prices * out

    def peak_scan(self, prices) -> np.ndarray:
        """``scan`` where a price can hold its maximum, -inf elsewhere: the same argmax, bit for bit.

        Joining rates fall with the queue (Naor's rule) and the queue serves at
        most mu, so expected_revenue(p) <= p * min(lam_0(p), mu).  Scored: the
        _PEAK_FIRST highest bounds, then every bound that times 1 + 1e-9 reaches
        the best value so far, with the two prices on either side of the best
        (grid_then_golden reads the three values around its maximum) and, to
        raise as ``scan`` does, every bound not positive and finite and the
        lowest price unless it joins below mu / 2 at state STATE_CAP - 64 (then
        every row is cut within STATE_CAP).  A value depends only on its row.
        """
        prices, half = np.asarray(prices, dtype=float), self.cfg.mu / 2
        lam_0 = self._rates(prices, slice(None), 0, 1)[:, 0]
        bound = prices * np.minimum(lam_0, self.cfg.mu)
        out, need = np.full(len(prices), -np.inf), ~(bound > 0.0) | ~(bound < np.inf)
        need[np.argsort(-bound)[:_PEAK_FIRST]] = True
        probe = STATE_CAP - 64  # rates fall with the queue: below mu / 2 at 0, below it here
        need[0] |= lam_0[0] >= half and not self._rates(prices, [0], probe, probe + 1)[0, 0] < half
        while need.any():
            out[need] = self.scan(prices[need])
            best = int(out.argmax())
            need = ~(bound * (1.0 + 1e-9) < out[best])
            need[max(best - 2, 0):best + 3] = True
            need &= out == -np.inf  # not scored yet: a scored value is finite
        return out


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
    weights, lam_q, _ = _Row(fam.param_space.require(theta), cfg, fam, TRUNC_EPS)(price)
    return price * float((weights * lam_q).sum() / weights.sum())


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

    The smallest float price in [0, 2**40] with lam * S(price + c/mu) below
    JOIN_FRAC * lam (model._first_float from the (1 - JOIN_FRAC) quantile
    less c/mu), rounded up to a multiple of 2**-80, at least 2**-80, as an
    80-step bisection from [0, 1] ends.  Raises TruncationError if none is found.
    """
    theta = fam.param_space.require(theta)
    offset = _threshold(0, cfg, price=0.0)
    hi = _first_float(lambda p: cfg.lam * fam._survival(p + offset, theta) < JOIN_FRAC * cfg.lam,
                      fam.quantile(1.0 - JOIN_FRAC, theta) - offset, 2.0**40)
    if hi == math.inf:
        raise TruncationError("joining rate does not vanish with price")
    return max(math.ceil(hi * 2.0**80), 1) * 2.0**-80


def optimal_price(theta, cfg: ModelConfig, fam: ValueFamily) -> float:
    """Revenue-maximizing price for the given parameter.

    theta is validated once, and one row function serves the search: its
    masked grid scan scores only the prices whose revenue bound
    p * min(lam_0(p), mu) can reach the grid's maximum (_Row.peak_scan), and
    each call of the golden phase scores the point it needs and both points
    of each of the next model._AHEAD steps along a predicted branch, each
    as expected_revenue does, without its checks: the result is a scan by
    expected_revenue's whenever both pick the same grid point.  Raises
    TruncationError when nobody effectively joins above PRICE_FLOOR.
    """
    theta = fam.param_space.require(theta)
    row = _Row(theta, cfg, fam, TRUNC_EPS)
    return grid_then_golden(row.peak_scan, PRICE_FLOOR, _price_ceiling(theta, cfg, fam),
                            PRICE_GRID, GOLDEN_TOL, lambda points: row.revenues(points, 1).tolist())


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

    Each point is one asymptotic_std call.  The golden phase's batch scores
    only the point the search needs and leaves the speculative ones NaN, so
    the search scores one point at a time.  Raises TruncationError as
    optimal_price does.
    """
    theta = fam.param_space.require(theta)

    def scores(prices):
        return (-std_curve(prices, theta, cfg, fam)).tolist()

    return grid_then_golden(scores, PRICE_FLOOR, _price_ceiling(theta, cfg, fam), PRICE_GRID,
                            GOLDEN_TOL, lambda ps: scores(ps[:1]) + [math.nan] * (len(ps) - 1))


def revenue_curve(prices, theta, cfg: ModelConfig, fam: ValueFamily):
    """expected_revenue at each price, from one row function's batch pass."""
    prices = np.asarray(prices, dtype=float)
    return _Row(fam.param_space.require(theta), cfg, fam, TRUNC_EPS).revenues(prices, len(prices))


def std_curve(prices, theta, cfg: ModelConfig, fam: ValueFamily):
    """asymptotic_std's first coordinate at each price."""
    return np.array([float(asymptotic_std(p, theta, cfg, fam)[0]) for p in prices])


def write_curve_csv(fileobj, prices, values, label: str) -> None:
    """Serialize a (price, value) curve; label is "revenue" or "std"."""
    writer = csv.writer(fileobj)
    writer.writerow(["price", label])
    for p, v in zip(prices, values):
        writer.writerow([repr(float(p)), repr(float(v))])
