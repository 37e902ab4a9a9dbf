"""Censored-data likelihood and the box-constrained maximum likelihood fit.

Because the up/down law of the jump chain depends only on the pre-transition
state, a path enters the likelihood solely through per-state counts of up and
down moves.  Every likelihood value here comes from one table, ``_Batch``,
which reduces each path to those counts once, so a likelihood evaluation
costs O(number of distinct states), not O(path length); ``fit_mle`` and
``score`` also take the counts themselves, the ``(n_up, n_down)`` pair of
``transition_counts``.  A fit tabulates states, thresholds and counts once
and scores its scan of 65 points per axis (65**dim in all) in one call on a
(theta x state) table; every dimension then takes the same projected Newton
polish.

The fit is written once, as a generator of likelihood requests
(``_fitting``).  The batch driver ``_fit_batch`` fits many replications
together: it steps their generators in lockstep and answers each round
with one table (``_Batch.evaluate``).  Each point's terms are summed over
its own states only, as numpy sums one point's row, so every batched fit
equals ``fit_mle``'s bit for bit; ``fit_mle`` is the driver's
one-replication case.

Transitions out of the empty queue are certain and carry no information.
The log-likelihood sums every other state somebody joins, the states
everybody joins included (for a bounded-support family that set moves with
theta).  The effective sample leaves out the states whose balking
probability is exactly 0 or 1, matching the model module's
``is_informative``.  The score is normalized by the FULL number of
transitions k (not the effective count), and the observed information and
standard errors follow the same convention throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import NamedTuple, Optional, Union

import numpy as np

from .model import (ModelConfig, StateTable, ValueFamily, _d2p, _dp, _golden_search, _jump_law,
                    _threshold, _varies)
from .simulator import QueuePath


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum likelihood fit.

    sigma_plugin is the observed information at the estimate (the negative
    Jacobian of the normalized score); std_err is the usual plug-in standard
    error sqrt(diag(sigma_plugin^-1) / k).
    """

    theta_hat: np.ndarray
    loglik: float
    score_norm: float
    boundary: bool
    effective_n: int
    total_k: int
    sigma_plugin: np.ndarray
    std_err: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {
                "theta_hat": self.theta_hat.tolist(),
                "loglik": self.loglik,
                "score_norm": self.score_norm,
                "boundary": self.boundary,
                "effective_n": self.effective_n,
                "total_k": self.total_k,
                "sigma_plugin": self.sigma_plugin.tolist(),
                "std_err": self.std_err.tolist(),
            }
        )

    @staticmethod
    def from_json(text: str) -> "FitResult":
        raw = json.loads(text)
        return FitResult(
            theta_hat=np.asarray(raw["theta_hat"], dtype=float),
            loglik=float(raw["loglik"]),
            score_norm=float(raw["score_norm"]),
            boundary=bool(raw["boundary"]),
            effective_n=int(raw["effective_n"]),
            total_k=int(raw["total_k"]),
            sigma_plugin=np.asarray(raw["sigma_plugin"], dtype=float),
            std_err=np.asarray(raw["std_err"], dtype=float),
        )


_Counts = tuple[np.ndarray, np.ndarray]


def transition_counts(path: QueuePath) -> _Counts:
    """Per-state counts of up and down moves (indexed by pre-state)."""
    pre = path.pre_states
    size = int(pre.max()) + 1 if len(pre) else 1
    counts = np.bincount(2 * pre + (path.states[1:] > pre), minlength=2 * size)
    return counts[1::2], counts[0::2]


def _left(data: Union[QueuePath, _Counts]):
    """The states q >= 1 a path or its counts left, their up and down counts, and k."""
    n_up, n_down = transition_counts(data) if isinstance(data, QueuePath) else map(np.asarray, data)
    q = np.flatnonzero(n_up[1:] + n_down[1:]) + 1
    return q, n_up[q], n_down[q], int(n_up.sum() + n_down.sum())


# States whose up-probability is this small contribute less than double
# precision can register to the score and information; including them only
# manufactures 0/0 from underflowed intermediates.
_P_FLOOR = 1e-150
# Points times states of the tables of one _Batch.evaluate step, at most: a
# scan's tables then stay under 1 MB (measured, BENCH_lean_walk.json)
_CELLS = 8192


class _Values(NamedTuple):
    """The likelihood at n points, and what else was asked for there."""

    loglik: np.ndarray  # (n,)
    effective: Optional[np.ndarray] = None  # (n,)
    score: Optional[np.ndarray] = None  # (n, dim)
    information: Optional[np.ndarray] = None  # (n, dim, dim)

    def rows(self, index) -> "_Values":
        return _Values(*(None if field is None else field[index] for field in self))


def _runs(lengths) -> list:
    """(first point, end point, state count) of each run of points with one state count."""
    cuts = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist(), len(lengths)]
    return [(a, b, int(lengths[a])) for a, b in zip(cuts, cuts[1:])]


def _state_sums(values, runs) -> np.ndarray:
    """Each point's sum over its own states, the first m columns of its row of values.

    numpy adds each row's m columns, of a run's (points, m, ...) block,
    in the order of that row alone: a sum depends on no other point, and
    no padding enters it.
    """
    sums = [np.add.reduce(values[a:b, :m], axis=1) for a, b, m in runs]
    return sums[0] if len(sums) == 1 else np.concatenate(sums)


# What a request needs at its points: the log-likelihood; also the effective
# sample; also the score and the information
_LOGLIK, _EFFECTIVE, _DERIVATIVES = 0, 1, 2


class _Batch:
    """The likelihoods of several paths or transition counts, scored together.

    Each datum is reduced to the states q >= 1 it left, their thresholds
    and up/down counts, and k, the number of transitions counted.  Datum
    i's thresholds and counts fill the first m[i] columns of (data x max m)
    tables.  The rest of its row repeats the threshold of its first state,
    with counts 0: it joins, is informative and is floored as that state
    is, so a test over a whole row is one over the datum's states.  Only
    sums need the row's own m[i] columns.  All of that, and the run of a
    single datum's points, is set up once; a round computes only what
    depends on its points, and the informative mask only when it needs the
    effective sample.  Points are in the box, so every round reads the
    family's unvalidated kernels, ``_survival`` and ``_cdf_derivatives``.
    """

    def __init__(self, datas, cfg: ModelConfig, fam: ValueFamily):
        self.cfg, self.fam = cfg, fam
        left = [_left(data) for data in datas]
        self.m = np.array([q.size for q, _, _, _ in left])
        self.k = np.array([k for _, _, _, k in left])
        shape = (len(left), int(self.m.max()))
        self.thresholds = np.empty(shape)
        self.up, self.down = np.zeros(shape), np.zeros(shape)  # float counts, exact below 2**53
        for i, (q, up, down, _) in enumerate(left):
            m, thresholds = q.size, _threshold(q, cfg)
            self.thresholds[i] = thresholds[0] if m else _threshold(1, cfg)
            self.thresholds[i, :m] = thresholds
            self.up[i, :m], self.down[i, :m] = up, down
        # one datum's row serves every point, which make one run of its state count
        self.runs = [(0, None, int(self.m[0]))] if len(left) == 1 else None

    def at(self, thetas, need=_LOGLIK) -> _Values:
        """Datum 0's likelihood at theta, or at each row of an (n, dim) array."""
        thetas = np.asarray(thetas, dtype=float).reshape(-1, self.fam.dim)
        return self.evaluate(np.zeros(len(thetas), dtype=int), thetas, need)

    def evaluate(self, reps, thetas, need=_LOGLIK) -> _Values:
        """The likelihood of datum reps[i] at thetas[i], for each point i, from one table.

        need asks for the log-likelihood (_LOGLIK), also the effective
        sample (_EFFECTIVE) or also the score and information
        (_DERIVATIVES).  Each value is the one-point computation's bit for
        bit: each point's terms are summed over its own states alone
        (_state_sums), over the states somebody joins when some are not,
        and over the floored states when some are not.  Points ordered by
        state count form few runs.  Points are taken _CELLS table cells at
        a time, which bounds the memory of a scan's tables.
        """
        if len(thetas) > 1 and len(thetas) * self.thresholds.shape[1] > _CELLS:
            step = max(1, _CELLS // self.thresholds.shape[1])
            parts = [self.evaluate(reps[i:i + step], thetas[i:i + step], need)
                     for i in range(0, len(thetas), step)]
            return _Values(*(None if f[0] is None else np.concatenate(f) for f in zip(*parts)))
        cfg, fam = self.cfg, self.fam
        if self.runs:  # one datum: its row broadcasts
            r, up, down, runs = self.thresholds, self.up, self.down, self.runs
        else:
            r, up, down = self.thresholds[reps], self.up[reps], self.down[reps]
            runs = _runs(self.m[reps])
        surv = fam._survival(r, thetas)
        lam_q = cfg.lam * surv
        p_up, p_down, denom = _jump_law(lam_q, cfg.mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms_up, terms_down = up * np.log(p_up), down * np.log(p_down)
        loglik = _state_sums(terms_up, runs) + _state_sums(terms_down, runs)
        if np.count_nonzero(p_up) < p_up.size:  # a state nobody joins
            joins, lengths = p_up > 0.0, self.m[reps]
            for i in np.flatnonzero(~joins.all(axis=1)):  # summed over the states somebody joins
                states, some = slice(lengths[i]), joins[i, :lengths[i]]
                loglik[i] = terms_up[i, states][some].sum() + terms_down[i, states][some].sum()
            # an up-move from a state nobody joins is impossible under theta
            loglik[((p_up == 0.0) & (up > 0)).any(axis=1)] = -np.inf
        if need < _EFFECTIVE:
            return _Values(loglik)
        informative = _varies(surv)
        effective = np.add.reduce(informative * (up + down), axis=1)
        if need < _DERIVATIVES:
            return _Values(loglik, effective)

        lengths = self.m[reps]
        grad, hess = fam._cdf_derivatives(r, thetas)
        dp, d2p = _dp(cfg, denom, grad), _d2p(cfg, denom, grad, hess)
        outer = np.einsum("...j,...l->...jl", dp, dp)
        live = informative & (p_up > _P_FLOOR)
        up, down, p_up, p_down = up[..., None], down[..., None], p_up[..., None], p_down[..., None]
        some, k = live.any(axis=1) & (lengths > 0), self.k[reps]
        with np.errstate(all="ignore"):  # at states below the floor, dropped below
            terms = (
                up * (dp / p_up) - down * (dp / p_down),
                up[..., None] * (d2p / p_up[..., None] - outer / p_up[..., None]**2)
                - down[..., None] * (d2p / p_down[..., None] + outer / p_down[..., None]**2),
            )
            sums = [_state_sums(t, runs) for t in terms]
            for i in np.flatnonzero(some & ~live.all(axis=1)):
                keep = live[i, :lengths[i]]
                for total, t in zip(sums, terms):
                    total[i] = t[i, :lengths[i]][keep].sum(axis=0)
            # a point with no floored state keeps score and information 0
            score = np.where(some[:, None], sums[0] / k[:, None], 0.0)
            information = np.where(some[:, None, None], -(sums[1] / k[:, None, None]), 0.0)
        return _Values(loglik, effective, score, information)


def log_likelihood(path: QueuePath, theta, cfg: ModelConfig, fam: ValueFamily) -> float:
    """Log-likelihood of the parameter given an observed path.

    Sum of the Bernoulli up/down terms of the transitions out of states
    q >= 1 that somebody joins, a state everybody joins (balking probability
    0) included: whether a bounded-support family attains that depends on
    theta, so its terms do too.  The parameter-free contributions (log mu
    per down-step and the certain moves out of the empty queue) are omitted,
    and a state nobody joins adds log 1 = 0 per down-step, so values are
    comparable only across parameters on a fixed path.  Returns -inf when
    the path is impossible under the parameter.
    """
    theta = fam.param_space.require(theta)
    return float(_Batch([path], cfg, fam).at(theta).loglik[0])


def score(data: Union[QueuePath, _Counts], theta, cfg: ModelConfig, fam: ValueFamily) -> np.ndarray:
    """Normalized score: gradient of log-likelihood over the full step count.

    ``data`` is a path or its ``transition_counts``.
    """
    theta = fam.param_space.require(theta)
    return _Batch([data], cfg, fam).at(theta, _DERIVATIVES).score[0]


def observed_information(
    path: QueuePath, theta, cfg: ModelConfig, fam: ValueFamily
) -> np.ndarray:
    """Negative Jacobian of the normalized score at theta."""
    theta = fam.param_space.require(theta)
    return _Batch([path], cfg, fam).at(theta, _DERIVATIVES).information[0]


def score_outer_product(
    path: QueuePath, theta, cfg: ModelConfig, fam: ValueFamily
) -> np.ndarray:
    """Outer-product-of-scores information estimate (cross-check utility).

    Converges to the same limit as the observed information at the true
    parameter; the plug-in covariance in FitResult uses the observed
    information, this one is for comparison.
    """
    theta = fam.param_space.require(theta)
    q, up, down, k = _left(path)
    tab = StateTable(q, theta, cfg, fam)
    live = tab.informative & (tab.p_up > _P_FLOOR)
    if not live.any():
        return np.zeros((fam.dim, fam.dim))
    per_up, per_down = tab.dp[live] / tab.p_up[live, None], tab.dp[live] / tab.p_down[live, None]
    return (
        np.einsum("q,qj,ql->jl", up[live].astype(float), per_up, per_up)
        + np.einsum("q,qj,ql->jl", down[live].astype(float), per_down, per_down)
    ) / k


PARAM_TOL = 1e-10
SCORE_RTOL = 1e-8


def _round_off(f: float) -> float:
    """Log-likelihood differences this small are round-off at the value f."""
    return 1e-12 * max(1.0, abs(f))


def _asked(search):
    """A golden search over one parameter, its batches passed on as likelihood requests."""
    values = None
    while True:
        try:
            points = search.send(values)
        except StopIteration as stop:
            return stop.value
        values = (yield np.array(points)[:, None], _LOGLIK).loglik.tolist()


@lru_cache(maxsize=8)
def _scan_grid(lower: tuple, upper: tuple) -> np.ndarray:
    """The fit's scan of a box, (65**dim, dim): 65 points per axis between its bounds, read-only."""
    axes = np.linspace(lower, upper, 65)
    grid = np.stack(np.meshgrid(*axes.T, indexing="ij"), axis=-1).reshape(-1, len(lower))
    grid.flags.writeable = False
    return grid


def _fitting(k: int, fam: ValueFamily, grid: np.ndarray):
    """fit_mle's search for one replication of k transitions, as a generator of requests.

    grid is _scan_grid's.  Each request is (thetas, need): an (n, dim) array
    of points and what they need (_LOGLIK, _EFFECTIVE or _DERIVATIVES).  The
    _Values of those points is sent back.  The generator returns the
    FitResult and the score at its estimate (its last _DERIVATIVES round),
    or raises fit_mle's ValueError.
    """
    space = fam.param_space
    if k == 0:
        raise ValueError("path has no transitions")
    scan = yield grid, _EFFECTIVE
    if not scan.effective.any():
        raise ValueError("no informative transitions in the path")
    tol = PARAM_TOL * space.width
    # an end of the scan at 0, the log-likelihood's top, is the fit (the plateau check below)
    if fam.dim == 1 and not (scan.loglik[[0, -1]] >= 0.0).any():
        search = _golden_search(grid[:, 0], scan.loglik, tol[0])
        x = np.array([(yield from _asked(search))])
    else:
        x = grid[np.argmax(scan.loglik)].copy()

    # Projected Newton polish (Bertsekas 1982): a coordinate at a bound the
    # score pushes against stays fixed.  Only a golden-refined start, already
    # resolved to PARAM_TOL, may stop on the relative score test.  Each
    # point is asked for with its score and information, so `at` holds them
    # at x, and the next step needs no round of its own.
    at = yield x[None], _DERIVATIVES
    refined, fx = fam.dim == 1, float(at.loglik[0])
    for _ in range(60):
        g = at.score[0]
        free = ~((x <= space.lower) & (g < 0) | (x >= space.upper) & (g > 0))
        if not g[free].any() or refined and np.linalg.norm(g) <= SCORE_RTOL * max(1.0, abs(fx)):
            break
        w, v = np.linalg.eigh(at.information[0][np.ix_(free, free)])
        if w[0] == 0.0:
            break
        # an indefinite information is shifted to a positive definite one
        step = np.zeros(fam.dim)
        step[free] = v @ (v.T @ g[free] / (w - 2.0 * min(w[0], 0.0)))
        for halving in range(60):
            x_new = space.clip(x + step)
            new = yield x_new[None], _DERIVATIVES
            f_new = float(new.loglik[0])
            # a halved step must gain more than round-off
            up = f_new > fx + _round_off(fx) if halving else f_new >= fx
            small = bool(np.all(np.abs(x_new - x) < tol))
            if up or small:
                break
            step = step / 2
        if up:
            x, fx, at = x_new, f_new, new
        if small or not up:
            break

    # A monotone likelihood flattens out in floating point (log(1-p) rounds
    # to 0 once p underflows), so an interior plateau point can masquerade as
    # a maximum.  When a coordinate's bound does at least as well up to
    # round-off, the data cannot tell them apart: report the bound.
    for j in range(fam.dim):
        at_j = np.arange(fam.dim) == j
        if fam.dim == 1:  # the ends are the scan's first and last points
            ends = scan.loglik[[0, -1]]
        else:
            bounds = (space.lower[j], space.upper[j])
            ends = (yield np.array([np.where(at_j, b, x) for b in bounds]), _LOGLIK).loglik
        low, high = float(ends[0]), float(ends[1])
        if max(low, high) >= fx - _round_off(fx):
            x[j] = space.upper[j] if high >= low else space.lower[j]
            fx, at = max(low, high), None
    if at is None:  # x moved to a bound
        at = yield x[None], _DERIVATIVES

    info = at.information[0]
    std_err = np.full(fam.dim, np.nan)
    try:
        cov = np.linalg.inv(info) / k
        diag = np.diag(cov)
        if np.all(diag > 0):
            std_err = np.sqrt(diag)
    except np.linalg.LinAlgError:
        pass
    return FitResult(
        theta_hat=x,
        loglik=float(at.loglik[0]),
        score_norm=float(np.linalg.norm(at.score[0])),
        boundary=space.on_boundary(x),
        effective_n=int(at.effective[0]),
        total_k=k,
        sigma_plugin=info,
        std_err=std_err,
    ), at.score[0]


def _fit_batch(datas, cfg: ModelConfig, fam: ValueFamily) -> list:
    """fit_mle of each of datas (paths or transition counts), their searches in lockstep.

    Each round answers the pending requests with one _Batch.evaluate call
    per need, the replications ordered by their number of states, and every
    result is fit_mle's bit for bit.  Returns (fit, score at theta_hat) per
    datum, the score equal to score()'s there.  When fits raise, the error
    of the first of them in the order of datas is raised.
    """
    batch = _Batch(datas, cfg, fam)
    order = np.argsort(batch.m, kind="stable").tolist()
    space = fam.param_space
    grid = _scan_grid(tuple(space.lower.tolist()), tuple(space.upper.tolist()))
    fits = [_fitting(int(k), fam, grid) for k in batch.k]
    results, asks = [None] * len(fits), {}

    def step(i, values):
        try:
            asks[i] = fits[i].send(values)
        except StopIteration as stop:
            results[i] = stop.value
        except ValueError as exc:  # raised below, in replication order
            results[i] = exc

    for i in range(len(fits)):
        step(i, None)
    while asks:
        asked, asks, needs = asks, {}, {}
        for i in order:
            if i in asked:
                needs.setdefault(asked[i][1], []).append(i)
        for need in sorted(needs):
            reps = needs[need]
            if len(reps) == 1:
                i, points = reps[0], asked[reps[0]][0]
                step(i, batch.evaluate(np.full(len(points), i), points, need))
                continue
            points = [asked[i][0] for i in reps]
            sizes = [len(p) for p in points]
            values = batch.evaluate(np.repeat(reps, sizes), np.concatenate(points), need)
            end = 0
            for i, size in zip(reps, sizes):
                step(i, values.rows(slice(end, end + size)))
                end += size
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def fit_mle(data: Union[QueuePath, _Counts], cfg: ModelConfig, fam: ValueFamily) -> FitResult:
    """Maximize the log-likelihood over the parameter box, in any dimension.

    ``data`` is a path or its ``transition_counts``; both give the same fit.

    A scan of 65 points per axis (65**dim in all) is scored in one call
    through ``fam._survival``; its values equal log_likelihood's.  One
    parameter refines the best point by speculative golden section (each
    round also scores both points of each of the next steps along a
    predicted branch, as model.grid_then_golden does) unless an end of the
    scan is at 0, the top; more start from it.  A projected Newton polish
    on the score and information follows.  A coordinate whose bound
    does as well up to round-off is moved there, and a solution within
    model.BOUNDARY_RTOL (1e-6) of the box width of any bound is flagged as a
    boundary fit.  The search takes no starting point; it is _fit_batch for one replication.
    """
    return _fit_batch([data], cfg, fam)[0][0]



def confidence_interval(fit: FitResult, level: float) -> np.ndarray:
    """Per-coordinate normal-approximation confidence intervals.

    Returns an array of (lower, upper) rows.  Requires an interior fit with
    an invertible plug-in information matrix.
    """
    if not 0.0 <= level < 1.0:
        raise ValueError("confidence level must lie in [0, 1)")
    if fit.boundary:
        raise ValueError("confidence interval undefined for a boundary fit")
    if np.any(~np.isfinite(fit.std_err)):
        raise ValueError("information singular")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = z * fit.std_err
    return np.column_stack([fit.theta_hat - half, fit.theta_hat + half])
