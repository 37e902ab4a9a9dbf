"""Censored-data likelihood and the box-constrained maximum likelihood fit.

Because the up/down law of the jump chain depends only on the pre-transition
state, a path enters the likelihood solely through per-state counts of up and
down moves.  Every function here reduces the path to those counts once, so a
likelihood evaluation costs O(number of distinct states), not O(path length);
``fit_mle`` and ``score`` also take the counts themselves, the
``(n_up, n_down)`` pair of ``transition_counts``.  A fit tabulates states,
thresholds and counts once and scores its scan of 65 points per axis
(65**dim in all) in one call on a (theta x state) table; every dimension
then takes the same projected Newton polish.

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
from statistics import NormalDist
from typing import NamedTuple, Optional, Union

import numpy as np

from .model import (ModelConfig, StateTable, ValueFamily, _d2p, _dp, _golden_search, _jump_law,
                    _threshold)
from .simulator import QueuePath, _state_counts


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
    return _state_counts(path.states)


# States whose up-probability is this small contribute less than double
# precision can register to the score and information; including them only
# manufactures 0/0 from underflowed intermediates.
_P_FLOOR = 1e-150


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
    sums = [values[a:b, :m].sum(axis=1) for a, b, m in runs]
    return sums[0] if len(sums) == 1 else np.concatenate(sums)


# What a request needs at its points: the log-likelihood; also the effective
# sample; also the score and the information
_LOGLIK, _EFFECTIVE, _DERIVATIVES = 0, 1, 2


class _Likelihood:
    """The likelihood of a path, or of its transition counts, on the states q >= 1 it left.

    Holds their thresholds and up/down counts and k, the number of
    transitions counted.  The log-likelihood sums the states somebody joins
    (p_up > 0); a state nobody joins adds log 1 = 0 per down-move, or makes
    an up-move impossible.  The effective sample counts the informative
    states only.  Its values come from a one-replication _Batch; theta is
    validated by the family's row methods.
    """

    def __init__(self, data: Union[QueuePath, _Counts], cfg: ModelConfig, fam: ValueFamily):
        counts = transition_counts(data) if isinstance(data, QueuePath) else data
        n_up, n_down = np.asarray(counts[0]), np.asarray(counts[1])
        self.q = np.flatnonzero(n_up[1:] + n_down[1:]) + 1
        self.thresholds = _threshold(self.q, cfg)
        self.up, self.down = n_up[self.q], n_down[self.q]
        self.k, self.cfg, self.fam = int(n_up.sum() + n_down.sum()), cfg, fam

    def _at(self, thetas, need=_EFFECTIVE) -> _Values:
        thetas = np.asarray(thetas, dtype=float).reshape(-1, self.fam.dim)
        n = len(thetas)
        return _Batch([self]).evaluate(np.zeros(n, dtype=int), thetas, need)

    def loglik(self, theta) -> float:
        return float(self._at(theta).loglik[0])

    def scan(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """loglik and the effective sample at each row of an (n, dim) array, from one table."""
        values = self._at(thetas)
        return values.loglik, values.effective

    def effective(self, theta) -> int:
        return int(self._at(theta).effective[0])

    def score(self, theta) -> np.ndarray:
        return self._at(theta, _DERIVATIVES).score[0]

    def information(self, theta) -> np.ndarray:
        return self._at(theta, _DERIVATIVES).information[0]


class _Batch:
    """The likelihoods of several replications, scored together.

    Replication i's thresholds and counts fill the first m[i] columns of
    (replications x max m) tables.  The rest of its row repeats the
    threshold of its first state, with counts 0: it joins, is informative
    and is floored as that state is, so a test over a whole row is one over
    the replication's states.  Only sums need the row's own m[i] columns.
    """

    def __init__(self, liks: list):
        self.cfg, self.fam = liks[0].cfg, liks[0].fam
        self.m = np.array([lik.q.size for lik in liks])
        self.k = np.array([lik.k for lik in liks])
        shape = (len(liks), int(self.m.max()))
        self.thresholds = np.empty(shape)
        self.up, self.down = np.zeros(shape), np.zeros(shape)  # float counts, exact below 2**53
        for i, lik in enumerate(liks):
            m = lik.q.size
            self.thresholds[i] = lik.thresholds[0] if m else _threshold(1, self.cfg)
            self.thresholds[i, :m] = lik.thresholds
            self.up[i, :m], self.down[i, :m] = lik.up, lik.down

    def evaluate(self, reps, thetas, need=_LOGLIK) -> _Values:
        """The likelihood of replication reps[i] at thetas[i], for each point i, from one table.

        need asks for the log-likelihood (_LOGLIK), also the effective
        sample (_EFFECTIVE) or also the score and information
        (_DERIVATIVES).  Each value is the one-point computation's bit for
        bit: each point's terms are summed over its own states alone
        (_state_sums), over the states somebody joins when some are not,
        and over the floored states when some are not.  Points ordered by
        state count form few runs.
        """
        cfg, fam = self.cfg, self.fam
        lengths = self.m[reps]
        if len(self.m) > 1:
            r, up, down = self.thresholds[reps], self.up[reps], self.down[reps]
        else:  # one replication: its row broadcasts
            r, up, down = self.thresholds, self.up, self.down
        surv = fam.sf_rows(r, thetas)
        lam_q = cfg.lam * surv
        p_up, p_down, informative = _jump_law(lam_q, surv, cfg.mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms_up, terms_down = up * np.log(p_up), down * np.log(p_down)
        runs = _runs(lengths)
        loglik = _state_sums(terms_up, runs) + _state_sums(terms_down, runs)
        joins = p_up > 0.0
        if not joins.all():
            for i in np.flatnonzero(~joins.all(axis=1)):  # summed over the states somebody joins
                states, some = slice(lengths[i]), joins[i, :lengths[i]]
                loglik[i] = terms_up[i, states][some].sum() + terms_down[i, states][some].sum()
            # an up-move from a state nobody joins is impossible under theta
            loglik[((p_up == 0.0) & (up > 0)).any(axis=1)] = -np.inf
        if need < _EFFECTIVE:
            return _Values(loglik)
        effective = np.where(informative, up + down, 0).sum(axis=1)
        if need < _DERIVATIVES:
            return _Values(loglik, effective)

        grad = fam.grad_cdf_rows(r, thetas)
        denom = cfg.mu + lam_q
        dp, d2p = _dp(cfg, denom, grad), _d2p(cfg, denom, grad, fam.hess_cdf_rows(r, thetas))
        outer = np.einsum("...j,...l->...jl", dp, dp)
        live = informative & (p_up > _P_FLOOR)
        up, down, p_up, p_down = up[..., None], down[..., None], p_up[..., None], p_down[..., None]
        with np.errstate(all="ignore"):  # at states below the floor, dropped below
            terms = (
                up * (dp / p_up) - down * (dp / p_down),
                up[..., None] * (d2p / p_up[..., None] - outer / p_up[..., None]**2)
                - down[..., None] * (d2p / p_down[..., None] + outer / p_down[..., None]**2),
            )
        sums = [_state_sums(t, runs) for t in terms]
        for i in np.flatnonzero(live.any(axis=1) & ~live.all(axis=1)):
            keep = live[i, :lengths[i]]
            for total, t in zip(sums, terms):
                total[i] = t[i, :lengths[i]][keep].sum(axis=0)
        # a point with no floored state keeps score and information 0
        some, k = live.any(axis=1) & (lengths > 0), self.k[reps]
        score, information = np.zeros(sums[0].shape), np.zeros(sums[1].shape)
        score[some] = sums[0][some] / k[some, None]
        information[some] = -(sums[1][some] / k[some, None, None])
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
    return _Likelihood(path, cfg, fam).loglik(theta)


def score(data: Union[QueuePath, _Counts], theta, cfg: ModelConfig, fam: ValueFamily) -> np.ndarray:
    """Normalized score: gradient of log-likelihood over the full step count.

    ``data`` is a path or its ``transition_counts``.
    """
    theta = fam.param_space.require(theta)
    return _Likelihood(data, cfg, fam).score(theta)


def observed_information(
    path: QueuePath, theta, cfg: ModelConfig, fam: ValueFamily
) -> np.ndarray:
    """Negative Jacobian of the normalized score at theta."""
    theta = fam.param_space.require(theta)
    return _Likelihood(path, cfg, fam).information(theta)


def score_outer_product(
    path: QueuePath, theta, cfg: ModelConfig, fam: ValueFamily
) -> np.ndarray:
    """Outer-product-of-scores information estimate (cross-check utility).

    Converges to the same limit as the observed information at the true
    parameter; the plug-in covariance in FitResult uses the observed
    information, this one is for comparison.
    """
    theta = fam.param_space.require(theta)
    lik = _Likelihood(path, cfg, fam)
    tab = StateTable(lik.q, theta, cfg, fam)
    live = tab.informative & (tab.p_up > _P_FLOOR)
    if not live.any():
        return np.zeros((fam.dim, fam.dim))
    per_up, per_down = tab.dp[live] / tab.p_up[live, None], tab.dp[live] / tab.p_down[live, None]
    return (
        np.einsum("q,qj,ql->jl", lik.up[live].astype(float), per_up, per_up)
        + np.einsum("q,qj,ql->jl", lik.down[live].astype(float), per_down, per_down)
    ) / lik.k


PARAM_TOL = 1e-10
SCORE_RTOL = 1e-8
_FIT_DEPTH = 4  # golden steps a one-parameter fit scores per round: 15 points (measured)


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


def _scan_grid(space) -> np.ndarray:
    """The fit's scan: 65 points per axis of the box, (65**dim, dim)."""
    axes = np.linspace(space.lower, space.upper, 65)
    return np.stack(np.meshgrid(*axes.T, indexing="ij"), axis=-1).reshape(-1, space.dim)


def _fitting(k: int, fam: ValueFamily, grid: np.ndarray):
    """fit_mle's search for one replication of k transitions, as a generator of requests.

    grid is _scan_grid's.  Each request is (thetas, need): an (n, dim) array
    of points and what they need (_LOGLIK, _EFFECTIVE or _DERIVATIVES).  The
    _Values of those points is sent back.  The generator returns the
    FitResult, or raises fit_mle's ValueError.
    """
    space = fam.param_space
    if k == 0:
        raise ValueError("path has no transitions")
    scan = yield grid, _EFFECTIVE
    if not scan.effective.any():
        raise ValueError("no informative transitions in the path")
    tol = PARAM_TOL * space.width
    if fam.dim == 1:
        search = _golden_search(grid[:, 0], scan.loglik, tol[0], _FIT_DEPTH)
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
    )


def _fit_batch(datas, cfg: ModelConfig, fam: ValueFamily) -> list:
    """fit_mle of each of datas (paths or transition counts), their searches in lockstep.

    Each round answers the pending requests with one _Batch.evaluate call
    per need, the replications ordered by their number of states, and every
    result is fit_mle's bit for bit.  When fits raise, the error of the
    first of them in the order of datas is raised.
    """
    batch = _Batch([_Likelihood(data, cfg, fam) for data in datas])
    order = np.argsort(batch.m, kind="stable").tolist()
    grid = _scan_grid(fam.param_space)
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
        asked, asks = asks, {}
        for need in sorted({need for _, need in asked.values()}):
            reps = [i for i in order if asked.get(i, (None, None))[1] == need]
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
    through ``fam.sf_rows``; its values equal log_likelihood's.  One
    parameter refines the best point by golden section, _FIT_DEPTH steps
    per call; more start from it.
    A projected Newton polish on the score and information follows.  A
    coordinate whose bound does as well up to round-off is moved there, and
    a solution within model.BOUNDARY_RTOL (1e-6) of the box width of any
    bound is flagged as a boundary fit rather than an error.  The search
    takes no starting point.  This is _fit_batch for one replication.
    """
    return _fit_batch([data], cfg, fam)[0]



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
