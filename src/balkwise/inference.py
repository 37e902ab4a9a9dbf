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
from typing import Union

import numpy as np

from .model import ModelConfig, StateTable, ValueFamily, _jump_law, _threshold, grid_then_golden
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


class _Likelihood:
    """The likelihood of a path, or of its transition counts, on the states q >= 1 it left.

    Holds their thresholds and up/down counts, tabulated once per fit, and
    k, the number of transitions counted.  The StateTable of the last theta
    and its floored states are kept, so the value, score, information and
    effective sample at one theta share them; the key is theta's value, not
    the array, which the fit changes in place.  The log-likelihood sums the
    states somebody joins (p_up > 0); a state nobody joins adds log 1 = 0
    per down-move, or makes an up-move impossible.  The effective sample
    counts the informative states only.  theta is validated by
    ``fam.sf``/``sf_rows``.
    """

    def __init__(self, data: Union[QueuePath, _Counts], cfg: ModelConfig, fam: ValueFamily):
        counts = transition_counts(data) if isinstance(data, QueuePath) else data
        n_up, n_down = np.asarray(counts[0]), np.asarray(counts[1])
        self.q = np.flatnonzero(n_up[1:] + n_down[1:]) + 1
        self.thresholds = _threshold(self.q, cfg)
        self.up, self.down = n_up[self.q], n_down[self.q]
        self.has_up = self.up > 0
        self.k, self.cfg, self.fam = int(n_up.sum() + n_down.sum()), cfg, fam
        self._key = self._tab = self._floored_tab = self._floored = None

    def _table(self, theta) -> StateTable:
        key = np.asarray(theta, dtype=float).tobytes()
        if key != self._key:
            self._key = key
            self._tab = StateTable(self.q, np.array(theta, dtype=float), self.cfg, self.fam)
        return self._tab

    def loglik(self, theta) -> float:
        """Log-likelihood at theta; no mask is built when every state is joined."""
        tab = self._table(theta)
        p_up, p_down = tab.p_up, tab.p_down
        joins = p_up > 0.0
        if joins.all():
            joins = slice(None)  # the same terms in the same order, unmasked
        elif (p_up[self.has_up] == 0.0).any():
            return -np.inf  # an up-move from a state nobody joins is impossible under theta
        return float(
            (self.up[joins] * np.log(p_up[joins])).sum()
            + (self.down[joins] * np.log(p_down[joins])).sum()
        )

    def scan(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """loglik at each row of an (n, dim) array, and the table's live mask.

        Both come from one (theta x state) table.  Row sums add loglik's
        terms in its order; a row with a state nobody joins is summed over
        the other states alone, as loglik sums it.  So each value is
        loglik's, bit for bit, and the fit's golden phase scores on it.  The
        (n, states) mask marks the informative states at each row, as
        ``effective`` counts them.
        """
        surv = self.fam.sf_rows(self.thresholds, thetas)
        p_up, p_down, live = _jump_law(self.cfg.lam * surv, surv, self.cfg.mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            up, down = self.up * np.log(p_up), self.down * np.log(p_down)
        out = up.sum(axis=1) + down.sum(axis=1)
        joins = p_up > 0.0
        for i in np.flatnonzero(~joins.all(axis=1)):
            out[i] = up[i][joins[i]].sum() + down[i][joins[i]].sum()
        out[(p_up[:, self.has_up] == 0.0).any(axis=1)] = -np.inf
        return out, live

    def effective(self, theta) -> int:
        return int((self.up + self.down)[self._table(theta).informative].sum())

    def floored(self, theta):
        """Table and live states with p_up above _P_FLOOR, their counts and p_up/p_down; or None."""
        tab = self._table(theta)
        if tab is not self._floored_tab:
            live = tab.informative & (tab.p_up > _P_FLOOR)
            self._floored_tab, self._floored = tab, (
                (tab, live, self.up[live], self.down[live], tab.p_up[live, None],
                 tab.p_down[live, None]) if live.any() else None)
        return self._floored

    def score(self, theta) -> np.ndarray:
        floored = self.floored(theta)
        if floored is None:
            return np.zeros(self.fam.dim)
        tab, live, up, down, p_up, p_down = floored
        dp = tab.dp[live]
        return (up[:, None] * (dp / p_up) - down[:, None] * (dp / p_down)).sum(axis=0) / self.k

    def information(self, theta) -> np.ndarray:
        floored = self.floored(theta)
        if floored is None:
            return np.zeros((self.fam.dim, self.fam.dim))
        tab, live, up, down, p_up, p_down = floored
        p_up, p_down = p_up[..., None], p_down[..., None]
        dp, d2p = tab.dp[live], tab.d2p[live]
        outer = np.einsum("qj,ql->qjl", dp, dp)
        up_term = d2p / p_up - outer / p_up**2
        down_term = d2p / p_down + outer / p_down**2
        jac = (up[:, None, None] * up_term - down[:, None, None] * down_term).sum(axis=0) / self.k
        return -jac


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
    floored = lik.floored(theta)
    if floored is None:
        return np.zeros((fam.dim, fam.dim))
    tab, live, up, down, p_up, p_down = floored
    per_up, per_down = tab.dp[live] / p_up, tab.dp[live] / p_down
    return (
        np.einsum("q,qj,ql->jl", up.astype(float), per_up, per_up)
        + np.einsum("q,qj,ql->jl", down.astype(float), per_down, per_down)
    ) / lik.k


PARAM_TOL = 1e-10
SCORE_RTOL = 1e-8
_FIT_DEPTH = 4  # golden steps a one-parameter fit scores per scan call: 15 points (measured)


def _round_off(f: float) -> float:
    """Log-likelihood differences this small are round-off at the value f."""
    return 1e-12 * max(1.0, abs(f))


def fit_mle(data: Union[QueuePath, _Counts], cfg: ModelConfig, fam: ValueFamily) -> FitResult:
    """Maximize the log-likelihood over the parameter box, in any dimension.

    ``data`` is a path or its ``transition_counts``; both give the same fit.

    A scan of 65 points per axis (65**dim in all) is scored in one call
    through ``fam.sf_rows``; its values equal log_likelihood's.  One
    parameter refines the best point by golden section, _FIT_DEPTH steps
    per scan call; more start from it.
    A projected Newton polish on the score and information follows.  A
    coordinate whose bound does as well up to round-off is moved there, and
    a solution within model.BOUNDARY_RTOL (1e-6) of the box width of any
    bound is flagged as a boundary fit rather than an error.  The search
    takes no starting point.
    """
    space = fam.param_space
    lik = _Likelihood(data, cfg, fam)
    k = lik.k
    if k == 0:
        raise ValueError("path has no transitions")
    axes = np.linspace(space.lower, space.upper, 65)
    grid = np.stack(np.meshgrid(*axes.T, indexing="ij"), axis=-1).reshape(-1, fam.dim)
    values, live = lik.scan(grid)
    if not live.any():
        raise ValueError("no informative transitions in the path")
    tol = PARAM_TOL * space.width
    if fam.dim == 1:
        lo, hi = float(space.lower[0]), float(space.upper[0])
        x = np.array([grid_then_golden(
            lambda ts: values, lo, hi, 65, tol[0],
            lambda ts: lik.scan(np.array(ts)[:, None])[0], _FIT_DEPTH,
        )])
    else:
        x = grid[np.argmax(values)].copy()

    # Projected Newton polish (Bertsekas 1982): a coordinate at a bound the
    # score pushes against stays fixed.  Only a golden-refined start, already
    # resolved to PARAM_TOL, may stop on the relative score test.
    refined, fx = fam.dim == 1, lik.loglik(x)
    for _ in range(60):
        g = lik.score(x)
        free = ~((x <= space.lower) & (g < 0) | (x >= space.upper) & (g > 0))
        if not g[free].any() or refined and np.linalg.norm(g) <= SCORE_RTOL * max(1.0, abs(fx)):
            break
        w, v = np.linalg.eigh(lik.information(x)[np.ix_(free, free)])
        if w[0] == 0.0:
            break
        # an indefinite information is shifted to a positive definite one
        step = np.zeros(fam.dim)
        step[free] = v @ (v.T @ g[free] / (w - 2.0 * min(w[0], 0.0)))
        for halving in range(60):
            x_new = space.clip(x + step)
            f_new = lik.loglik(x_new)
            # a halved step must gain more than round-off
            up = f_new > fx + _round_off(fx) if halving else f_new >= fx
            small = bool(np.all(np.abs(x_new - x) < tol))
            if up or small:
                break
            step = step / 2
        if up:
            x, fx = x_new, f_new
        if small or not up:
            break

    # A monotone likelihood flattens out in floating point (log(1-p) rounds
    # to 0 once p underflows), so an interior plateau point can masquerade as
    # a maximum.  When a coordinate's bound does at least as well up to
    # round-off, the data cannot tell them apart: report the bound.
    fx = lik.loglik(x)
    for j in range(fam.dim):
        at_j = np.arange(fam.dim) == j
        ends = [lik.loglik(np.where(at_j, b, x)) for b in (space.lower[j], space.upper[j])]
        if max(ends) >= fx - _round_off(fx):
            x[j] = space.upper[j] if ends[1] >= ends[0] else space.lower[j]
            fx = max(ends)
    theta_hat = x

    boundary = space.on_boundary(theta_hat)
    final_loglik = lik.loglik(theta_hat)
    final_score = lik.score(theta_hat)
    info = lik.information(theta_hat)
    std_err = np.full(fam.dim, np.nan)
    try:
        cov = np.linalg.inv(info) / k
        diag = np.diag(cov)
        if np.all(diag > 0):
            std_err = np.sqrt(diag)
    except np.linalg.LinAlgError:
        pass
    return FitResult(
        theta_hat=theta_hat,
        loglik=final_loglik,
        score_norm=float(np.linalg.norm(final_score)),
        boundary=boundary,
        effective_n=lik.effective(theta_hat),
        total_k=k,
        sigma_plugin=info,
        std_err=std_err,
    )


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
