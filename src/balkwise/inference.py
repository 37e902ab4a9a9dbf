"""Censored-data likelihood and the box-constrained maximum likelihood fit.

Because the up/down law of the jump chain depends only on the pre-transition
state, a path enters the likelihood solely through per-state counts of up and
down moves.  Every function here reduces the path to those counts once, so a
likelihood evaluation costs O(number of distinct states), not O(path length).
A fit tabulates states, thresholds and counts once and scores the 65 theta
of its bracket scan in one call on a (theta x state) table.

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

import numpy as np
from scipy.optimize import minimize

from .model import ModelConfig, StateTable, ValueFamily, _jump_law, _threshold, grid_then_golden
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


def transition_counts(path: QueuePath) -> tuple[np.ndarray, np.ndarray]:
    """Per-state counts of up and down moves (indexed by pre-state)."""
    pre = path.pre_states
    size = int(pre.max()) + 1 if len(pre) else 1
    counts = np.bincount(2 * pre + path.ups, minlength=2 * size)
    return counts[1::2], counts[0::2]


# States whose up-probability is this small contribute less than double
# precision can register to the score and information; including them only
# manufactures 0/0 from underflowed intermediates.
_P_FLOOR = 1e-150


class _Likelihood:
    """A path's likelihood on the states q >= 1 it left, tabulated once per fit.

    Holds their thresholds and up/down counts; at each theta only the
    survival is evaluated (the derivatives build a StateTable).  The
    log-likelihood sums the states somebody joins (p_up > 0); a state nobody
    joins adds log 1 = 0 per down-move, or makes an up-move impossible.  The
    effective sample counts the informative states only.  theta is validated
    by ``fam.sf``/``sf_rows``.
    """

    def __init__(self, path: QueuePath, cfg: ModelConfig, fam: ValueFamily):
        n_up, n_down = transition_counts(path)
        self.q = np.flatnonzero(n_up[1:] + n_down[1:]) + 1
        self.thresholds = _threshold(self.q, cfg)
        self.up, self.down = n_up[self.q], n_down[self.q]
        self.has_up = self.up > 0
        self.k, self.cfg, self.fam = len(path), cfg, fam

    def _law(self, surv):
        """p_up, p_down and the live mask, from survivals at the thresholds."""
        surv = np.asarray(surv, dtype=float)
        return _jump_law(self.cfg.lam * surv, surv, self.cfg.mu)

    def loglik(self, theta) -> float:
        p_up, p_down, _ = self._law(self.fam.sf(self.thresholds, theta))
        # an up-move from a state nobody joins is impossible under theta
        if (p_up[self.has_up] == 0.0).any():
            return -np.inf
        joins = p_up > 0.0
        return float(
            (self.up[joins] * np.log(p_up[joins])).sum()
            + (self.down[joins] * np.log(p_down[joins])).sum()
        )

    def scan(self, thetas) -> np.ndarray:
        """loglik at each row of an (n, dim) array, from one (theta x state) table.

        Row sums add loglik's terms in its order; a row with a state nobody
        joins is summed over the other states alone, as loglik sums it.
        """
        p_up, p_down, _ = self._law(self.fam.sf_rows(self.thresholds, thetas))
        with np.errstate(divide="ignore", invalid="ignore"):
            up, down = self.up * np.log(p_up), self.down * np.log(p_down)
        out = up.sum(axis=1) + down.sum(axis=1)
        joins = p_up > 0.0
        for i in np.flatnonzero(~joins.all(axis=1)):
            out[i] = up[i][joins[i]].sum() + down[i][joins[i]].sum()
        out[(p_up[:, self.has_up] == 0.0).any(axis=1)] = -np.inf
        return out

    def effective(self, theta) -> int:
        live = self._law(self.fam.sf(self.thresholds, theta))[2]
        return int((self.up + self.down)[live].sum())

    def floored(self, theta):
        """Table and live states with p_up above _P_FLOOR, their counts and p_up/p_down; or None."""
        tab = StateTable(self.q, theta, self.cfg, self.fam)
        live = tab.informative & (tab.p_up > _P_FLOOR)
        if not live.any():
            return None
        return tab, live, self.up[live], self.down[live], tab.p_up[live, None], tab.p_down[live, None]

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


def score(path: QueuePath, theta, cfg: ModelConfig, fam: ValueFamily) -> np.ndarray:
    """Normalized score: gradient of log-likelihood over the full step count."""
    theta = fam.param_space.require(theta)
    return _Likelihood(path, cfg, fam).score(theta)


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


def fit_mle(path: QueuePath, cfg: ModelConfig, fam: ValueFamily) -> FitResult:
    """Maximize the log-likelihood over the parameter box.

    One-dimensional families use a bracket scan plus golden-section search
    followed by a safeguarded Newton polish on the score; multivariate
    families use multi-start projected quasi-Newton (L-BFGS-B, five starts).
    The search covers the whole box and takes no starting point: the
    L-BFGS-B starts are the box center and four points drawn from a fixed
    seed.  A solution within model.BOUNDARY_RTOL (1e-6) of the box width of
    any bound is flagged as a boundary fit rather than an error.  The 65-point
    scan is scored in one call through ``fam.sf_rows``; its values equal
    log_likelihood's.
    """
    if len(path) == 0:
        raise ValueError("path has no transitions")
    space = fam.param_space
    lik = _Likelihood(path, cfg, fam)
    if lik.effective(space.center) == 0:
        raise ValueError("no informative transitions in the path")

    k = lik.k

    if fam.dim == 1:
        lo, hi = float(space.lower[0]), float(space.upper[0])
        width = hi - lo

        def f(x):
            return lik.loglik(np.array([x]))

        x = grid_then_golden(
            f, lo, hi, 65, PARAM_TOL * width, scan=lambda xs: lik.scan(xs[:, None])
        )

        # Newton polish on the score, clamped to the box
        fx = f(x)
        for _ in range(60):
            g = lik.score(np.array([x]))[0]
            if abs(g) <= SCORE_RTOL * max(1.0, abs(fx)):
                break
            h = lik.information(np.array([x]))[0, 0]
            if h <= 0:
                break
            x_new = min(max(x + g / h, lo), hi)
            f_new = f(x_new)
            if f_new < fx or abs(x_new - x) < PARAM_TOL * width:
                x = x_new if f_new >= fx else x
                break
            x, fx = x_new, f_new

        # A monotone likelihood flattens out in floating point (log(1-p)
        # rounds to 0 once p underflows), so an interior plateau point can
        # masquerade as a maximum.  When a box endpoint does at least as well
        # up to round-off, the data cannot tell them apart: report the bound.
        fx = f(x)
        flat = 1e-12 * max(1.0, abs(fx))
        f_lo, f_hi = f(lo), f(hi)
        if max(f_lo, f_hi) >= fx - flat:
            x = hi if f_hi >= f_lo else lo
        theta_hat = np.array([x])
    else:
        rng = np.random.default_rng(0)
        starts = [space.center]
        starts += [
            space.lower + (0.1 + 0.8 * rng.random(fam.dim)) * space.width for _ in range(4)
        ]

        def negloglik(t):
            return -lik.loglik(t)

        def neggrad(t):
            return -k * lik.score(t)

        best_res = None
        for start in starts:
            res = minimize(
                negloglik,
                start,
                jac=neggrad,
                method="L-BFGS-B",
                bounds=list(zip(space.lower, space.upper)),
            )
            if best_res is None or res.fun < best_res.fun:
                best_res = res
        theta_hat = space.clip(best_res.x)

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
