"""Shared test utilities: hand-built paths, reference walks, a reference golden
section and extra value families."""

from __future__ import annotations

import numpy as np

from balkwise.model import ParamSpace, StateTable, ValueFamily
from balkwise.simulator import QueuePath


def make_path(states, holds=None, price: float = 0.0) -> QueuePath:
    """QueuePath from a raw state sequence (unit holds unless given)."""
    states = np.asarray(states, dtype=np.int64)
    ups = states[1:] > states[:-1]
    if holds is None:
        holds = np.ones(len(ups))
    holds = np.asarray(holds, dtype=float)
    return QueuePath(
        states=states,
        ups=ups,
        holds=holds,
        revenue=price * int(ups.sum()),
        total_time=float(holds.sum()),
    )


def reference_path(rng, start: int, warmup: int, steps: int, theta, cfg, fam) -> QueuePath:
    """``build_path`` the plain way: one step at a time, on one table of every reachable state.

    Draws the same numbers in the same order (one uniform per transition,
    then one standard exponential per kept transition), so it is the oracle
    that any faster walk must match exactly.
    """
    draws = rng.random(warmup + steps).tolist()
    table = StateTable(np.arange(start + warmup + steps + 1), theta, cfg, fam)
    p_up = table.p_up.tolist()
    q, states = start, [start]
    for u in draws:
        q = q + 1 if q == 0 or u < p_up[q] else q - 1
        states.append(q)
    states = np.asarray(states[warmup:], dtype=np.int64)
    pre = states[:-1]
    exit_rates = np.where(pre > 0, table.lam_q[pre] + cfg.mu, table.lam_q[0])
    holds = rng.standard_exponential(steps) / exit_rates
    ups = states[1:] > pre
    return QueuePath(states, ups, holds, cfg.price * int(ups.sum()), float(holds.sum()))


def reference_walks(rng, chains: int, start: int, warmup: int, steps: int, theta, cfg, fam) -> np.ndarray:
    """``reference_path``'s walk for ``chains`` chains at once; row i holds chain i's Q_0..Q_steps.

    Chain i walks on row i of one (chains, warmup + steps) array of
    uniforms, so chain 0 walks exactly as ``reference_path`` does on the
    same generator.  All chains take each step together, one numpy step
    per transition.
    """
    draws = rng.random((chains, warmup + steps)).T.copy()  # one row per step
    p_up = StateTable(np.arange(start + warmup + steps + 1), theta, cfg, fam).p_up  # 1 at q = 0
    q = np.full(chains, start, dtype=np.int64)
    states = np.empty((steps + 1, chains), dtype=np.int64)
    for i, u in enumerate(draws):
        if i >= warmup:
            states[i - warmup] = q
        q += np.where(u < p_up[q], 1, -1)
    states[steps] = q
    return states.T


class UniformValueFamily(ValueFamily):
    """Service values uniform on [theta, theta + width]; parameter is the offset.

    Attains cdf values of exactly 0 (below the support) and 1 (above it), so
    it exercises the structurally-deterministic transition handling that the
    exponential family never reaches.
    """

    def __init__(self, width: float, lower: float, upper: float):
        self.width = float(width)
        self.param_space = ParamSpace([lower], [upper])

    def _survival(self, r, theta):
        return 1.0 - np.clip((r - theta[..., 0, None]) / self.width, 0.0, 1.0)

    def _cdf_derivatives(self, r, theta):
        loc = theta[..., 0, None]
        grad = np.where((r > loc) & (r < loc + self.width), -1.0 / self.width, 0.0)
        return grad[..., None], np.zeros(grad.shape + (1, 1))

    def quantile(self, u, theta):
        loc = self.param_space.require(theta)[0]
        return loc + u * self.width


class WeibullValueFamily(ValueFamily):
    """Weibull service values, theta = (shape, scale): sf = exp(-(r / scale)^shape).

    A two-parameter family with closed-form cdf derivatives, for fits in
    more than one dimension and for information matrices with off-diagonal
    entries.
    """

    def __init__(self, lower, upper):
        self.param_space = ParamSpace(lower, upper)

    @staticmethod
    def _u(r, theta):
        """shape, scale (columns), u = (r/scale)^shape and log(r/scale), taken as 0 where u is 0.

        u is capped at e^7, past which exp(-u) is 0 and every derivative a
        signed 0 anyway: u**2 stays finite up to r = 1e300.
        """
        shape, scale = theta[..., 0, None], theta[..., 1, None]
        ratio = r / scale
        positive = ratio > 0.0
        log_ratio = np.log(np.where(positive, ratio, 1.0))
        u = np.where(positive, np.exp(np.minimum(shape * log_ratio, 7.0)), 0.0)
        return shape, scale, u, log_ratio

    def cdf(self, r, theta):
        # -expm1 keeps the small values that 1 - sf rounds away, which the generic quantile reads
        out = -np.expm1(-self._u(np.asarray(r, dtype=float), self.param_space.require(theta))[2])
        return float(out[0]) if np.ndim(r) == 0 else out

    def _survival(self, r, theta):
        return np.exp(-self._u(r, theta)[2])

    def _cdf_derivatives(self, r, theta):
        shape, scale, u, log_ratio = self._u(r, theta)
        # d cdf = exp(-u) du, with du/dshape = u log(r/scale), du/dscale = -shape u / scale
        du = np.stack([u * log_ratio, -shape * u / scale], axis=-1)
        d2u = np.empty(u.shape + (2, 2))
        d2u[..., 0, 0] = u * log_ratio**2
        d2u[..., 0, 1] = d2u[..., 1, 0] = -(u / scale) * (shape * log_ratio + 1.0)
        d2u[..., 1, 1] = shape * (shape + 1.0) * u / scale**2
        # d2 cdf = exp(-u) (d2u - du du^T)
        decay = np.exp(-u)
        hess = decay[..., None, None] * (d2u - du[..., :, None] * du[..., None, :])
        return decay[..., None] * du, hess


def golden_one_point_at_a_time(func, lo, hi, grid, tol, scan=None):
    """Reference for model.grid_then_golden: the search with one func call per golden step.

    ``scan``, when given, scores the grid points in one call.
    """
    points = np.linspace(lo, hi, grid)
    values = scan(points) if scan is not None else [func(p) for p in points]
    best = int(np.argmax(values))
    a, b = points[max(best - 1, 0)], points[min(best + 1, grid - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = func(x1), func(x2)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = func(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = func(x1)
    return 0.5 * (a + b)


def exponential_survival_oracle(r, theta):
    """ExponentialFamily._survival in its masked form, the oracle its kernel must equal bit for bit."""
    return np.where(r >= 0.0, np.exp(-theta[..., 0, None] * np.maximum(r, 0.0)), 1.0)


def exponential_cdf_derivatives_oracle(r, theta):
    """ExponentialFamily._cdf_derivatives with its decay in the masked form, likewise."""
    decay, joins = np.exp(-theta[..., 0, None] * np.maximum(r, 0.0)), r >= 0.0
    hess = np.where(joins, -(np.where(decay > 0.0, r, 0.0) ** 2) * decay, 0.0)  # 0 decay: -0
    return np.where(joins, r * decay, 0.0)[..., None], hess[..., None, None]
