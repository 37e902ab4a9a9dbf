"""Economic and queueing primitives for an observable single-server queue.

Customers arrive at rate ``lam``, are served at rate ``mu``, pay an admission
``price`` on joining and a waiting cost ``cost_c`` per unit of time in the
system.  A customer facing ``q`` people in the system joins only if their
(random) service value covers ``offered_reward(q)``, so arrivals are thinned
by the value distribution: effective arrivals form a Poisson process whose
rate depends on the queue length.  Everything downstream (simulation,
likelihoods, stationary analysis, pricing) is built on the functions here.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# A coordinate this close to a bound, relative to the box width, is on it.
BOUNDARY_RTOL = 1e-6


@dataclass(frozen=True)
class ModelConfig:
    """Economic environment of the queue.

    lam     -- arrival rate of (potential) customers, > 0
    mu      -- service rate, > 0
    cost_c  -- waiting cost per unit time in the system, > 0
    price   -- admission price charged on joining, >= 0
    """

    lam: float
    mu: float
    cost_c: float
    price: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"arrival rate must be positive, got {self.lam}")
        if not self.mu > 0:
            raise ValueError(f"service rate must be positive, got {self.mu}")
        if not self.cost_c > 0:
            raise ValueError(f"waiting cost must be positive, got {self.cost_c}")
        if not self.price >= 0:
            raise ValueError(f"price must be nonnegative, got {self.price}")

    def with_price(self, price: float) -> "ModelConfig":
        return ModelConfig(self.lam, self.mu, self.cost_c, price)


@dataclass(frozen=True)
class ParamSpace:
    """Compact box of admissible parameter vectors."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size < 1:
            raise ValueError("bounds must be 1-d arrays of equal, positive length")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be strictly below its upper bound")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def contains(self, theta) -> bool:
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        return t.shape == self.lower.shape and bool(
            (t >= self.lower).all() and (t <= self.upper).all()
        )

    def require(self, theta) -> np.ndarray:
        """Return theta as an array, raising if it falls outside the box."""
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        if not self.contains(t):
            raise ValueError(
                f"parameter {t} outside the parameter space "
                f"[{self.lower}, {self.upper}]"
            )
        return t

    def require_rows(self, thetas) -> np.ndarray:
        """The parameter rows as an (n, dim) array; a row outside the box raises as in require."""
        rows = np.asarray(thetas, dtype=float).reshape(-1, self.dim)
        if not ((rows >= self.lower).all() and (rows <= self.upper).all()):
            for row in rows:
                self.require(row)
        return rows

    def clip(self, theta) -> np.ndarray:
        return np.clip(np.atleast_1d(np.asarray(theta, dtype=float)), self.lower, self.upper)

    def on_boundary(self, theta) -> bool:
        """True when any coordinate sits within BOUNDARY_RTOL * box width of a bound."""
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        slack = BOUNDARY_RTOL * self.width
        return bool(np.any(t - self.lower <= slack) or np.any(self.upper - t <= slack))


class ValueFamily(ABC):
    """Parametric distribution of the customers' service value.

    Implementations must be immutable and safe to share across workers.
    ``cdf`` and ``sf`` accept scalar ``r`` or an array of any shape (the
    price search passes a (price x state) table) and evaluate elementwise;
    ``grad_cdf``/``hess_cdf`` return shapes ``(dim,)`` / ``(dim, dim)`` for
    scalar ``r`` and ``(m, dim)`` / ``(m, dim, dim)`` for an array of length
    ``m``.  The cdf is 0 for r < 0 by convention, nondecreasing in r, and its
    parameter derivatives must match finite differences (see the test suite).

    ``sf_rows``, ``grad_cdf_rows`` and ``hess_cdf_rows`` evaluate a batch of
    parameters: row i of an ``(n, dim)`` parameter array at row i of an
    ``(n, m)`` array r, or at one row r of shape ``(m,)`` shared by all, in
    shapes ``(n, m)``, ``(n, m, dim)`` and ``(n, m, dim, dim)``.  They call
    the one-parameter method row by row unless a family overrides them with
    one broadcast evaluation.  A row outside the box raises as in require.
    """

    param_space: ParamSpace

    @property
    def dim(self) -> int:
        return self.param_space.dim

    @abstractmethod
    def cdf(self, r, theta):
        """P(value <= r) under parameter theta."""

    def sf(self, r, theta):
        """Survival P(value > r); override when 1 - cdf loses precision."""
        return 1.0 - self.cdf(r, theta)

    @abstractmethod
    def grad_cdf(self, r, theta):
        """Gradient of the cdf with respect to the parameter vector."""

    @abstractmethod
    def hess_cdf(self, r, theta):
        """Hessian of the cdf with respect to the parameter vector."""

    def sf_rows(self, r, thetas):
        """Survival at each row of r under the matching parameter row: shape (n, m)."""
        return self._by_row(self.sf, r, thetas)

    def grad_cdf_rows(self, r, thetas):
        """grad_cdf at each row of r under the matching parameter row: shape (n, m, dim)."""
        return self._by_row(self.grad_cdf, r, thetas)

    def hess_cdf_rows(self, r, thetas):
        """hess_cdf at each row of r under the matching parameter row: shape (n, m, dim, dim)."""
        return self._by_row(self.hess_cdf, r, thetas)

    def _by_row(self, method, r, thetas):
        rows = self.param_space.require_rows(thetas)
        r = np.broadcast_to(np.asarray(r, dtype=float), (len(rows), np.shape(r)[-1]))
        return np.array([method(r_row, row) for r_row, row in zip(r, rows)], dtype=float)

    def quantile(self, u: float, theta) -> float:
        """Inverse cdf by bisection; override when a closed form exists."""
        theta = self.param_space.require(theta)
        if not 0.0 <= u < 1.0:
            raise ValueError("quantile level must lie in [0, 1)")
        lo, hi = 0.0, 1.0
        while self.cdf(hi, theta) < u:
            hi *= 2.0
            if hi > 1e300:
                raise RuntimeError("quantile bisection failed to bracket")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid, theta) < u:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-14 * max(1.0, hi):
                break
        return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ExponentialFamily(ValueFamily):
    """Exponentially distributed service values: cdf 1 - exp(-theta * r)."""

    param_space: ParamSpace = field(
        default_factory=lambda: ParamSpace(np.array([1e-3]), np.array([10.0]))
    )

    def __post_init__(self):
        if self.param_space.dim != 1:
            raise ValueError("the exponential family has a single parameter")
        if self.param_space.lower[0] <= 0:
            raise ValueError("the exponential rate must be positive")

    def cdf(self, r, theta):
        theta = self.param_space.require(theta)[0]
        r = np.asarray(r, dtype=float)
        out = np.where(r >= 0.0, -np.expm1(-theta * np.maximum(r, 0.0)), 0.0)
        return float(out) if out.ndim == 0 else out

    def _decay(self, r, theta, rows=False):
        """r as an array, and exp(-theta r) on r >= 0 for one theta or for rows paired with r's."""
        theta = self.param_space.require_rows(theta) if rows else self.param_space.require(theta)[0]
        r = np.asarray(r, dtype=float)
        return r, np.exp(-theta * np.maximum(r, 0.0))

    def sf(self, r, theta):
        r, decay = self._decay(r, theta)
        out = np.where(r >= 0.0, decay, 1.0)
        return float(out) if out.ndim == 0 else out

    def sf_rows(self, r, thetas):
        r, decay = self._decay(r, thetas, rows=True)
        return np.where(r >= 0.0, decay, 1.0)

    def grad_cdf(self, r, theta):
        r, decay = self._decay(r, theta)
        g = np.where(r >= 0.0, r * decay, 0.0)
        return np.atleast_1d(g)[..., None] if g.ndim else np.array([float(g)])

    def grad_cdf_rows(self, r, thetas):
        r, decay = self._decay(r, thetas, rows=True)
        return np.where(r >= 0.0, r * decay, 0.0)[..., None]

    def hess_cdf(self, r, theta):
        r, decay = self._decay(r, theta)
        h = np.where(r >= 0.0, -(r**2) * decay, 0.0)
        if h.ndim == 0:
            return np.array([[float(h)]])
        return h[:, None, None]

    def hess_cdf_rows(self, r, thetas):
        r, decay = self._decay(r, thetas, rows=True)
        return np.where(r >= 0.0, -(r**2) * decay, 0.0)[..., None, None]

    def quantile(self, u: float, theta) -> float:
        theta = self.param_space.require(theta)[0]
        if not 0.0 <= u < 1.0:
            raise ValueError("quantile level must lie in [0, 1)")
        return -np.log1p(-u) / theta


def _threshold(q, cfg: ModelConfig, price=None):
    # Naor's join rule: a customer who finds q others joins iff value >= this
    return (cfg.price if price is None else price) + (q + 1) * cfg.cost_c / cfg.mu


def offered_reward(q, cfg: ModelConfig):
    """Minimum service value that makes joining rational at queue length q."""
    q = np.asarray(q)
    if np.any(q < 0):
        raise ValueError("queue length must be nonnegative")
    out = _threshold(q, cfg)
    return float(out) if out.ndim == 0 else out


def _jump_law(lam_q, surv, mu):
    """p_up, p_down and informativeness of jumps out of states q >= 1 with joining rates lam_q."""
    # exactly 0 < surv < 1: bounded-support families attain 0 or 1 structurally
    denom = mu + lam_q
    return lam_q / denom, mu / denom, (surv > 0.0) & (surv < 1.0)


def _dp(cfg: ModelConfig, denom, grad):
    """Parameter gradient of p_up = lam_q / denom at q >= 1, from the cdf's at the thresholds."""
    return (-cfg.mu * cfg.lam / denom**2)[..., None] * grad


def _d2p(cfg: ModelConfig, denom, grad, hess):
    """Parameter Hessian of p_up at q >= 1, from the cdf gradient and Hessian at the thresholds."""
    return (-cfg.mu * cfg.lam / denom**3)[..., None, None] * (
        hess * denom[..., None, None] + 2.0 * cfg.lam * np.einsum("...j,...l->...jl", grad, grad)
    )


class StateTable:
    """The join rule tabulated over an array of queue lengths ``q``.

    ``thresholds`` -> survival ``surv`` -> joining rate ``lam_q`` are
    computed on construction; the up/down probabilities of the jump chain,
    the cdf gradient ``grad`` at the thresholds and the parameter
    derivatives ``dp``/``d2p`` of the up-probability are computed on first
    access, so a caller that needs only joining rates never evaluates the
    rest.  From the empty queue every transition is a join: there p_up is 1
    and its derivatives are 0.  theta is not validated here; callers do it
    once.  For m states, ``grad`` and ``dp`` have shape ``(m, dim)`` and
    ``d2p`` has shape ``(m, dim, dim)``.

    ``price`` replaces ``cfg.price`` without building a new config.  A column
    of n prices (shape ``(n, 1)``) gives ``(n, m)`` thresholds, survivals and
    joining rates, one row per price; the jump-chain properties are defined
    for a single price only.
    """

    def __init__(self, q, theta, cfg: ModelConfig, fam: ValueFamily, price=None):
        self.q = np.atleast_1d(q)
        self.theta, self.cfg, self.fam = theta, cfg, fam
        self.thresholds = _threshold(self.q, cfg, price)
        self.surv = np.asarray(fam.sf(self.thresholds, theta), dtype=float)
        self.lam_q = cfg.lam * self.surv

    @cached_property
    def _law(self):
        return _jump_law(self.lam_q, self.surv, self.cfg.mu)

    @cached_property
    def informative(self) -> np.ndarray:
        """Transitions out of q depend on theta: q > 0 and 0 < surv < 1 exactly."""
        return (self.q > 0) & self._law[2]

    @cached_property
    def _denom(self) -> np.ndarray:
        return self.cfg.mu + self.lam_q

    @cached_property
    def p_up(self) -> np.ndarray:
        return np.where(self.q == 0, 1.0, self._law[0])

    @cached_property
    def p_down(self) -> np.ndarray:
        return np.where(self.q == 0, 0.0, self._law[1])

    @cached_property
    def grad(self) -> np.ndarray:
        g = self.fam.grad_cdf(self.thresholds, self.theta)
        return np.asarray(g, dtype=float).reshape(self.q.size, self.fam.dim)

    @cached_property
    def dp(self) -> np.ndarray:
        dp = _dp(self.cfg, self._denom, self.grad)
        dp[self.q == 0] = 0.0
        return dp

    @cached_property
    def d2p(self) -> np.ndarray:
        dim = self.fam.dim
        hess = np.asarray(self.fam.hess_cdf(self.thresholds, self.theta), dtype=float)
        d2p = _d2p(self.cfg, self._denom, self.grad, hess.reshape(self.q.size, dim, dim))
        d2p[self.q == 0] = 0.0
        return d2p


def _at(q, theta, cfg: ModelConfig, fam: ValueFamily) -> StateTable:
    """Validated table behind the public per-state functions."""
    if np.any(np.asarray(q) < 0):
        raise ValueError("queue length must be nonnegative")
    return StateTable(q, fam.param_space.require(theta), cfg, fam)


def joining_rate(q, theta, cfg: ModelConfig, fam: ValueFamily):
    """Effective arrival rate at queue length q: lam * P(value >= threshold)."""
    out = _at(q, theta, cfg, fam).lam_q
    return float(out[0]) if np.ndim(q) == 0 else out


def up_probability(q: int, theta, cfg: ModelConfig, fam: ValueFamily) -> float:
    """Probability that the next transition from state q is a join.

    From an empty queue every observed transition is a join, so the
    probability is 1 regardless of the parameter.
    """
    return float(_at(q, theta, cfg, fam).p_up[0])


def up_prob_grad(q: int, theta, cfg: ModelConfig, fam: ValueFamily) -> np.ndarray:
    """Parameter gradient of the up-transition probability.

    State 0 carries no parameter dependence (the transition is deterministic),
    so the gradient there is exactly zero; this keeps sums over a whole path
    equal to sums over the informative steps.
    """
    return _at(q, theta, cfg, fam).dp[0]


def up_prob_hess(q: int, theta, cfg: ModelConfig, fam: ValueFamily) -> np.ndarray:
    """Parameter Hessian of the up-transition probability (zero matrix at q=0)."""
    return _at(q, theta, cfg, fam).d2p[0]


def is_informative(q: int, theta, cfg: ModelConfig, fam: ValueFamily) -> bool:
    """Whether a transition out of state q tells us anything about theta.

    True iff q > 0 and the balking probability at q is strictly between 0 and
    1 (see StateTable.informative).  Evaluated through the survival function
    so that a survival probability below machine epsilon (where 1 - cdf
    would round to zero) still counts as informative.
    """
    return bool(_at(q, theta, cfg, fam).informative[0])


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section ratio


def _golden_points(a: float, b: float, x1: float, x2: float, depth: int, tol: float) -> list:
    """Every point the next ``depth`` golden steps from bracket (a, b) can score.

    x1 < x2 are its inner points, both values unknown.  Both outcomes of
    each step's comparison are followed, with the loop's own arithmetic and
    stopping test: at most 2 + 4 + ... + 2**depth points.
    """
    out, level = [], [(a, b, x1, x2)]
    for _ in range(depth):
        deeper = []
        for a, b, x1, x2 in level:
            if b - a <= _width_tol(a, b, tol):
                continue
            up = x1 + _INVPHI * (b - x1)  # f1 < f2: the bracket becomes (x1, b)
            down = x2 - _INVPHI * (x2 - a)  # otherwise: (a, x2)
            out += (up, down)
            deeper += ((x1, b, x2, up), (a, x2, down, x1))
        level = deeper
    return out


def _width_tol(a: float, b: float, tol: float) -> float:
    """tol * max(1, |a| + |b|): the golden phase stops once its bracket (a, b) is this narrow."""
    scale = abs(a) + abs(b)
    return tol * (scale if scale > 1.0 else 1.0)


def grid_then_golden(scan, lo: float, hi: float, grid: int, tol: float, batch, depth: int) -> float:
    """Maximize on [lo, hi]: grid scan, then golden section in the best bracket.

    ``scan`` maps the array of grid points to their values; the grid guards
    against a misleading golden start.  The golden phase stops once the
    bracket is narrower than tol * max(1, |a| + |b|).  It is speculative
    (Kiefer 1953): each point it needs is scored in one ``batch`` call
    together with every point its next ``depth - 1`` steps can score, and
    the steps replay their comparisons from those values.  ``batch`` maps a
    list of points to their values: the first always, a later one NaN when
    it cannot be had cheaply (a NaN is scored again, first, if the search
    reaches it).  When batch gives each point the value of one function,
    the result is that of the one-point-at-a-time search on it; at depth 1
    the points scored are that search's too.  The golden phase itself is
    ``_golden_search``, which a caller that gathers the batches of many
    searches steps directly.
    """
    points = np.linspace(lo, hi, grid)
    search = _golden_search(points, scan(points), tol, depth)
    values = None
    while True:
        try:
            points = search.send(values)
        except StopIteration as stop:
            return stop.value
        values = batch(points)


def _golden_search(points, values, tol: float, depth: int):
    """grid_then_golden's golden phase as a generator, from its grid points and their values.

    The generator yields each list of points it needs scored, takes their
    values back (as grid_then_golden's ``batch`` gives them) and returns
    the maximizer.
    """
    best = int(np.argmax(values))
    a, b = float(points[max(best - 1, 0)]), float(points[min(best + 1, len(points) - 1)])
    x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    known = {}  # the last batch: no later step needs a point of an earlier one

    def value(x, a, b, x1, x2, extra=()):
        v = known.get(x, math.nan)
        if v != v:  # not scored yet, or left NaN: one batch of x, extra and the next steps' points
            ahead = [x, *extra, *_golden_points(a, b, x1, x2, depth - 1, tol)]
            values = yield ahead
            known.clear()
            known.update(zip(ahead, values))
            v = known[x]
        return v

    f1 = yield from value(x1, a, b, x1, x2, extra=[x2])
    f2 = yield from value(x2, a, b, x1, x2)
    while b - a > _width_tol(a, b, tol):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = yield from value(x2, a, b, x1, x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = yield from value(x1, a, b, x1, x2)
    return np.float64(0.5 * (a + b))
