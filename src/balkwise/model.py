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

    lam     -- arrival rate of (potential) customers, > 0 and finite
    mu      -- service rate, > 0 and finite
    cost_c  -- waiting cost per unit time in the system, > 0 and finite
    price   -- admission price charged on joining, >= 0 and finite
    """

    lam: float
    mu: float
    cost_c: float
    price: float

    def __post_init__(self):
        rates = ("arrival rate", self.lam), ("service rate", self.mu), ("waiting cost", self.cost_c)
        for what, value in rates:
            if not 0 < value < math.inf:
                raise ValueError(f"{what} must be positive and finite, got {value}")
        if not 0 <= self.price < math.inf:
            raise ValueError(f"price must be nonnegative and finite, got {self.price}")

    def with_price(self, price: float) -> "ModelConfig":
        return ModelConfig(self.lam, self.mu, self.cost_c, price)


@dataclass(frozen=True)
class ParamSpace:
    """Compact box of admissible parameter vectors: read-only copies of its bounds, equal by value."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.array(self.lower, dtype=float, ndmin=1)  # copies
        upper = np.array(self.upper, dtype=float, ndmin=1)
        lower.flags.writeable = upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "_bounds", (tuple(lower.tolist()), tuple(upper.tolist())))
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size < 1:
            raise ValueError("bounds must be 1-d arrays of equal, positive length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError(f"bounds must be finite, got [{lower}, {upper}]")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be strictly below its upper bound")

    def __eq__(self, other):
        return isinstance(other, ParamSpace) and self._bounds == other._bounds

    def __hash__(self):
        return hash(self._bounds)

    def __reduce__(self):  # a pickled or copied box is built anew: its bounds read-only again
        return ParamSpace, (self.lower, self.upper)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

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


_SPLIT = 1024  # cells each later call of _first_float splits its bracket into
_LADDER = 2 ** np.arange(62, dtype=np.int64)  # the steps of _first_float's first call


def _first_float(holds, guess: float, top: float) -> float:
    """Smallest float in [0, top] at which ``holds`` is true, or inf if it is false at top.

    ``holds`` maps a float array to bools, false and then true along [0, top].
    Nonnegative floats are ordered as their int64 bit patterns, so the search
    runs on patterns: its first call scores 0, top and those 2**j (j < 62)
    above and below the guess's, bracketing the crossing wherever the guess
    is; each later call scores _SPLIT - 1 evenly spaced ones in the bracket
    (the last cell is wider by the remainder).
    """
    top_bits = int(np.float64(top).view(np.int64))
    at = int(np.float64(min(guess, top) if guess >= 0 else 0.0).view(np.int64))  # NaN: 0
    lo, hi = -1, top_bits + 1  # holds is false at lo and true at hi, past [0, top] by definition
    bits = np.concatenate([[lo, 0], at - np.minimum(_LADDER[::-1], at), [at],
                           at + np.minimum(_LADDER, top_bits - at), [top_bits, hi]])  # ascending
    while hi - lo > 1:  # bits: lo, the patterns to score, hi
        i = len(bits) - 1 - int(np.count_nonzero(holds(bits[1:-1].view(np.float64))))  # 1st true
        lo, hi = int(bits[i - 1]), int(bits[i])
        cells = min(hi - lo, _SPLIT)
        bits = np.append(lo + (hi - lo) // cells * np.arange(cells), hi)  # no product past hi
    return math.inf if hi > top_bits else float(np.int64(hi).view(np.float64))


class ValueFamily(ABC):
    """Parametric distribution of the customers' service value.

    Implementations must be immutable and safe to share across workers.  A
    family defines two unvalidated, broadcasting kernels: ``_survival``,
    P(value > r), and ``_cdf_derivatives``, the cdf's (gradient, Hessian)
    in theta.  Each takes a float array r and a theta its caller validated:
    one ``(dim,)`` parameter for all of r, or an ``(n, dim)`` array whose
    row i pairs with row i of an ``(n, m)`` r or with one ``(m,)`` r shared
    by all (``theta[..., j, None]``, coordinate j as a column, broadcasts
    either way).  It returns the broadcast shape, plus ``(dim,)`` and
    ``(dim, dim)`` for the derivatives.  ``cdf`` (1 - sf by default) and
    ``quantile`` (a float search on the cdf) are optional overrides.  The cdf is
    0 for r < 0, nondecreasing in r, and its derivatives must match finite
    differences (see the test suite).  The public methods take one theta,
    each a require, a kernel call and a reshape: ``sf``/``cdf`` give a float
    for a scalar r, ``grad_cdf``/``hess_cdf`` r's shape plus ``(dim,)``/
    ``(dim, dim)``.  Callers with (n, dim) rows validate them once
    (ParamSpace.require_rows) and call the kernels.
    """

    param_space: ParamSpace

    @property
    def dim(self) -> int:
        return self.param_space.dim

    @abstractmethod
    def _survival(self, r, theta):
        """P(value > r) at a validated theta, broadcast as the class docstring says."""

    @abstractmethod
    def _cdf_derivatives(self, r, theta):
        """(gradient, Hessian) of the cdf in theta at a validated theta, broadcast likewise."""

    def sf(self, r, theta):
        """Survival P(value > r)."""
        r = np.asarray(r, dtype=float)
        out = self._survival(r, self.param_space.require(theta)).reshape(r.shape)
        return float(out) if out.ndim == 0 else out

    def cdf(self, r, theta):
        """P(value <= r) under parameter theta; override when 1 - sf loses precision."""
        return 1.0 - self.sf(r, theta)

    def grad_cdf(self, r, theta):
        """Gradient of the cdf with respect to the parameter vector."""
        r = np.asarray(r, dtype=float)
        grad = self._cdf_derivatives(r, self.param_space.require(theta))[0]
        return grad.reshape(r.shape + (self.dim,))

    def hess_cdf(self, r, theta):
        """Hessian of the cdf with respect to the parameter vector."""
        r = np.asarray(r, dtype=float)
        hess = self._cdf_derivatives(r, self.param_space.require(theta))[1]
        return hess.reshape(r.shape + (self.dim, self.dim))

    def quantile(self, u: float, theta) -> float:
        """Smallest r with cdf(r) >= u, inf if none (_first_float); override with a closed form."""
        if not 0.0 <= u < 1.0:
            raise ValueError("quantile level must lie in [0, 1)")
        return _first_float(lambda r: self.cdf(r, theta) >= u, 1.0, np.finfo(float).max)


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

    # perfbench/spans.py rebinds these three names from this class's own namespace
    sf, grad_cdf, hess_cdf = ValueFamily.sf, ValueFamily.grad_cdf, ValueFamily.hess_cdf

    def cdf(self, r, theta):
        r, rate = np.asarray(r, dtype=float), self.param_space.require(theta)[0]
        out = np.where(r >= 0.0, -np.expm1(-rate * np.maximum(r, 0.0)), 0.0)
        return float(out) if out.ndim == 0 else out

    def _survival(self, r, theta):
        return np.exp(-theta[..., 0, None] * np.fmax(r, 0.0))  # fmax: NaN and r < 0 give 1

    def _cdf_derivatives(self, r, theta):
        decay, joins = np.exp(-theta[..., 0, None] * np.fmax(r, 0.0)), r >= 0.0
        hess = np.where(joins, -(np.where(decay > 0.0, r, 0.0) ** 2) * decay, 0.0)  # 0 decay: -0
        return np.where(joins, r * decay, 0.0)[..., None], hess[..., None, None]

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


def _jump_law(lam_q, mu):
    """p_up, p_down and their denominator mu + lam_q, for jumps out of states q >= 1."""
    denom = mu + lam_q
    return lam_q / denom, mu / denom, denom


def _varies(surv):
    """Whether the balking probability at these survivals depends on theta: 0 < surv < 1."""
    # exactly: bounded-support families attain 0 or 1 structurally
    return (surv > 0.0) & (surv < 1.0)


def _dp(cfg: ModelConfig, denom, grad):
    """Parameter gradient of p_up = lam_q / denom at q >= 1, from the cdf's at the thresholds."""
    return (-cfg.mu * cfg.lam / denom**2)[..., None] * grad


def _d2p(cfg: ModelConfig, denom, grad, hess):
    """Parameter Hessian of p_up at q >= 1, from the cdf gradient and Hessian at the thresholds."""
    return (-cfg.mu * cfg.lam / denom**3)[..., None, None] * (
        hess * denom[..., None, None] + 2.0 * cfg.lam * np.einsum("...j,...l->...jl", grad, grad)
    )


class StateTable:
    """The join rule at ``cfg.price``, tabulated over an array of queue lengths ``q``.

    ``thresholds`` -> survival ``surv`` -> joining rate ``lam_q`` are
    computed on construction; the up/down probabilities of the jump chain,
    the cdf gradient ``grad`` at the thresholds and the parameter
    derivatives ``dp``/``d2p`` of the up-probability are computed on first
    access, so a caller that needs only joining rates never evaluates the
    rest.  From the empty queue every transition is a join: there p_up is 1
    and its derivatives are 0.  theta goes to the family's kernels as it
    is: callers validate it once.  For m states, ``grad`` and ``dp`` have
    shape ``(m, dim)`` and ``d2p`` has shape ``(m, dim, dim)``.
    """

    def __init__(self, q, theta, cfg: ModelConfig, fam: ValueFamily):
        self.q = np.atleast_1d(q)
        self.theta, self.cfg, self.fam = np.asarray(theta, dtype=float), cfg, fam
        self.thresholds = _threshold(self.q, cfg)
        self.surv = fam._survival(self.thresholds, self.theta)
        self.lam_q = cfg.lam * self.surv

    @cached_property
    def _law(self):
        return _jump_law(self.lam_q, self.cfg.mu)

    @cached_property
    def informative(self) -> np.ndarray:
        """Transitions out of q depend on theta: q > 0 and 0 < surv < 1 exactly."""
        return (self.q > 0) & _varies(self.surv)

    @cached_property
    def p_up(self) -> np.ndarray:
        return np.where(self.q == 0, 1.0, self._law[0])

    @cached_property
    def p_down(self) -> np.ndarray:
        return np.where(self.q == 0, 0.0, self._law[1])

    @cached_property
    def _derivatives(self):
        return self.fam._cdf_derivatives(self.thresholds, self.theta)

    @cached_property
    def grad(self) -> np.ndarray:
        return self._derivatives[0]

    @cached_property
    def dp(self) -> np.ndarray:
        dp = _dp(self.cfg, self._law[2], self.grad)
        dp[self.q == 0] = 0.0
        return dp

    @cached_property
    def d2p(self) -> np.ndarray:
        d2p = _d2p(self.cfg, self._law[2], self.grad, self._derivatives[1])
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
_AHEAD = 20  # golden steps a speculative call scores along its predicted branch


def _ahead(a: float, b: float, x1: float, x2: float, top: list, tol: float) -> list:
    """Both points each of the next _AHEAD golden steps from bracket (a, b) can score.

    x1 < x2 are its inner points, both values unknown.  The steps follow
    the branch on which the maximizer is the vertex of the parabola through
    top's three (value, point) pairs, the lower one when it has no finite
    vertex, with the loop's own arithmetic and stopping test.
    """
    (fa, xa), (fc, xc), (fb, xb) = top
    p, q = (xb - xa) * (fb - fc), (xb - xc) * (fb - fa)
    vertex = xb - 0.5 * ((xb - xa) * p - (xb - xc) * q) / (p - q) if p != q else math.nan
    vertex = vertex if math.isfinite(vertex) else -math.inf  # none: the lower branch
    out = []
    for _ in range(_AHEAD):
        scale = abs(a) + abs(b)  # the stopping test, as _golden_search's
        if b - a <= tol * (scale if scale > 1.0 else 1.0):
            break
        up = x1 + _INVPHI * (b - x1)  # f1 < f2: the bracket becomes (x1, b)
        down = x2 - _INVPHI * (x2 - a)  # otherwise: (a, x2)
        out += (up, down)
        if vertex > 0.5 * (x1 + x2):  # f1 < f2 on the parabola
            a, x1, x2 = x1, x2, up
        else:
            b, x2, x1 = x2, x1, down
    return out


def grid_then_golden(scan, lo: float, hi: float, grid: int, tol: float, batch) -> float:
    """Maximize on [lo, hi]: grid scan, then golden section in the best bracket.

    ``scan`` maps the array of grid points to their values; the grid guards
    against a misleading golden start.  The golden phase stops once the
    bracket is narrower than tol * max(1, |a| + |b|).  It is speculative
    (Kiefer 1953): each point it needs is scored in one ``batch`` call
    together with both points of each of the next _AHEAD steps along the
    branch that the parabola through the three best values so far predicts
    (Brent 1973), and the steps replay their comparisons from those values.
    ``batch`` maps a list of points to their values: the first always, a
    later one NaN when it cannot be had cheaply (a NaN is scored again,
    first, if the search reaches it).  When batch gives each point the
    value of one function, the result is that of the one-point-at-a-time
    search on it, and a batch that scores only its first point scores that
    search's points.  The golden phase itself is ``_golden_search``, which
    a caller that gathers the batches of many searches steps directly.
    """
    points = np.linspace(lo, hi, grid)
    search = _golden_search(points, scan(points), tol)
    values = None
    while True:
        try:
            points = search.send(values)
        except StopIteration as stop:
            return stop.value
        values = batch(points)


def _golden_search(points, values, tol: float):
    """grid_then_golden's golden phase as a generator, from its grid points and their values.

    The generator yields the points it needs scored (one, or both inner
    points at the start, then _ahead's), takes their values back as
    grid_then_golden's ``batch`` gives them and returns the maximizer.  A
    step tests the bracket's width inline and reads its new point's value
    from the last batch; only a point that batch did not score, or left
    NaN, asks again.  The parabola's three points are the best scored so
    far, never a NaN.
    """
    best = int(np.argmax(values))
    a, b = float(points[max(best - 1, 0)]), float(points[min(best + 1, len(points) - 1)])
    x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    known = {}  # the last batch: no later step needs a point of an earlier one
    near = max(min(best - 1, len(points) - 3), 0)  # the three grid points around the best
    top = sorted((v, x) for v, x in zip(np.asarray(values)[near:near + 3].tolist(),
                                        points[near:near + 3].tolist()) if v == v)
    top[:0] = [(-math.inf, math.nan)] * (3 - len(top))  # no parabola until three are known

    def ask(*xs):
        """One batch of xs and the points _ahead predicts; the value of xs[0]."""
        ahead = [*xs, *_ahead(a, b, x1, x2, top, tol)]
        values = yield ahead
        known.clear()
        known.update(zip(ahead, values))
        if max(values) > top[0][0]:  # never when values[0] is NaN
            top[:] = sorted([*top, *[p for p in zip(values, ahead) if p[0] == p[0]]])[-3:]
        return known[xs[0]]

    f1 = yield from ask(x1, x2)
    f2 = known[x2]
    if f2 != f2:  # left NaN
        f2 = yield from ask(x2)
    while True:
        scale = abs(a) + abs(b)  # stop once b - a <= tol * max(1, |a| + |b|)
        if b - a <= tol * (scale if scale > 1.0 else 1.0):
            return np.float64(0.5 * (a + b))
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = known.get(x2, math.nan)
            if f2 != f2:  # not scored yet, or left NaN
                f2 = yield from ask(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = known.get(x1, math.nan)
            if f1 != f1:
                f1 = yield from ask(x1)
