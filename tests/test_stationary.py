import io
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from balkwise.model import (
    ExponentialFamily,
    ModelConfig,
    ParamSpace,
    ValueFamily,
    _threshold,
    grid_then_golden,
    joining_rate,
)
from balkwise.simulator import SimOptions, path_stats, simulate_path
from balkwise import stationary
from balkwise.stationary import (
    GOLDEN_TOL,
    PRICE_FLOOR,
    PRICE_GRID,
    STATE_CAP,
    TRUNC_EPS,
    _ROW,
    TruncationError,
    _Row,
    asymptotic_std,
    expected_revenue,
    min_std_price,
    optimal_price,
    price_upper_bound,
    stationary_distribution,
    stationary_weights,
    std_curve,
    theoretical_sigma,
    write_curve_csv,
)
from helpers import UniformValueFamily, WeibullValueFamily, golden_one_point_at_a_time


def test_weights_start_at_one(anchor_cfg, expo):
    w = stationary_weights([0.02], anchor_cfg, expo, qmax=10)
    assert w[0] == 1.0
    assert len(w) == 11


def test_weights_single_ratio(anchor_cfg, expo):
    w = stationary_weights([0.02], anchor_cfg, expo, qmax=1)
    assert w[1] == pytest.approx(math.exp(-0.32), rel=1e-12)


def test_weights_geometric_when_no_balking():
    cfg = ModelConfig(lam=0.5, mu=1.0, cost_c=1.0, price=0.0)
    fam = ExponentialFamily(ParamSpace([1e-14], [1.0]))
    w = stationary_weights([1e-13], cfg, fam, qmax=30)
    assert np.allclose(w, 0.5 ** np.arange(31), rtol=1e-9)


def test_mm1_geometric_distribution():
    cfg = ModelConfig(lam=0.5, mu=1.0, cost_c=1.0, price=0.0)
    fam = ExponentialFamily(ParamSpace([1e-14], [1.0]))
    dist = stationary_distribution([1e-13], cfg, fam)
    qs = np.arange(len(dist.probs))
    expected = 0.5 * 0.5**qs
    assert np.max(np.abs(dist.probs - expected)) < 1e-9


def test_distribution_normalization_and_tail(anchor_cfg, expo):
    for weighting in ("time", "jump"):
        dist = stationary_distribution([0.02], anchor_cfg, expo, eps=1e-12, weighting=weighting)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist.probs >= 0)
        assert dist.tail_bound <= 1e-12 * 2
        assert dist.weighting == weighting


def test_distribution_rejects_bad_inputs(anchor_cfg, expo):
    with pytest.raises(ValueError):
        stationary_distribution([0.02], anchor_cfg, expo, eps=0.0)
    with pytest.raises(ValueError):
        stationary_distribution([0.02], anchor_cfg, expo, weighting="hybrid")
    blocked = UniformValueFamily(width=1.0, lower=0.0, upper=5.0)
    with pytest.raises(ValueError):
        stationary_distribution([1.0], anchor_cfg, blocked)


def test_truncation_failure_for_non_balking():
    cfg = ModelConfig(lam=2.0, mu=1.0, cost_c=1.0, price=1.0)
    fam = UniformValueFamily(width=1.0, lower=10**7, upper=10**8)
    with pytest.raises(TruncationError):
        stationary_distribution([5 * 10**7], cfg, fam)


def test_occupancy_matches_distribution(anchor_cfg, expo):
    theta0 = [0.02]
    path = simulate_path(
        anchor_cfg, expo, theta0,
        SimOptions(steps=2 * 10**5, seed=23, initial_state="stationary-warmup"),
    )
    stats = path_stats(path)
    for weighting, emp in (("time", stats.time_occupancy), ("jump", stats.jump_occupancy)):
        dist = stationary_distribution(theta0, anchor_cfg, expo, weighting=weighting)
        size = max(len(emp), len(dist.probs))
        a = np.pad(emp, (0, size - len(emp)))
        b = np.pad(dist.probs, (0, size - len(dist.probs)))
        assert 0.5 * np.abs(a - b).sum() <= 0.02


def test_expected_revenue_zero_price(anchor_cfg, expo):
    assert expected_revenue(0.0, [0.02], anchor_cfg, expo) == 0.0


def test_expected_revenue_vanishes_at_extreme_price(anchor_cfg, expo):
    assert expected_revenue(10**4, [0.02], anchor_cfg, expo) <= 1e-3


def test_expected_revenue_ignores_cfg_price(anchor_cfg, expo):
    other = anchor_cfg.with_price(90.0)
    assert expected_revenue(20.0, [0.02], anchor_cfg, expo) == pytest.approx(
        expected_revenue(20.0, [0.02], other, expo)
    )


def test_truncation_stability(anchor_cfg, expo):
    # revenue (time law) and information (jump law) summed over the
    # truncated laws at two tail tolerances
    cfg = anchor_cfg.with_price(50.0)
    values = []
    for eps in (1e-12, 5e-13):
        time = stationary_distribution([0.02], cfg, expo, eps=eps, weighting="time")
        rates = joining_rate(np.arange(time.qstar + 1), [0.02], cfg, expo)
        jump = stationary_distribution([0.02], anchor_cfg, expo, eps=eps, weighting="jump")
        qs = np.arange(1, jump.qstar + 1)
        r = anchor_cfg.price + (qs + 1) * anchor_cfg.cost_c / anchor_cfg.mu
        surv = np.exp(-0.02 * r)
        sigma = (jump.probs[1:] * r**2 * surv / (1.0 + surv) ** 2).sum()
        values.append((50.0 * (time.probs * rates).sum(), sigma))
    (rev_a, sig_a), (rev_b, sig_b) = values
    assert abs(rev_a - rev_b) <= 1e-8 * abs(rev_a)
    assert abs(sig_a - sig_b) <= 1e-8 * abs(sig_a)
    assert rev_a == pytest.approx(expected_revenue(50.0, [0.02], anchor_cfg, expo), rel=1e-12)
    assert sig_a == pytest.approx(theoretical_sigma([0.02], anchor_cfg, expo)[0, 0], rel=1e-12)


def test_revenue_argmax_anchors(anchor_cfg, expo):
    assert abs(optimal_price([0.02], anchor_cfg, expo) - 50.9) <= 0.5
    assert abs(optimal_price([0.08], anchor_cfg, expo) - 13.0) <= 0.3


def test_std_argmin_anchors(anchor_cfg, expo):
    assert abs(min_std_price([0.02], anchor_cfg, expo) - 121.0) <= 2.0
    assert abs(min_std_price([0.08], anchor_cfg, expo) - 29.0) <= 1.0


def test_min_std_price_scores_the_one_point_search(anchor_cfg, expo, monkeypatch):
    # its batch scores only the point the search needs, so the search scores
    # the grid, then one point per golden step, as the one-point search does
    theta, std, scored, reference = [0.02], asymptotic_std, [], []

    def one(p):
        reference.append(p)
        return -float(std(p, theta, anchor_cfg, expo)[0])

    hi = price_upper_bound(theta, anchor_cfg, expo)
    expected = golden_one_point_at_a_time(one, PRICE_FLOOR, hi, PRICE_GRID, GOLDEN_TOL)
    monkeypatch.setattr(stationary, "asymptotic_std",
                        lambda p, *args: scored.append(p) or std(p, *args))
    result = min_std_price(theta, anchor_cfg, expo)
    assert np.float64(result).tobytes() == np.float64(expected).tobytes()
    assert len(scored) == len(reference) > PRICE_GRID
    assert scored == reference


def test_std_positive_on_grid(anchor_cfg, expo):
    prices = np.linspace(1.0, 250.0, 40)
    vals = std_curve(prices, [0.02], anchor_cfg, expo)
    assert np.all(np.isfinite(vals))
    assert np.all(vals > 0)


def test_sigma_summand_matches_direct_form(anchor_cfg, expo):
    """The per-state information term equals the closed-form expression."""
    theta = 0.02
    dist = stationary_distribution([theta], anchor_cfg, expo, weighting="jump")
    qs = np.arange(1, dist.qstar + 1)
    r = anchor_cfg.price + (qs + 1) * anchor_cfg.cost_c / anchor_cfg.mu
    surv = np.exp(-theta * r)
    direct = (
        dist.probs[1:]
        * anchor_cfg.mu
        * anchor_cfg.lam
        * r**2
        * surv
        / (anchor_cfg.mu + anchor_cfg.lam * surv) ** 2
    ).sum()
    got = theoretical_sigma([theta], anchor_cfg, expo)[0, 0]
    assert got == pytest.approx(direct, rel=1e-12)


def test_sigma_occupancy_accounting(anchor_cfg, expo):
    """Occupancy accounting sums over all states at state-indexed thresholds."""
    theta = 0.02
    dist = stationary_distribution([theta], anchor_cfg, expo, weighting="time")
    qs = np.arange(0, dist.qstar + 1)
    r = anchor_cfg.price + qs * anchor_cfg.cost_c / anchor_cfg.mu
    surv = np.exp(-theta * r)
    direct = (
        dist.probs * anchor_cfg.mu * anchor_cfg.lam * r**2 * surv
        / (anchor_cfg.mu + anchor_cfg.lam * surv) ** 2
    ).sum()
    got = theoretical_sigma([theta], anchor_cfg, expo, accounting="occupancy")[0, 0]
    assert got == pytest.approx(direct, rel=1e-12)


def test_sigma_rate_scaling_recomputed(anchor_cfg, expo):
    """Scaling both rates does not leave the information unchanged: the
    offered-reward thresholds shift through the service rate."""
    scaled = ModelConfig(lam=2.0, mu=2.0, cost_c=1.0, price=15.0)
    base = theoretical_sigma([0.02], anchor_cfg, expo)[0, 0]
    moved = theoretical_sigma([0.02], scaled, expo)[0, 0]
    # direct recomputation at the scaled configuration
    dist = stationary_distribution([0.02], scaled, expo, weighting="jump")
    qs = np.arange(1, dist.qstar + 1)
    r = scaled.price + (qs + 1) * scaled.cost_c / scaled.mu
    surv = np.exp(-0.02 * r)
    direct = (
        dist.probs[1:] * scaled.mu * scaled.lam * r**2 * surv
        / (scaled.mu + scaled.lam * surv) ** 2
    ).sum()
    assert moved == pytest.approx(direct, rel=1e-12)
    assert moved != pytest.approx(base, rel=1e-3)


def test_asymptotic_std_is_inverse_sqrt_sigma(anchor_cfg, expo):
    sigma = theoretical_sigma(
        [0.02], anchor_cfg.with_price(40.0), expo, accounting="occupancy"
    )[0, 0]
    std = asymptotic_std(40.0, [0.02], anchor_cfg, expo)[0]
    assert std == pytest.approx(1.0 / math.sqrt(sigma), rel=1e-12)


def test_price_upper_bound(anchor_cfg, expo):
    hi = price_upper_bound([0.02], anchor_cfg, expo)
    from balkwise.model import joining_rate

    assert joining_rate(0, [0.02], anchor_cfg.with_price(hi), expo) < 1e-6 * anchor_cfg.lam
    # the smallest such float: one step below it somebody still joins
    below = anchor_cfg.with_price(float(np.nextafter(hi, 0.0)))
    assert joining_rate(0, [0.02], below, expo) >= 1e-6 * anchor_cfg.lam


def test_curve_csv_headers(anchor_cfg, expo):
    prices = np.array([10.0, 20.0])
    buf = io.StringIO()
    write_curve_csv(buf, prices, [1.0, 2.0], "revenue")
    assert buf.getvalue().splitlines()[0] == "price,revenue"
    buf = io.StringIO()
    write_curve_csv(buf, prices, [1.0, 2.0], "std")
    assert buf.getvalue().splitlines()[0] == "price,std"


# --- the (price x state) table behind optimal_price's grid scan -------------

ANCHOR = ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=15.0)
EXPO = ExponentialFamily(ParamSpace([1e-3], [5.0]))
WEIBULL = WeibullValueFamily([0.5, 2.0], [10.0, 60.0])

# arrival rate at most the service rate: the unnormalized weights then stay
# below 1 (heavier traffic, whose weights can overflow before the chain
# balks, has its own test below)
models = st.builds(
    lambda rho, mu, cost_c, price: ModelConfig(rho * mu, mu, cost_c, price),
    rho=st.floats(0.01, 1.0),
    mu=st.floats(0.05, 20.0),
    cost_c=st.floats(0.01, 10.0),
    price=st.floats(0.0, 100.0),
)

table_settings = settings(derandomize=True, deadline=None, database=None, max_examples=40)


@table_settings
@given(theta=st.floats(1e-3, 5.0), lo=st.floats(0.0, 0.9), span=st.floats(0.01, 1.0))
def test_grid_scan_matches_expected_revenue(theta, lo, span):
    # bounds inside optimal_price's default range, where somebody joins the empty queue
    top = price_upper_bound([theta], ANCHOR, EXPO)
    prices = np.linspace(lo * top, (lo + span * (1.0 - lo)) * top, 64)
    scan = _Row([theta], ANCHOR, EXPO, TRUNC_EPS).scan(prices)
    scalar = np.array([expected_revenue(p, [theta], ANCHOR, EXPO) for p in prices])
    np.testing.assert_allclose(scan, scalar, rtol=1e-13, atol=0.0)
    assert np.argmax(scan) == np.argmax(scalar)


def _rows(prices, theta, cfg, fam):
    """Each price's joining-rate row, at the width the pass cut it, and each table's shape."""
    row, rows, weighed = _Row(np.asarray(theta, dtype=float), cfg, fam, TRUNC_EPS), {}, []
    weigh = stationary._weigh
    stationary._weigh = lambda lam_q, *rest: weighed.append(lam_q.shape) or weigh(lam_q, *rest)
    try:
        prices = np.asarray(prices, dtype=float)
        for index, _, lam_q, _, _ in row._tables(prices, len(prices)):
            rows.update((int(i), lam) for i, lam in zip(index, lam_q))
    finally:
        stationary._weigh = weigh
    assert sorted(rows) == list(range(len(prices)))
    return [rows[i] for i in range(len(prices))], weighed


def _lam_q(prices, width, theta, cfg, fam):
    """Joining rates of states 0 .. width - 1, one row per price, from the join threshold itself."""
    thresholds = _threshold(np.arange(width), cfg, price=np.asarray(prices, dtype=float)[:, None])
    return cfg.lam * fam.sf(thresholds, theta)


@table_settings
@given(theta=st.floats(1e-3, 0.5), price=st.floats(0.0, 100.0))
def test_table_rows_follow_the_exponential_memoryless_oracle(theta, price):
    # sf(p + x) = sf(p) sf(x): the joining rates at price p are sf(p) times those at price 0,
    # over every state of each row at the width it was tabulated for
    lam_q, _ = _rows([0.0, price], [theta], ANCHOR, EXPO)
    at_zero = _lam_q([0.0], max(map(len, lam_q)), [theta], ANCHOR, EXPO)[0]
    np.testing.assert_allclose(lam_q[0], at_zero[: len(lam_q[0])], rtol=1e-12)
    np.testing.assert_allclose(
        lam_q[1], EXPO.sf(price, [theta]) * at_zero[: len(lam_q[1])], rtol=1e-12
    )


@table_settings
@given(cfg=models, theta=st.floats(2e-3, 4.9), eps=st.floats(1e-14, 1e-3))
def test_time_stationary_mass_and_tail_bound(cfg, theta, eps):
    assume(joining_rate(0, [theta], cfg, EXPO) > 0.0)
    dist = stationary_distribution([theta], cfg, EXPO, eps=eps, weighting="time")
    assert abs(dist.probs.sum() - 1.0) <= 1e-12
    assert 0.0 <= dist.tail_bound < eps


def test_heavy_traffic_chain_that_balks_is_truncated():
    # lam/mu = 4, yet the joining rate falls below mu/2 after about 2100
    # customers, so the stationary law exists; its weights peak near e^984
    cfg = ModelConfig(lam=4.0, mu=1.0, cost_c=0.015625, price=0.0)
    dist = stationary_distribution([0.0625], cfg, EXPO)
    assert abs(dist.probs.sum() - 1.0) <= 1e-12


@table_settings
@given(
    cfg=st.builds(
        lambda rho, mu, cost_c: ModelConfig(rho * mu, mu, cost_c, 0.0),
        rho=st.floats(1.0, 8.0),
        mu=st.floats(0.05, 20.0),
        cost_c=st.floats(0.01, 1.0),
    ),
    theta=st.floats(0.05, 4.9),
)
def test_heavy_traffic_mass_and_tail_bound(cfg, theta):
    # arrival rate above the service rate: the weights rise before they fall,
    # past double precision for some draws, and are rescaled row by row
    dist = stationary_distribution([theta], cfg, EXPO, weighting="time")
    assert abs(dist.probs.sum() - 1.0) <= 1e-12
    assert 0.0 <= dist.tail_bound < 1e-12
    revenue = expected_revenue(cfg.price + 1.0, [theta], cfg, EXPO)
    assert np.isfinite(revenue) and revenue > 0.0


def _price_upper_bound_80_steps(theta, cfg, fam):
    """The bisection as it ran before it stopped at its fixed point."""

    def rate0(p):
        return joining_rate(0, theta, cfg.with_price(p), fam)

    target = 1e-6 * cfg.lam
    hi = 1.0
    while rate0(hi) >= target:
        hi *= 2.0
    lo = hi / 2.0 if hi > 1.0 else 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if rate0(mid) >= target:
            lo = mid
        else:
            hi = mid
    return hi


@table_settings
@given(cfg=models, theta=st.floats(1e-3, 5.0),
       weibull=st.one_of(st.none(), st.tuples(st.floats(0.5, 10.0), st.floats(2.0, 60.0))))
# nobody joins at price 1: the bisection runs its 80 steps down from [0, 1]
@example(cfg=ModelConfig(1.0, 1.0, 10.0, 0.0), theta=5.0, weibull=None)
@example(cfg=ANCHOR, theta=1e-3, weibull=None)
# Weibull values: the log of the joining rate is not linear in the price, so
# the branch the bisection predicts from its ends is off
@example(cfg=ANCHOR, theta=1e-3, weibull=(0.5, 60.0))
@example(cfg=ANCHOR, theta=1e-3, weibull=(10.0, 2.0))
def test_price_upper_bound_equals_full_bisection(cfg, theta, weibull):
    fam, theta = (EXPO, [theta]) if weibull is None else (WEIBULL, list(weibull))
    expected = _price_upper_bound_80_steps(theta, cfg, fam)
    assert price_upper_bound(theta, cfg, fam) == expected


@dataclass(frozen=True)
class _GuessedQuantile(ExponentialFamily):
    """Exponential values whose quantile returns a fixed guess, however wrong."""

    guess: float = 0.0

    def quantile(self, u, theta):
        return self.guess


# the search brackets the crossing from any guess: a far one leaves a bracket
# 2**56 bit patterns wide, whose lattice must not overflow int64
@pytest.mark.parametrize("guess", [0.0, 1e12, math.inf, math.nan])
@pytest.mark.parametrize("cfg, theta", [(ANCHOR, 0.02), (ModelConfig(1.0, 1.0, 10.0, 0.0), 5.0)])
def test_price_upper_bound_from_any_quantile_guess(guess, cfg, theta):
    fam = _GuessedQuantile(guess=guess)
    assert price_upper_bound([theta], cfg, fam) == _price_upper_bound_80_steps([theta], cfg, fam)


class _FlooredFamily(ExponentialFamily):
    """Half the customers value service without bound: the survival never falls below 0.5."""

    def _survival(self, r, theta):
        return 0.5 + 0.5 * super()._survival(r, theta)

    def _cdf_derivatives(self, r, theta):
        return tuple(0.5 * d for d in super()._cdf_derivatives(r, theta))

    cdf = ValueFamily.cdf
    quantile = ValueFamily.quantile


def test_joining_rate_that_never_vanishes_has_no_price_bound():
    fam = _FlooredFamily(ParamSpace([1e-3], [5.0]))
    assert fam.quantile(0.9, [0.02]) == math.inf  # the cdf stays at most 0.5
    for search in (price_upper_bound, optimal_price):
        with pytest.raises(TruncationError, match="joining rate does not vanish with price"):
            search([0.02], ANCHOR, fam)


def test_searches_at_the_anchor_take_few_calls(monkeypatch):
    # the predicted branch settles most golden steps, the quantile's guess most of the bound's
    golden, survival, calls = stationary.grid_then_golden, ExponentialFamily._survival, []

    def counted(scan, lo, hi, grid, tol, batch):
        return golden(scan, lo, hi, grid, tol, lambda points: calls.append(points) or batch(points))

    monkeypatch.setattr(stationary, "grid_then_golden", counted)
    optimal_price([0.02], ANCHOR, EXPO)
    assert 1 <= len(calls) <= 6
    calls.clear()
    monkeypatch.setattr(ExponentialFamily, "_survival",
                        lambda self, r, theta: calls.append(r) or survival(self, r, theta))
    price_upper_bound([0.02], ANCHOR, EXPO)
    assert 2 <= len(calls) <= 4  # the ladder around the quantile's guess, then the lattices


def test_grid_scan_grows_wide_tables_row_by_row():
    # light balking: the lowest price needs ~7e4 states, so 16 rows at that
    # width would pass STATE_CAP; only the rows that need it are grown that wide
    cfg = ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=0.0)
    fam = ExponentialFamily(ParamSpace([1e-14], [1.0]))
    prices = np.linspace(0.01, 2e5, 16)
    lam_q, weighed = _rows(prices, [1e-5], cfg, fam)
    widths = [len(row) for row in lam_q]
    assert len(prices) * max(widths) > STATE_CAP and min(widths) == 32
    assert all(rows * width <= STATE_CAP for rows, width in weighed)
    scan = _Row([1e-5], cfg, fam, TRUNC_EPS).scan(prices)
    scalar = [expected_revenue(p, [1e-5], cfg, fam) for p in prices]
    np.testing.assert_allclose(scan, scalar, rtol=1e-13, atol=0.0)


def test_grid_scan_stops_before_rows_that_would_pass_state_cap():
    # eight low prices need ~7e4 states each: at double the width they would
    # pass STATE_CAP together, so the leading ones widen first and the rest follow
    cfg = ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=0.0)
    fam = ExponentialFamily(ParamSpace([1e-14], [1.0]))
    prices = np.r_[2e5, np.linspace(0.01, 1e3, 8)]
    lam_q, weighed = _rows(prices, [1e-5], cfg, fam)
    assert len(lam_q[0]) == 32 and 8 * min(map(len, lam_q[1:])) > STATE_CAP
    assert all(rows * width <= STATE_CAP for rows, width in weighed)
    scan = _Row([1e-5], cfg, fam, TRUNC_EPS).scan(prices)
    scalar = [expected_revenue(p, [1e-5], cfg, fam) for p in prices]
    np.testing.assert_allclose(scan, scalar, rtol=1e-13, atol=0.0)


def _full_width_tables(prices, theta, cfg, fam):
    """Every price's row on one table, 128 states wide and doubled until every row is cut."""
    prices, width = np.asarray(prices, dtype=float), 128
    while True:
        lam_q = _lam_q(prices, width, theta, cfg, fam)
        weights = np.empty_like(lam_q)
        weights[:, 0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumprod(lam_q[:, :-1] / cfg.mu, axis=1, out=weights[:, 1:])
            partial = np.cumsum(weights, axis=1)
        big = ~np.isfinite(partial[:, -1])
        if big.any():
            with np.errstate(divide="ignore"):
                logs = np.cumsum(np.log(lam_q[big, :-1] / cfg.mu), axis=1)
            top = np.maximum(logs.max(axis=1, keepdims=True), 0.0)
            weights[big] = np.exp(np.concatenate([np.zeros_like(top), logs], axis=1) - top)
            partial[big] = np.cumsum(weights[big], axis=1)
        ok = (lam_q / cfg.mu < 0.5) & (weights < 1e-12 * partial)
        if ok.any(axis=1).all():
            return weights, lam_q, np.argmax(ok, axis=1)
        width *= 2


def _full_width_scan(prices, theta, cfg, fam):
    weights, lam_q, qstar = _full_width_tables(prices, theta, cfg, fam)
    weights = np.where(np.arange(weights.shape[1]) <= qstar[:, None], weights, 0.0)
    return prices * ((weights * lam_q).sum(axis=1) / weights.sum(axis=1))


def _full_width_revenue(price, theta, cfg, fam):
    weights, lam_q, qstar = _full_width_tables([price], theta, cfg, fam)
    end = qstar[0] + 1
    return price * float((weights[0, :end] * lam_q[0, :end]).sum() / weights[0, :end].sum())


@table_settings
@given(
    cfg=st.builds(
        lambda rho, mu, cost_c: ModelConfig(rho * mu, mu, cost_c, 0.0),
        rho=st.floats(0.05, 6.0),
        mu=st.floats(0.2, 5.0),
        cost_c=st.floats(0.01, 2.0),
    ),
    log_theta=st.floats(math.log(1e-3), math.log(5.0)),
)
# heavy traffic whose weights overflow, and the box edges
@example(cfg=ModelConfig(4.0, 1.0, 1 / 64, 0.0), log_theta=math.log(0.0625))
@example(cfg=ANCHOR, log_theta=math.log(1e-3))
@example(cfg=ANCHOR, log_theta=math.log(5.0))
def test_optimal_price_equals_the_search_on_full_width_tables(cfg, log_theta):
    # the search as it ran on one table of every grid price and a 128-state
    # table per golden step, one step at a time: the narrow tables, the row
    # function and its speculative batches change no value it sees
    theta = [min(max(math.exp(log_theta), 1e-3), 5.0)]
    assume(stationary_distribution(theta, cfg.with_price(PRICE_FLOOR), EXPO).qstar < 3000)
    expected = golden_one_point_at_a_time(
        lambda p: _full_width_revenue(p, theta, cfg, EXPO), PRICE_FLOOR,
        price_upper_bound(theta, cfg, EXPO), PRICE_GRID, GOLDEN_TOL,
        scan=lambda prices: _full_width_scan(prices, theta, cfg, EXPO),
    )
    assert optimal_price(theta, cfg, EXPO) == expected


@pytest.mark.parametrize("price", [40.0, 30.0, 20.0, 1.0])
def test_one_row_equals_its_row_on_full_width_tables(price):
    # heavy traffic: these rows are cut at 26 states, within _ROW, and at
    # 210, 850 and 2,066 states (weights overflow), past it
    cfg, theta = ModelConfig(4.0, 1.0, 1 / 64, 0.0), [0.0625]
    weights, lam_q, total = _Row(theta, cfg, EXPO, TRUNC_EPS)(price)
    full_weights, full_lam_q, qstar = _full_width_tables([price], theta, cfg, EXPO)
    end = qstar[0] + 1
    np.testing.assert_array_equal(weights, full_weights[0, :end])
    np.testing.assert_array_equal(lam_q, full_lam_q[0, :end])
    assert total == np.cumsum(full_weights[0, :end])[-1]


def _assert_batch_equals_rows(row, prices):
    """row.revenues equals expected_revenue, bit for bit; a row it need not settle may be NaN."""
    scalar = np.array([expected_revenue(p, row.theta, row.cfg, row.fam) for p in prices])
    np.testing.assert_array_equal(row.revenues(prices, len(prices)), scalar)
    # the one pass settles exactly the rows cut within its states
    settled = np.array([len(row(p)[0]) <= _ROW for p in prices])
    speculative = row.revenues(prices, 1)
    np.testing.assert_array_equal(np.isnan(speculative[1:]), ~settled[1:])
    np.testing.assert_array_equal(speculative[settled], scalar[settled])
    assert speculative[0] == scalar[0]
    return settled


@pytest.mark.parametrize(
    "cfg, theta, prices",
    [
        # rows cut at 26 states, within the one pass, and at 210, 850 and
        # 2,066 states, where the weights overflow
        (ModelConfig(4.0, 1.0, 1 / 64, 0.0), 0.0625, [1.0, 40.0, 20.0, 30.0, 40.0, 35.5, 0.0]),
        # light balking: the low prices need over 128 states
        (ANCHOR, 0.005, np.linspace(0.0, 200.0, 41)),
        (ANCHOR, 0.02, np.linspace(PRICE_FLOOR, 400.0, 37)),
    ],
    ids=["heavy-traffic", "light-balking", "anchor"],
)
def test_row_batch_equals_the_row_function_bit_for_bit(cfg, theta, prices):
    settled = _assert_batch_equals_rows(_Row(np.array([theta]), cfg, EXPO, TRUNC_EPS), prices)
    assert settled.any() and (theta == 0.02 or not settled.all())


@table_settings
@given(
    cfg=st.builds(
        lambda rho, mu, cost_c: ModelConfig(rho * mu, mu, cost_c, 0.0),
        rho=st.floats(0.05, 6.0),
        mu=st.floats(0.2, 5.0),
        cost_c=st.floats(0.01, 2.0),
    ),
    log_theta=st.floats(math.log(1e-3), math.log(5.0)),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
)
def test_row_batch_equals_the_row_function_on_random_models(cfg, log_theta, fractions):
    theta = np.array([min(max(math.exp(log_theta), 1e-3), 5.0)])
    assume(stationary_distribution(theta, cfg.with_price(PRICE_FLOOR), EXPO).qstar < 3000)
    top = price_upper_bound(theta, cfg, EXPO)
    _assert_batch_equals_rows(_Row(theta, cfg, EXPO, TRUNC_EPS), np.array(fractions) * top)


def _raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return info.value


NON_BALKING = (
    ModelConfig(lam=2.0, mu=1.0, cost_c=1.0, price=1.0),
    UniformValueFamily(width=1.0, lower=10**7, upper=10**8),
    [5 * 10**7],
)
NOBODY_JOINS = (
    ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=15.0),
    UniformValueFamily(width=1.0, lower=0.0, upper=5.0),
    [1.0],
)


@pytest.mark.parametrize(
    "model, bounds, error",
    [
        ((ANCHOR, EXPO, [0.02]), (-1.0, 10.0), ValueError),
        (NOBODY_JOINS, (0.01, 10.0), ValueError),
        (NON_BALKING, (0.01, 100.0), TruncationError),
        # no balking at the low prices, nobody joins at the high ones
        (NON_BALKING, (0.01, 10.0**8), TruncationError),
    ],
    ids=["negative-price", "nobody-joins", "non-balking", "non-balking-then-nobody-joins"],
)
def test_grid_scan_raises_what_expected_revenue_raises(model, bounds, error):
    cfg, fam, theta = model
    grid = _raised(
        lambda: grid_then_golden(
            _Row(theta, cfg, fam, TRUNC_EPS).scan, *bounds, 256, 1e-9,
            lambda prices: [expected_revenue(p, theta, cfg, fam) for p in prices],
        )
    )
    by_scalar_scan = _raised(
        lambda: golden_one_point_at_a_time(
            lambda p: expected_revenue(p, theta, cfg, fam), *bounds, 256, 1e-9
        )
    )
    assert type(grid) is type(by_scalar_scan) is error
    assert str(grid) == str(by_scalar_scan)


def _full_search(theta, cfg, fam, lo=PRICE_FLOOR, hi=None):
    """optimal_price's search with every grid price scored, by the unpruned ``_Row.scan``."""
    row = _Row(fam.param_space.require(theta), cfg, fam, TRUNC_EPS)
    hi = price_upper_bound(theta, cfg, fam) if hi is None else hi
    return grid_then_golden(row.scan, lo, hi, PRICE_GRID, GOLDEN_TOL,
                            lambda points: row.revenues(points, 1).tolist())


def _searchable(theta, cfg, fam):
    """A price range above PRICE_FLOOR whose rows are cut within 3,000 states (a test's cost)."""
    try:
        return (price_upper_bound(theta, cfg, fam) > PRICE_FLOOR and
                stationary_distribution(theta, cfg.with_price(PRICE_FLOOR), fam).qstar < 3000)
    except (TruncationError, ValueError):
        return False


# the three value families: exponential, Weibull (shape, scale) and uniform of a drawn width
value_models = st.one_of(
    st.builds(lambda theta: (EXPO, [theta]), st.floats(1e-3, 5.0)),
    st.builds(lambda shape, scale: (WEIBULL, [shape, scale]),
              st.floats(0.5, 10.0), st.floats(2.0, 60.0)),
    st.builds(lambda width, offset: (UniformValueFamily(width, -10.0, 100.0), [offset]),
              st.floats(0.1, 100.0), st.floats(-10.0, 100.0)),
)
search_models = st.builds(
    lambda rho, mu, cost_c: ModelConfig(rho * mu, mu, cost_c, 0.0),
    rho=st.floats(0.05, 6.0),
    mu=st.floats(0.2, 20.0),
    cost_c=st.floats(0.01, 5.0),
)
HEAVY = ModelConfig(4.0, 1.0, 1 / 64, 0.0)
# Weibull values where a row's weights stay finite but its revenue products overflowed
OVERFLOW = ModelConfig(41.865, 14.510, 0.784, 0.0), [2.026, 58.256]


@table_settings
@given(cfg=search_models, model=value_models, fraction=st.floats(0.0, 1.0))
# heavy traffic: rows of 26 to 2,066 states, whose weights overflow past 26
@example(cfg=HEAVY, model=(EXPO, [0.0625]), fraction=0.0)
@example(cfg=HEAVY, model=(EXPO, [0.0625]), fraction=0.02)
@example(cfg=HEAVY, model=(EXPO, [0.0625]), fraction=0.1)
@example(cfg=OVERFLOW[0], model=(WEIBULL, OVERFLOW[1]), fraction=0.0)
def test_revenue_is_at_most_price_times_empty_queue_join_rate_and_service_rate(cfg, model,
                                                                                 fraction):
    # joining rates fall with the queue, and the queue serves at most mu:
    # R(p) <= p min(lam S(p + c/mu), mu), the bound the grid scan prunes by
    fam, theta = model
    assume(_searchable(theta, cfg, fam))
    price = PRICE_FLOOR + fraction * (price_upper_bound(theta, cfg, fam) - PRICE_FLOOR)
    bound = price * min(joining_rate(0, theta, cfg.with_price(price), fam), cfg.mu)
    assert expected_revenue(price, theta, cfg, fam) <= bound * (1.0 + 1e-9)


@table_settings
@given(cfg=search_models, model=value_models)
@example(cfg=HEAVY, model=(EXPO, [0.0625]))
@example(cfg=OVERFLOW[0], model=(WEIBULL, OVERFLOW[1]))
@example(cfg=ANCHOR, model=(EXPO, [0.02]))
# a range of 0.01 to 0.54: revenue still rises at its top, the grid's argmax is its last point
@example(cfg=ModelConfig(0.19, 0.55, 4.45, 0.0), model=(EXPO, [1.6]))
def test_optimal_price_equals_the_search_that_scores_every_grid_price(cfg, model):
    fam, theta = model
    assume(_searchable(theta, cfg, fam))
    assert optimal_price(theta, cfg, fam) == _full_search(theta, cfg, fam)
    # the pruned grid: scan's values where it scores, the same argmax, and two
    # scored prices on either side of it (grid_then_golden reads three around it)
    row = _Row(fam.param_space.require(theta), cfg, fam, TRUNC_EPS)
    points = np.linspace(PRICE_FLOOR, price_upper_bound(theta, cfg, fam), PRICE_GRID)
    peak, full = row.peak_scan(points), row.scan(points)
    scored = peak > -np.inf
    assert peak[scored].tolist() == full[scored].tolist()
    assert np.argmax(peak) == np.argmax(full) and scored.sum() >= 16
    best = int(np.argmax(full))
    assert scored[max(best - 2, 0):best + 3].all()


@pytest.mark.parametrize(
    "model, bounds",
    [
        ((ANCHOR, EXPO, [0.02]), (-1.0, 10.0)),
        (NOBODY_JOINS, (0.01, 10.0)),
        (NON_BALKING, (0.01, 100.0)),
        (NON_BALKING, (0.01, 10.0**8)),
        # survival floored at 0.5 with lam = mu: no row is ever cut
        ((ANCHOR, _FlooredFamily(ParamSpace([1e-3], [5.0])), [0.02]), (0.01, 100.0)),
        # only the low prices' rows pass STATE_CAP; the highest bounds lie near price 1,000
        ((ModelConfig(1.0, 1.0, 1e-4, 0.0), EXPO, [1e-3]), (0.01, 2000.0)),
    ],
    ids=["negative-price", "nobody-joins", "non-balking", "non-balking-then-nobody-joins",
         "floored", "non-balking-low-prices"],
)
def test_pruned_grid_scan_raises_what_the_full_scan_raises(model, bounds):
    cfg, fam, theta = model
    pruned = _raised(lambda: grid_then_golden(
        _Row(fam.param_space.require(theta), cfg, fam, TRUNC_EPS).peak_scan, *bounds, PRICE_GRID,
        GOLDEN_TOL, lambda prices: [expected_revenue(p, theta, cfg, fam) for p in prices]))
    full = _raised(lambda: _full_search(theta, cfg, fam, *bounds))
    assert type(pruned) is type(full) and str(pruned) == str(full)


def test_revenue_products_that_would_overflow_are_scaled_exactly():
    # one grid row's weights stay finite but its sum of weights times joining
    # rates overflowed, so the grid picked that row's inf; the row is scaled by
    # a power of 2, and every grid value that was finite keeps its bits
    cfg, theta = OVERFLOW
    prices = np.linspace(PRICE_FLOOR, price_upper_bound(theta, cfg, WEIBULL), PRICE_GRID)
    grid = _Row(np.array(theta), cfg, WEIBULL, TRUNC_EPS).scan(prices)
    with np.errstate(over="ignore"):
        unguarded = _full_width_scan(prices, theta, cfg, WEIBULL)
    finite = np.isfinite(unguarded)
    assert finite.sum() == PRICE_GRID - 1 and np.isfinite(grid).all()
    assert grid[finite].tolist() == unguarded[finite].tolist()
    price = float(prices[~finite][0])
    assert math.isfinite(expected_revenue(price, theta, cfg, WEIBULL))
    dist = stationary_distribution(theta, cfg.with_price(price), WEIBULL)
    assert abs(dist.probs.sum() - 1.0) <= 1e-12
    assert optimal_price(theta, cfg, WEIBULL) == _full_search(theta, cfg, WEIBULL)
    assert abs(optimal_price(theta, cfg, WEIBULL) - 59.115) < 1e-3


@pytest.mark.parametrize(
    "model, prices, error",
    [
        ((ANCHOR, EXPO, [0.02]), [-1.0, np.nan], ValueError),
        (NOBODY_JOINS, [1.0, 2.0], ValueError),
        (NON_BALKING, [1.0, 5.0], TruncationError),
    ],
    ids=["bad-price", "nobody-joins", "non-balking"],
)
def test_row_batch_raises_only_for_the_prices_it_must_score(model, prices, error):
    # a speculative price is NaN whatever its row would raise; a price the
    # batch must score raises what expected_revenue raises there
    cfg, fam, theta = model
    row = _Row(fam.param_space.require(theta), cfg, fam, TRUNC_EPS)
    assert np.isnan(row.revenues(prices, 0)).all()
    batch = _raised(lambda: row.revenues(prices, 1))
    single = _raised(lambda: expected_revenue(prices[0], theta, cfg, fam))
    assert type(batch) is type(single) is error
    assert str(batch) == str(single)


@pytest.mark.parametrize("score", ["scan", "revenues"])
def test_first_error_in_order_is_raised_before_later_rows_widen(monkeypatch, score):
    # nobody joins at the first price; the second's row is never cut: the first
    # price's error, without tabulating the second row out to STATE_CAP states
    cfg, fam, theta = NON_BALKING
    widths = []
    weigh = stationary._weigh
    monkeypatch.setattr(stationary, "_weigh",
                        lambda lam_q, *rest: widths.append(lam_q.shape[1]) or weigh(lam_q, *rest))
    row = _Row(fam.param_space.require(theta), cfg, fam, TRUNC_EPS)
    prices = [10.0**8, 1.0]
    with pytest.raises(ValueError, match="joining rate at the empty queue is zero"):
        row.scan(prices) if score == "scan" else row.revenues(prices, 2)
    assert max(widths) <= _ROW
    with pytest.raises(ValueError, match="joining rate at the empty queue is zero"):
        expected_revenue(prices[0], theta, cfg, fam)


@table_settings
@given(
    log_theta=st.floats(math.log(1e-3), math.log(5.0)),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9),
    settle=st.integers(0, 10),
)
# rows of 8, 694 and 556 states: the last two pass _ROW and are NaN unless settled
@example(log_theta=math.log(1e-3), fractions=[0.3, 0.0, 0.01], settle=1)
# rows of 51, 46, 19 and 5 states: the first two widen past the start width
@example(log_theta=math.log(0.02), fractions=[0.0, 0.01, 0.1, 0.6], settle=2)
# rows of 112, 139 and 4 states, all settled: the second through the tables
@example(log_theta=math.log(0.005), fractions=[0.01, 0.0, 0.9], settle=3)
@example(log_theta=math.log(5.0), fractions=[1.0, 0.0], settle=0)
def test_row_batch_from_its_start_width_equals_expected_revenue(log_theta, fractions, settle):
    theta = np.array([min(max(math.exp(log_theta), 1e-3), 5.0)])
    prices = np.array(fractions) * price_upper_bound(theta, ANCHOR, EXPO)
    row = _Row(theta, ANCHOR, EXPO, TRUNC_EPS)
    batch = row.revenues(prices, settle)
    for i, price in enumerate(prices):
        if i >= settle and len(row(price)[0]) > _ROW:
            assert np.isnan(batch[i])
        else:
            assert batch[i] == expected_revenue(price, theta, ANCHOR, EXPO)


# (log theta, price as a share of price_upper_bound) rows of 694, 5, 139 and 556 states
PAST_ROW = [(math.log(1e-3), 0.0), (math.log(0.02), 0.6), (math.log(0.005), 0.0),
            (math.log(1e-3), 0.01)]


@table_settings
@given(rows=st.lists(st.tuples(st.floats(math.log(1e-3), math.log(5.0)), st.floats(0.0, 1.0)),
                     min_size=1, max_size=8))
@example(rows=PAST_ROW)
def test_row_batch_of_parameter_rows_equals_expected_revenue(rows):
    # the pricing loop's model revenues: price i scored at parameter row i, every row settled
    thetas = np.array([[min(max(math.exp(log_theta), 1e-3), 5.0)] for log_theta, _ in rows])
    prices = np.array([fraction * price_upper_bound(theta, ANCHOR, EXPO)
                       for theta, (_, fraction) in zip(thetas, rows)])
    batch = _Row(thetas, ANCHOR, EXPO, TRUNC_EPS).revenues(prices, len(prices))
    scalar = [expected_revenue(price, theta, ANCHOR, EXPO) for price, theta in zip(prices, thetas)]
    assert batch.tolist() == scalar
    if rows == PAST_ROW:  # three rows pass _ROW, each at its own parameter
        rows = [_Row(theta, ANCHOR, EXPO, TRUNC_EPS)(p)[0] for p, theta in zip(prices, thetas)]
        assert [len(row) for row in rows] == [694, 5, 139, 556]


# lam = mu = 1, c = 3 and theta = 5: a share 3.06e-7 < JOIN_FRAC joins the empty queue even at
# price 0, so price_upper_bound (8.3e-25) lies below PRICE_FLOOR and no search range is left
@pytest.mark.parametrize("search", [optimal_price, min_std_price])
def test_price_searches_on_a_collapsed_range_raise(search):
    cfg, fam = ModelConfig(1.0, 1.0, 3.0, 1.0), ExponentialFamily(ParamSpace([0.01], [10.0]))
    assert price_upper_bound([5.0], cfg, fam) <= PRICE_FLOOR
    with pytest.raises(TruncationError, match=r"share of arrivals .* is 3\.06e-07 at price 0 .*"
                                              r"JOIN_FRAC \(1e-06\)"):
        search([5.0], cfg, fam)
