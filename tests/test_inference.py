import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from balkwise import inference
from balkwise.inference import (
    SCORE_RTOL,
    FitResult,
    _fit_batch,
    _Likelihood,
    confidence_interval,
    fit_mle,
    log_likelihood,
    observed_information,
    score,
    score_outer_product,
    transition_counts,
)
from balkwise.model import (
    ExponentialFamily,
    ModelConfig,
    ParamSpace,
    ValueFamily,
    up_probability,
    up_prob_grad,
)
from balkwise.simulator import SimOptions, simulate_path
from balkwise.stationary import theoretical_sigma
from helpers import UniformValueFamily, WeibullValueFamily, make_path

WORKED_STATES = [0, 1, 0, 1, 2, 1, 0]
WORKED_CFG = ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=0.0)


def direct_loglik(theta, states=WORKED_STATES, cfg=WORKED_CFG):
    """Independent oracle: per-transition product, no shared code path."""
    total = 0.0
    for i in range(1, len(states)):
        q = states[i - 1]
        if q == 0:
            continue
        r = cfg.price + (q + 1) * cfg.cost_c / cfg.mu
        lam_q = cfg.lam * math.exp(-theta * r)
        p = lam_q / (lam_q + cfg.mu)
        total += math.log(p) if states[i] > q else math.log(1.0 - p)
    return total


def grid_mle(lo=0.01, hi=5.0, step=1e-4):
    grid = np.arange(lo, hi + step / 2, step)
    vals = np.array([direct_loglik(t) for t in grid])
    return float(grid[np.argmax(vals)])


def test_transition_counts():
    n_up, n_down = transition_counts(make_path(WORKED_STATES))
    assert list(n_up) == [2, 1, 0]
    assert list(n_down) == [0, 2, 1]


def test_loglik_single_down(expo_worked):
    # path [0,1,0]: the step out of the empty queue is certain; only the
    # down-step out of state 1 contributes
    val = log_likelihood(make_path([0, 1, 0]), [0.5], WORKED_CFG, expo_worked)
    assert val == pytest.approx(math.log(1.0 / (1.0 + math.exp(-1.0))), rel=1e-12)
    assert val == pytest.approx(-0.31326, abs=5e-6)


def test_loglik_no_informative_steps(expo_worked):
    assert log_likelihood(make_path([0, 1]), [0.5], WORKED_CFG, expo_worked) == 0.0


def test_loglik_matches_direct_oracle(expo_worked):
    path = make_path(WORKED_STATES)
    for theta in (0.05, 0.3, 0.545, 1.7):
        assert log_likelihood(path, [theta], WORKED_CFG, expo_worked) == pytest.approx(
            direct_loglik(theta), rel=1e-12
        )


def test_loglik_monotonicity_around_optimum(expo_worked):
    path = make_path(WORKED_STATES)
    at_opt = log_likelihood(path, [0.545], WORKED_CFG, expo_worked)
    assert at_opt > log_likelihood(path, [0.1], WORKED_CFG, expo_worked)
    assert at_opt > log_likelihood(path, [2.0], WORKED_CFG, expo_worked)


def test_loglik_impossible_path(anchor_cfg):
    fam = UniformValueFamily(width=1.0, lower=0.0, upper=40.0)
    # theta small: the support sits below the threshold at state 2, making
    # the observed up-move out of state 2 impossible
    path = make_path([0, 1, 2, 3, 2])
    assert log_likelihood(path, [1.0], anchor_cfg, fam) == -np.inf


def test_worked_example_mle(expo_worked):
    oracle = grid_mle()
    fit = fit_mle(make_path(WORKED_STATES), WORKED_CFG, expo_worked)
    assert abs(fit.theta_hat[0] - 0.545) <= 1e-3
    assert abs(fit.theta_hat[0] - oracle) <= 1e-4
    assert not fit.boundary
    assert fit.score_norm <= 1e-8 * max(1.0, abs(fit.loglik))
    assert fit.effective_n == 4
    assert fit.total_k == 6


def test_score_is_zero_at_optimum(expo_worked):
    fit = fit_mle(make_path(WORKED_STATES), WORKED_CFG, expo_worked)
    val = score(make_path(WORKED_STATES), fit.theta_hat, WORKED_CFG, expo_worked)
    assert abs(val[0]) <= 1e-6


def test_score_empty_effective_sample(expo_worked):
    assert np.all(score(make_path([0, 1]), [0.5], WORKED_CFG, expo_worked) == 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_score_matches_finite_difference(seed, anchor_cfg, expo):
    rng = np.random.default_rng(seed)
    theta0 = float(rng.uniform(0.01, 0.1))
    path = simulate_path(anchor_cfg, expo, [theta0], SimOptions(steps=1000, seed=seed))
    theta = float(rng.uniform(0.012, 0.2))
    h = 1e-6 * theta
    fd = (
        log_likelihood(path, [theta + h], anchor_cfg, expo)
        - log_likelihood(path, [theta - h], anchor_cfg, expo)
    ) / (2 * h) / len(path)
    got = score(path, [theta], anchor_cfg, expo)[0]
    assert got == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_information_matches_finite_difference(seed, anchor_cfg, expo):
    rng = np.random.default_rng(seed + 100)
    theta0 = float(rng.uniform(0.01, 0.1))
    path = simulate_path(anchor_cfg, expo, [theta0], SimOptions(steps=1000, seed=seed))
    theta = float(rng.uniform(0.012, 0.2))
    h = 1e-5 * theta
    fd = -(
        score(path, [theta + h], anchor_cfg, expo)[0]
        - score(path, [theta - h], anchor_cfg, expo)[0]
    ) / (2 * h)
    got = observed_information(path, [theta], anchor_cfg, expo)[0, 0]
    assert got == pytest.approx(fd, rel=1e-5)


def test_information_symmetric_psd(anchor_cfg, expo):
    path = simulate_path(anchor_cfg, expo, [0.02], SimOptions(steps=5000, seed=4))
    info = observed_information(path, [0.02], anchor_cfg, expo)
    assert np.allclose(info, info.T)
    assert np.all(np.linalg.eigvalsh(info) >= -1e-10)


def test_fit_on_simulated_path(anchor_cfg, expo):
    path = simulate_path(
        anchor_cfg, expo, [0.02], SimOptions(steps=10**4, seed=1, initial_state="stationary-warmup")
    )
    fit = fit_mle(path, anchor_cfg, expo)
    assert abs(fit.theta_hat[0] - 0.02) <= 0.01
    assert not fit.boundary
    assert fit.std_err[0] > 0
    assert fit.sigma_plugin.shape == (1, 1)


def test_all_down_data_hits_upper_bound(anchor_cfg, expo):
    path = make_path([0, 1, 0, 1, 0, 1, 0])
    fit = fit_mle(path, anchor_cfg, expo)
    assert fit.boundary
    assert fit.theta_hat[0] == pytest.approx(expo.param_space.upper[0])


def test_all_up_data_hits_lower_bound(anchor_cfg, expo):
    path = make_path([0, 1, 2, 3, 4, 5, 6])
    fit = fit_mle(path, anchor_cfg, expo)
    assert fit.boundary
    assert fit.theta_hat[0] == pytest.approx(expo.param_space.lower[0])


def test_fit_requires_informative_data(anchor_cfg, expo):
    with pytest.raises(ValueError, match="informative"):
        fit_mle(make_path([0, 1]), anchor_cfg, expo)


# Nothing is informative at the box center, but the thresholds are elsewhere:
# exp(-2.5 * 308.31) underflows at the exponential center 2.5005, and the
# uniform state 1's threshold 2 is below the support at the center 2.75.
@pytest.mark.parametrize(
    "fam, price, states, theta_hat, boundary",
    [
        (ExponentialFamily(ParamSpace([1e-3], [5.0])), 307.31, [0, 1, 2, 1, 0, 1, 0],
         0.00355, False),
        (UniformValueFamily(width=4.0, lower=0.5, upper=5.0), 0.0, [0, 1, 0, 1, 0, 1, 0],
         0.5, True),
    ],
    ids=["exponential-underflow", "uniform-support"],
)
def test_fit_decides_informativeness_over_the_scan_grid(fam, price, states, theta_hat, boundary):
    cfg = ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=price)
    fit = fit_mle(make_path(states, price=price), cfg, fam)
    assert fit.boundary == boundary
    assert fit.theta_hat[0] == pytest.approx(theta_hat, abs=5e-5)


def test_fit_rejects_empty_path(anchor_cfg, expo):
    with pytest.raises(ValueError):
        fit_mle(make_path([0]), anchor_cfg, expo)


def test_fit_result_json_round_trip(anchor_cfg, expo):
    path = simulate_path(anchor_cfg, expo, [0.02], SimOptions(steps=2000, seed=8))
    fit = fit_mle(path, anchor_cfg, expo)
    back = FitResult.from_json(fit.to_json())
    assert back.theta_hat == pytest.approx(fit.theta_hat)
    assert back.loglik == fit.loglik
    assert back.boundary == fit.boundary
    assert back.effective_n == fit.effective_n
    payload = json.loads(fit.to_json())
    assert set(payload) == {
        "theta_hat", "loglik", "score_norm", "boundary",
        "effective_n", "total_k", "sigma_plugin", "std_err",
    }


def test_confidence_interval_degenerate(anchor_cfg, expo):
    path = simulate_path(anchor_cfg, expo, [0.02], SimOptions(steps=2000, seed=8))
    fit = fit_mle(path, anchor_cfg, expo)
    ci = confidence_interval(fit, 0.0)
    assert ci[0, 0] == pytest.approx(fit.theta_hat[0])
    assert ci[0, 1] == pytest.approx(fit.theta_hat[0])
    wide = confidence_interval(fit, 0.95)
    assert wide[0, 0] < fit.theta_hat[0] < wide[0, 1]


def test_confidence_interval_rejects_boundary(anchor_cfg, expo):
    fit = fit_mle(make_path([0, 1, 0, 1, 0]), anchor_cfg, expo)
    assert fit.boundary
    with pytest.raises(ValueError):
        confidence_interval(fit, 0.95)


def test_confidence_interval_coverage(anchor_cfg, expo):
    hits = 0
    total = 0
    for rep in range(1000):
        path = simulate_path(
            anchor_cfg,
            expo,
            [0.02],
            SimOptions(steps=10**4, seed=np.random.SeedSequence((900, rep)),
                       initial_state="stationary-warmup"),
        )
        fit = fit_mle(path, anchor_cfg, expo)
        if fit.boundary:
            continue
        lo, hi = confidence_interval(fit, 0.95)[0]
        total += 1
        hits += int(lo <= 0.02 <= hi)
    assert total >= 990
    assert abs(hits / total - 0.95) <= 0.025


def test_interval_width_scales_with_sample_size(anchor_cfg, expo):
    widths = {}
    for k in (10**4, 4 * 10**4):
        acc = []
        for rep in range(300):
            path = simulate_path(
                anchor_cfg, expo, [0.02],
                SimOptions(steps=k, seed=np.random.SeedSequence((901, k, rep)),
                           initial_state="stationary-warmup"),
            )
            fit = fit_mle(path, anchor_cfg, expo)
            if not fit.boundary:
                lo, hi = confidence_interval(fit, 0.95)[0]
                acc.append(hi - lo)
        widths[k] = np.mean(acc)
    ratio = widths[10**4] / widths[4 * 10**4]
    assert abs(ratio - 2.0) <= 0.2


def test_martingale_identity_closed_form(anchor_cfg, expo):
    theta0 = [0.02]
    for q in range(1, 21):
        p = up_probability(q, theta0, anchor_cfg, expo)
        dp = up_prob_grad(q, theta0, anchor_cfg, expo)[0]
        mean_step = p * (dp / p) - (1 - p) * (dp / (1 - p))
        assert abs(mean_step) <= 1e-12 * max(1.0, abs(dp))


def test_martingale_monte_carlo(anchor_cfg, expo):
    theta0 = [0.02]
    rng = np.random.default_rng(77)
    n = 10**5
    for q in range(1, 21):
        p = up_probability(q, theta0, anchor_cfg, expo)
        dp = up_prob_grad(q, theta0, anchor_cfg, expo)[0]
        y = rng.random(n) < p
        vals = np.where(y, dp / p, -dp / (1 - p))
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean()) <= 3 * se


def test_outer_product_agrees_with_observed_information(anchor_cfg, expo):
    path = simulate_path(
        anchor_cfg, expo, [0.02], SimOptions(steps=10**5, seed=15, initial_state="stationary-warmup")
    )
    a = observed_information(path, [0.02], anchor_cfg, expo)[0, 0]
    b = score_outer_product(path, [0.02], anchor_cfg, expo)[0, 0]
    assert b == pytest.approx(a, rel=0.1)


def test_observed_information_matches_sigma(anchor_cfg, expo):
    for cfg, fam, theta0 in ((anchor_cfg, expo, [0.02]), (WEIBULL_CFG, WEIBULL, [2.0, 20.0])):
        path = simulate_path(
            cfg, fam, theta0, SimOptions(steps=10**5, seed=16, initial_state="stationary-warmup")
        )
        info = observed_information(path, theta0, cfg, fam)
        np.testing.assert_allclose(info, theoretical_sigma(theta0, cfg, fam), rtol=0.05)


# --- the per-fit likelihood and its batch-theta scan ------------------------

ANCHOR = ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=15.0)
# a box wide enough that exp(-theta * threshold) underflows at its top
WIDE = ExponentialFamily(ParamSpace([1e-3], [100.0]))
fit_settings = settings(derandomize=True, deadline=None, database=None, max_examples=40)


def _scan_thetas(lik):
    """fit_mle's 65-point grid plus, per state, a theta just past the underflow of its survival."""
    lo, hi = WIDE.param_space.lower[0], WIDE.param_space.upper[0]
    edges = 746.0 / lik.thresholds
    return np.concatenate([np.linspace(lo, hi, 65), edges[edges < hi]])


def _assert_scan_matches_scalar(path, thetas):
    lik = _Likelihood(path, ANCHOR, WIDE)
    scan, effective = lik.scan(thetas[:, None])
    scalar = np.array([log_likelihood(path, [t], ANCHOR, WIDE) for t in thetas])
    np.testing.assert_array_equal(effective, [lik.effective([t]) for t in thetas])
    # bit for bit: the fit's golden phase takes its values from the scan
    np.testing.assert_array_equal(scan, scalar)


@fit_settings
@given(theta0=st.floats(0.005, 0.5), k=st.integers(20, 3000), seed=st.integers(0, 2**32 - 1))
def test_scan_matches_log_likelihood_row_by_row(theta0, k, seed):
    path = simulate_path(ANCHOR, WIDE, [theta0], SimOptions(steps=k, seed=seed))
    _assert_scan_matches_scalar(path, _scan_thetas(_Likelihood(path, ANCHOR, WIDE)))


@fit_settings
@given(theta0=st.floats(0.005, 1.0), k=st.integers(50, 5000), seed=st.integers(0, 2**32 - 1))
@example(theta0=0.02, k=100_000, seed=6)
def test_fit_on_counts_equals_fit_on_the_path(theta0, k, seed):
    fam = ExponentialFamily(ParamSpace([1e-3], [5.0]))
    path = simulate_path(ANCHOR, fam, [theta0], SimOptions(steps=k, seed=seed))
    counts = transition_counts(path)
    assert fit_mle(counts, ANCHOR, fam).to_json() == fit_mle(path, ANCHOR, fam).to_json()
    np.testing.assert_array_equal(score(counts, [theta0], ANCHOR, fam),
                                  score(path, [theta0], ANCHOR, fam))


@pytest.mark.parametrize("states", [WORKED_STATES, [0, 1, 0, 1, 0, 1, 0], [0, 1, 2, 3, 4, 5]])
def test_fit_on_counts_equals_fit_on_a_hand_built_path(states, anchor_cfg, expo):
    path = make_path(states)
    assert (fit_mle(transition_counts(path), anchor_cfg, expo).to_json()
            == fit_mle(path, anchor_cfg, expo).to_json())


def test_likelihood_keys_its_table_on_the_value_of_theta():
    # the fit changes its iterate in place; a table kept for the old value must not answer
    lik = _Likelihood(make_path(WORKED_STATES), WORKED_CFG, WIDE)
    x = np.array([0.3])
    lik.loglik(x), lik.score(x)
    x[0] = 0.7
    fresh = _Likelihood(make_path(WORKED_STATES), WORKED_CFG, WIDE)
    assert lik.loglik(x) == fresh.loglik(np.array([0.7]))
    np.testing.assert_array_equal(lik.score(x), fresh.score(np.array([0.7])))
    np.testing.assert_array_equal(lik.information(x), fresh.information(np.array([0.7])))
    assert lik.effective(x) == fresh.effective(np.array([0.7]))


def test_scan_sums_the_live_states_of_an_underflowed_row():
    # state 2 is left only downwards: past its underflow edge the row is
    # finite but has a state nobody joins; past state 1's it is -inf
    path = make_path([0, 1, 2, 1, 0, 1, 0])
    thetas = _scan_thetas(_Likelihood(path, ANCHOR, WIDE))
    _assert_scan_matches_scalar(path, thetas)
    scan = _Likelihood(path, ANCHOR, WIDE).scan(thetas[:, None])[0]
    assert np.isfinite(scan[-1]) and np.isneginf(scan[-2])


@fit_settings
@given(theta0=st.floats(0.005, 1.0), k=st.integers(200, 5000), seed=st.integers(0, 2**32 - 1))
def test_score_vanishes_at_an_interior_mle(theta0, k, seed):
    fam = ExponentialFamily(ParamSpace([1e-3], [5.0]))
    path = simulate_path(ANCHOR, fam, [theta0], SimOptions(steps=k, seed=seed))
    fit = fit_mle(path, ANCHOR, fam)
    assume(not fit.boundary)
    # the Newton polish's own stopping rule
    assert fit.score_norm <= SCORE_RTOL * max(1.0, abs(fit.loglik))


def test_uniform_family_fits_through_the_row_by_row_scan(monkeypatch):
    fam = UniformValueFamily(width=4.0, lower=0.5, upper=5.0)
    assert UniformValueFamily.sf_rows is ValueFamily.sf_rows
    cfg = ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=0.0)
    path = simulate_path(cfg, fam, [2.5], SimOptions(steps=3000, seed=2))
    fit = fit_mle(path, cfg, fam)
    # the states everybody joins stay in the likelihood whatever theta is,
    # so the fit stays inside the box
    assert not fit.boundary and abs(fit.theta_hat[0] - 2.5) <= 0.2
    # the scan, row by row, scores each theta as log_likelihood does
    lik = _Likelihood(path, cfg, fam)
    thetas = np.linspace(0.5, 5.0, 301)
    np.testing.assert_array_equal(
        lik.scan(thetas[:, None])[0], [log_likelihood(path, [t], cfg, fam) for t in thetas]
    )

    # the same fit with every request answered one point at a time and a
    # golden phase that scores one point per round
    evaluate = inference._Batch.evaluate

    def one_at_a_time(self, reps, thetas, need=inference._LOGLIK):
        each = [evaluate(self, reps[i:i + 1], thetas[i:i + 1], need) for i in range(len(reps))]
        return inference._Values(*(None if field[0] is None else np.concatenate(field)
                                   for field in zip(*each)))

    monkeypatch.setattr(inference._Batch, "evaluate", one_at_a_time)
    monkeypatch.setattr(inference, "_FIT_DEPTH", 1)
    assert fit_mle(path, cfg, fam).to_json() == fit.to_json()


@pytest.mark.parametrize(
    "fam",
    [WIDE, UniformValueFamily(width=4.0, lower=0.5, upper=5.0)],
    ids=["exponential", "uniform"],
)
def test_batch_survival_rejects_rows_outside_the_box(fam):
    lower, upper = fam.param_space.lower[0], fam.param_space.upper[0]
    thresholds = np.array([1.0, 2.0, 3.0])
    inside = np.array([[lower], [upper]])
    np.testing.assert_array_equal(
        fam.sf_rows(thresholds, inside), [fam.sf(thresholds, row) for row in inside]
    )
    for bad in (upper * 1.5, lower - 1.0, np.nan):
        rows = np.array([[lower], [bad], [upper]])
        with pytest.raises(ValueError) as batch:
            fam.sf_rows(thresholds, rows)
        with pytest.raises(ValueError) as single:
            fam.param_space.require(rows[1])
        assert str(batch.value) == str(single.value)
        with pytest.raises(ValueError, match="outside the parameter space"):
            log_likelihood(make_path([0, 1, 0]), [bad], ANCHOR, fam)


# --- a two-parameter family: the same fit routine in two dimensions ---------

WEIBULL = WeibullValueFamily([0.5, 2.0], [10.0, 60.0])
WEIBULL_CFG = ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=5.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    shape=st.floats(0.6, 9.5),
    scale=st.floats(2.5, 55.0),
    r=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8),
)
def test_weibull_derivatives_match_central_differences(shape, scale, r):
    theta, r = np.array([shape, scale]), np.array(r)
    grad, hess = WEIBULL.grad_cdf(r, theta), WEIBULL.hess_cdf(r, theta)
    assert grad.shape == (len(r), 2) and hess.shape == (len(r), 2, 2)
    for j in range(2):
        step = np.zeros(2)
        step[j] = 1e-6 * theta[j]
        fd_grad = (WEIBULL.cdf(r, theta + step) - WEIBULL.cdf(r, theta - step)) / (2 * step[j])
        fd_hess = (
            WEIBULL.grad_cdf(r, theta + step) - WEIBULL.grad_cdf(r, theta - step)
        ) / (2 * step[j])
        np.testing.assert_allclose(grad[:, j], fd_grad, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(hess[:, :, j], fd_hess, rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(WEIBULL.sf(r, theta), 1.0 - WEIBULL.cdf(r, theta), atol=1e-15)


def _grid_best(lik, n):
    """Best loglik over an n x n grid of the box, scored in one scan."""
    lower, upper = WEIBULL.param_space.lower, WEIBULL.param_space.upper
    a, b = np.meshgrid(np.linspace(lower[0], upper[0], n), np.linspace(lower[1], upper[1], n))
    return lik.scan(np.column_stack([a.ravel(), b.ravel()]))[0].max()


def test_two_parameter_fit_and_information():
    theta0 = [2.0, 20.0]
    path = simulate_path(
        WEIBULL_CFG, WEIBULL, theta0,
        SimOptions(steps=2 * 10**4, seed=1, initial_state="stationary-warmup"),
    )
    fit = fit_mle(path, WEIBULL_CFG, WEIBULL)
    assert not fit.boundary
    assert fit.score_norm <= 1e-6
    assert fit.loglik >= _grid_best(_Likelihood(path, WEIBULL_CFG, WEIBULL), 61)
    sigma = theoretical_sigma(theta0, WEIBULL_CFG, WEIBULL)
    np.testing.assert_array_equal(sigma, sigma.T)
    assert np.all(np.linalg.eigvalsh(sigma) > 0.0)
    assert abs(sigma[0, 1]) >= 0.1 * math.sqrt(sigma[0, 0] * sigma[1, 1])
    assert confidence_interval(fit, 0.95).shape == (2, 2)


def test_two_parameter_fit_reaches_the_grid_optimum():
    # the grid reaches -1190.0 near (3.86, 12.63); a local search from the
    # box center can stall near (2.25, 14.76) at -1192.55
    path = simulate_path(
        WEIBULL_CFG, WEIBULL, [4.0, 12.0],
        SimOptions(steps=2000, seed=3, initial_state="stationary-warmup"),
    )
    fit = fit_mle(path, WEIBULL_CFG, WEIBULL)
    assert fit.loglik >= _grid_best(_Likelihood(path, WEIBULL_CFG, WEIBULL), 61)
    assert fit.score_norm <= SCORE_RTOL * max(1.0, abs(fit.loglik))


@pytest.mark.parametrize(
    "theta0, k, seed",
    [((7.0, 6.0), 500, 3), ((3.0, 30.0), 500, 0)],
    ids=["7-6-seed3", "3-30-seed0"],
)
def test_two_parameter_fit_on_the_box_edge(theta0, k, seed):
    # the optimum has the shape at its upper bound 10; (3, 30) also has a
    # local maximum inside the box, 0.03 below the grid's best
    path = simulate_path(
        WEIBULL_CFG, WEIBULL, theta0,
        SimOptions(steps=k, seed=seed, initial_state="stationary-warmup"),
    )
    fit = fit_mle(path, WEIBULL_CFG, WEIBULL)
    assert fit.boundary
    assert fit.loglik >= _grid_best(_Likelihood(path, WEIBULL_CFG, WEIBULL), 61)


@pytest.mark.parametrize("price", [59.46427, 80.0])
def test_two_parameter_plateau_is_a_boundary_fit(price):
    # only q = 1 is left, always downwards: the log-likelihood is 0 wherever
    # nobody joins there, so no interior point is identified
    cfg = WEIBULL_CFG.with_price(price)
    fit = fit_mle(make_path([0, 1] * 5 + [0], price=price), cfg, WEIBULL)
    assert fit.boundary


# --- fits in a lockstep batch: each is fit_mle's, bit for bit -------------


def _counts(up, down):
    return np.array(up, dtype=np.int64), np.array(down, dtype=np.int64)


# Hand-built count tables: every informative move down (a fit on the upper
# bound) or up (on the lower bound), a plateau of the Weibull family at price
# 59.46427 (q = 1 left only downwards), moves out of the empty queue only (no
# informative transition) and no move at all.
ALL_DOWN = _counts([3, 0, 0, 0], [0, 4, 2, 1])
ALL_UP = _counts([2, 5, 3], [0, 0, 0])
PLATEAU = _counts([5, 0], [0, 5])
EMPTY_QUEUE_ONLY = _counts([5], [0])
NO_MOVES = _counts([0], [0])

# (config, family) pairs: the studies' box, a box whose top underflows
# exp(-theta r), and at price 0 one whose top floors some states and not others
EXPONENTIAL_SETTINGS = [
    (ANCHOR, ExponentialFamily(ParamSpace([1e-3], [5.0]))),
    (ANCHOR, WIDE),
    (WORKED_CFG, ExponentialFamily(ParamSpace([0.01], [5.0]))),
    (WORKED_CFG, WIDE),
]
batch_settings = settings(derandomize=True, deadline=None, database=None, max_examples=40)


@st.composite
def count_tables(draw, max_state):
    """One replication's up and down counts per state, with states left out at random."""
    size = draw(st.integers(2, max_state + 1))
    cells = st.lists(st.integers(0, 60), min_size=size, max_size=size)
    kept = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    return _counts(np.array(draw(cells)) * kept, np.array(draw(cells)) * kept)


def _assert_batch_equals_one_fit_each(tables, cfg, fam):
    """_fit_batch is fit_mle per replication, or raises the error of the first that raises."""
    singles = []
    for counts in tables:
        try:
            singles.append(fit_mle(counts, cfg, fam))
        except ValueError as exc:
            singles.append(exc)
    errors = [one for one in singles if isinstance(one, ValueError)]
    if errors:
        with pytest.raises(ValueError) as raised:
            _fit_batch(tables, cfg, fam)
        assert str(raised.value) == str(errors[0])
        return
    fits = _fit_batch(tables, cfg, fam)
    assert len(fits) == len(tables)
    for fit, one in zip(fits, singles):
        assert fit.to_json() == one.to_json()
        assert fit.theta_hat.tobytes() == one.theta_hat.tobytes()


@batch_settings
@given(
    setting=st.sampled_from(range(len(EXPONENTIAL_SETTINGS))),
    tables=st.lists(st.one_of(count_tables(25), st.sampled_from([ALL_DOWN, ALL_UP])),
                    min_size=1, max_size=8),
)
@example(setting=3, tables=[ALL_DOWN, _counts([0, 7, 3, 0, 2], [0, 9, 4, 1, 6]), ALL_UP])
def test_batched_fits_equal_one_fit_each(setting, tables):
    _assert_batch_equals_one_fit_each(tables, *EXPONENTIAL_SETTINGS[setting])


@batch_settings
@given(
    tables=st.lists(st.one_of(count_tables(6), st.sampled_from([ALL_DOWN, ALL_UP])),
                    max_size=6),
    bad=st.lists(st.tuples(st.integers(0, 6), st.sampled_from([EMPTY_QUEUE_ONLY, NO_MOVES])),
                 min_size=1, max_size=2),
)
def test_batch_raises_the_error_of_its_first_failing_fit(tables, bad):
    tables = list(tables)
    for position, counts in bad:
        tables.insert(position, counts)
    _assert_batch_equals_one_fit_each(tables, ANCHOR, EXPONENTIAL_SETTINGS[0][1])


@settings(derandomize=True, deadline=None, database=None, max_examples=6)
@given(
    price=st.sampled_from([5.0, 59.46427]),
    tables=st.lists(st.one_of(count_tables(12), st.sampled_from([ALL_DOWN, ALL_UP, PLATEAU])),
                    min_size=1, max_size=3),
)
@example(price=59.46427, tables=[PLATEAU, ALL_DOWN])
def test_batched_two_parameter_fits_equal_one_fit_each(price, tables):
    _assert_batch_equals_one_fit_each(tables, WEIBULL_CFG.with_price(price), WEIBULL)


def test_import_does_not_load_scipy():
    code = "import sys, balkwise; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
