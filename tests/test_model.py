import math
import pickle
import re
import warnings
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balkwise import model
from balkwise.model import (
    ExponentialFamily,
    ModelConfig,
    ParamSpace,
    ValueFamily,
    grid_then_golden,
    is_informative,
    joining_rate,
    offered_reward,
    up_prob_grad,
    up_prob_hess,
    up_probability,
)
from balkwise.inference import log_likelihood, score
from balkwise.pricing import PricingTrace, trace_metrics
from balkwise.simulator import SimOptions, simulate_path
from balkwise.stationary import (expected_revenue, optimal_price, price_upper_bound,
                                 revenue_curve, stationary_distribution, theoretical_sigma)
from balkwise.inference import fit_mle
from helpers import (UniformValueFamily, WeibullValueFamily, exponential_cdf_derivatives_oracle,
                     exponential_survival_oracle, golden_one_point_at_a_time, make_path)


def test_offered_reward_values():
    assert offered_reward(0, ModelConfig(1, 1, 1, 15)) == 16.0
    assert offered_reward(0, ModelConfig(1, 1, 1, 0)) == 1.0
    assert offered_reward(9, ModelConfig(1, 1, 1, 15)) == 25.0


def test_offered_reward_rejects_negative_state(anchor_cfg):
    with pytest.raises(ValueError):
        offered_reward(-1, anchor_cfg)


@pytest.mark.parametrize(
    "bad",
    [
        dict(lam=0, mu=1, cost_c=1, price=1),
        dict(lam=1, mu=-1, cost_c=1, price=1),
        dict(lam=1, mu=1, cost_c=0, price=1),
        dict(lam=1, mu=1, cost_c=1, price=-0.5),
        dict(lam=math.inf, mu=1, cost_c=1, price=1),
        dict(lam=1, mu=math.inf, cost_c=1, price=1),
        dict(lam=1, mu=1, cost_c=math.inf, price=1),
        dict(lam=1, mu=1, cost_c=1, price=math.inf),
    ],
)
def test_model_config_validation(bad):
    with pytest.raises(ValueError, match="must be" if math.inf not in bad.values() else "finite"):
        ModelConfig(**bad)


def test_param_space_validation():
    with pytest.raises(ValueError):
        ParamSpace([1.0], [1.0])
    with pytest.raises(ValueError):
        ParamSpace([1.0, 2.0], [3.0])
    for lower, upper in (([1.0], [math.inf]), ([-math.inf], [1.0]), ([0.0, 1.0], [1.0, math.inf])):
        with pytest.raises(ValueError, match="finite"):
            ParamSpace(lower, upper)
    space = ParamSpace([0.0, 1.0], [1.0, 2.0])
    assert space.dim == 2
    assert space.contains([0.5, 1.5])
    assert not space.contains([0.5, 2.5])
    with pytest.raises(ValueError):
        space.require([2.0, 1.5])


def test_param_space_keeps_read_only_copies_of_its_bounds():
    lower, upper = np.array([0.01]), np.array([5.0])
    fam = ExponentialFamily(ParamSpace(lower, upper))
    lower[0], upper[0] = -1.0, 50.0  # the caller's arrays no longer move the box
    space = fam.param_space
    assert space.lower.tolist() == [0.01] and space.upper.tolist() == [5.0]
    for copy in (space, pickle.loads(pickle.dumps(fam)).param_space, deepcopy(space)):
        assert copy == space
        with pytest.raises(ValueError, match="read-only"):
            copy.lower[0] = -1.0
    cfg = ModelConfig(1.0, 1.0, 1.0, 15.0)
    with pytest.raises(ValueError, match="outside the parameter space"):
        optimal_price([-0.5], cfg, fam)
    fit = fit_mle(make_path([0, 1, 2, 1, 2, 3, 2, 1, 0, 1] * 5), cfg, fam)
    assert 0.01 <= fit.theta_hat[0] <= 5.0


def test_param_space_is_equal_and_hashed_by_value():
    space = ParamSpace([0.0, 1.0], [1.0, 2.0])
    same = ParamSpace(np.array([0.0, 1.0]), (1, 2))
    assert space == same and hash(space) == hash(same) and len({space, same}) == 1
    assert space != ParamSpace([0.0, 1.0], [1.0, 3.0]) and space != ParamSpace([0.0], [1.0])
    assert space != (space.lower, space.upper)
    fam = ExponentialFamily(ParamSpace([0.01], [5.0]))
    twin = ExponentialFamily(ParamSpace(np.array([0.01]), np.array([5.0])))
    assert fam == twin and hash(fam) == hash(twin)
    assert fam != ExponentialFamily(ParamSpace([0.01], [4.0]))


def test_joining_rate_exponential(anchor_cfg, expo):
    # direct evaluation of lam * exp(-theta * r(0)) with r(0) = 16
    expected = math.exp(-0.32)
    assert joining_rate(0, [0.02], anchor_cfg, expo) == pytest.approx(expected, rel=1e-12)
    assert 0.72614 < expected < 0.72616


def test_joining_rate_limits(anchor_cfg):
    blocked = UniformValueFamily(width=1.0, lower=0.0, upper=5.0)
    # support entirely below the threshold: everyone balks
    assert joining_rate(0, [1.0], anchor_cfg, blocked) == 0.0
    open_gate = UniformValueFamily(width=1.0, lower=50.0, upper=200.0)
    # support entirely above the threshold: nobody balks
    assert joining_rate(0, [100.0], anchor_cfg, open_gate) == pytest.approx(anchor_cfg.lam)


def test_joining_rate_rejects_theta_outside_box(anchor_cfg, expo):
    with pytest.raises(ValueError):
        joining_rate(0, [99.0], anchor_cfg, expo)


def test_up_probability_cases(anchor_cfg, expo):
    assert up_probability(0, [0.02], anchor_cfg, expo) == 1.0
    s = math.exp(-0.34)
    assert up_probability(1, [0.02], anchor_cfg, expo) == pytest.approx(s / (1 + s), rel=1e-12)
    assert 0.41580 < s / (1 + s) < 0.41582
    # nobody joins at this state: down is certain
    blocked = UniformValueFamily(width=1.0, lower=0.0, upper=5.0)
    assert up_probability(3, [1.0], anchor_cfg, blocked) == 0.0
    # no balking and symmetric rates
    open_gate = UniformValueFamily(width=1.0, lower=50.0, upper=200.0)
    assert up_probability(1, [100.0], anchor_cfg, open_gate) == pytest.approx(0.5)


def test_joining_rate_nonincreasing_in_state(anchor_cfg, expo):
    rates = joining_rate(np.arange(0, 40), [0.05], anchor_cfg, expo)
    assert np.all(np.diff(rates) <= 0)


def test_up_prob_grad_value(anchor_cfg, expo):
    # direct evaluation: -mu*lam*r(1)*exp(-theta*r(1)) / (mu+lam*exp(-theta*r(1)))^2
    s = math.exp(-0.34)
    expected = -17.0 * s / (1.0 + s) ** 2
    got = up_prob_grad(1, [0.02], anchor_cfg, expo)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-4.12950, abs=5e-6)


def test_up_prob_grad_state_zero_convention(anchor_cfg, expo):
    assert np.all(up_prob_grad(0, [0.02], anchor_cfg, expo) == 0.0)
    assert np.all(up_prob_hess(0, [0.02], anchor_cfg, expo) == 0.0)


def test_up_prob_grad_flat_direction(anchor_cfg):
    fam = UniformValueFamily(width=1.0, lower=0.0, upper=5.0)
    # threshold far above the support: cdf locally flat in the parameter
    assert np.all(up_prob_grad(5, [1.0], anchor_cfg, fam) == 0.0)
    assert np.all(up_prob_hess(5, [1.0], anchor_cfg, fam) == 0.0)


def _fd_up_prob(q, theta, cfg, fam, h):
    hi = up_probability(q, [theta + h], cfg, fam)
    lo = up_probability(q, [theta - h], cfg, fam)
    return (hi - lo) / (2 * h)


def _fd_up_grad(q, theta, cfg, fam, h):
    hi = up_prob_grad(q, [theta + h], cfg, fam)[0]
    lo = up_prob_grad(q, [theta - h], cfg, fam)[0]
    return (hi - lo) / (2 * h)


@pytest.mark.parametrize("theta", [0.01, 0.02, 0.1, 0.5, 1.0])
def test_up_prob_grad_matches_finite_difference(theta, anchor_cfg, expo):
    for q in range(1, 31):
        h = 1e-6 * theta
        fd = _fd_up_prob(q, theta, anchor_cfg, expo, h)
        got = up_prob_grad(q, [theta], anchor_cfg, expo)[0]
        if fd == 0.0:
            assert abs(got) < 1e-12
        else:
            assert got == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("theta", [0.02, 0.1, 0.5])
def test_up_prob_hess_matches_finite_difference(theta, anchor_cfg, expo):
    for q in range(1, 31):
        h = 1e-5 * theta
        fd = _fd_up_grad(q, theta, anchor_cfg, expo, h)
        got = up_prob_hess(q, [theta], anchor_cfg, expo)[0, 0]
        if abs(fd) < 1e-14:
            assert abs(got) < 1e-10
        else:
            assert got == pytest.approx(fd, rel=1e-5)


def test_hess_symmetry(anchor_cfg, expo):
    h = up_prob_hess(3, [0.1], anchor_cfg, expo)
    assert np.allclose(h, h.T)


def test_exponential_closed_forms(expo):
    rs = np.array([0.5, 1.0, 16.0, 25.0, 120.0])
    theta = 0.07
    # independent evaluation of the closed-form derivative expressions
    assert np.allclose(expo.cdf(rs, [theta]), 1.0 - np.exp(-theta * rs), rtol=0, atol=1e-15)
    assert np.allclose(
        expo.grad_cdf(rs, [theta])[:, 0], rs * np.exp(-theta * rs), rtol=1e-15
    )
    assert np.allclose(
        expo.hess_cdf(rs, [theta])[:, 0, 0], -(rs**2) * np.exp(-theta * rs), rtol=1e-15
    )


def test_exponential_cdf_properties(expo):
    assert expo.cdf(0.0, [0.5]) == 0.0
    assert expo.cdf(-3.0, [0.5]) == 0.0
    rs = np.linspace(0, 100, 300)
    vals = expo.cdf(rs, [0.3])
    assert np.all(np.diff(vals) > 0)
    assert np.all((vals >= 0) & (vals <= 1))


def test_exponential_survival_avoids_cancellation(expo):
    # 1 - cdf would round to zero here; the survival form must not
    assert expo.sf(16.0, [5.0]) == pytest.approx(math.exp(-80.0), rel=1e-12)
    assert 0.0 < expo.sf(16.0, [5.0]) < 1e-30


def test_exponential_quantile(expo):
    for u in (0.0, 0.3, 0.99):
        r = expo.quantile(u, [0.25])
        assert expo.cdf(r, [0.25]) == pytest.approx(u, abs=1e-12)


def test_generic_quantile_bisection():
    # the Weibull test family has no quantile of its own: ValueFamily's float search runs
    assert WeibullValueFamily.quantile is ValueFamily.quantile
    fam = WeibullValueFamily([0.5, 2.0], [10.0, 60.0])
    for shape, scale in ((2.0, 20.0), (0.5, 2.0), (10.0, 60.0), (0.7, 45.0)):
        def closed(u):
            return scale * (-math.log1p(-u)) ** (1.0 / shape)

        # the closed form is 0 at u = 0, the lower end of the support
        assert fam.quantile(0.0, [shape, scale]) == 0.0
        for u in (0.25, 0.5, 0.9):
            assert fam.quantile(u, [shape, scale]) == pytest.approx(closed(u), rel=1e-13)
        # near 1 the cdf resolves u to one rounding unit only, a relative error
        # in the quantile of about 1e-16 / ((1 - u) shape log(1 / (1 - u)))
        assert fam.quantile(1 - 1e-9, [shape, scale]) == pytest.approx(closed(1 - 1e-9), rel=1e-7)


def test_is_informative(anchor_cfg, expo):
    assert not is_informative(0, [0.02], anchor_cfg, expo)
    assert is_informative(3, [0.02], anchor_cfg, expo)
    assert is_informative(3, [4.9], anchor_cfg, expo)
    blocked = UniformValueFamily(width=1.0, lower=0.0, upper=5.0)
    assert not is_informative(3, [1.0], anchor_cfg, blocked)  # cdf exactly 1
    open_gate = UniformValueFamily(width=1.0, lower=50.0, upper=200.0)
    assert not is_informative(1, [100.0], anchor_cfg, open_gate)  # cdf exactly 0


def test_uniform_family_gradient_matches_fd(anchor_cfg):
    fam = UniformValueFamily(width=10.0, lower=5.0, upper=30.0)
    r, theta = 16.0, 12.0  # interior of the support, away from the kinks
    h = 1e-6 * theta
    fd = (fam.cdf(r, [theta + h]) - fam.cdf(r, [theta - h])) / (2 * h)
    assert fam.grad_cdf(r, [theta])[0] == pytest.approx(fd, rel=1e-6)


# --- the family contract: two kernels, every public method derived from them --

# thresholds below 0, at 0 and up to where every survival underflows
THRESHOLDS = st.one_of(st.floats(-1e6, -1e-300), st.just(0.0), st.just(-0.0),
                       st.floats(0.0, 1e3), st.floats(1e3, 1e300))
FAMILIES = {
    "exponential": ExponentialFamily(ParamSpace([1e-3], [5.0])),
    "uniform": UniformValueFamily(width=4.0, lower=0.5, upper=5.0),
    "weibull": WeibullValueFamily([0.5, 2.0], [10.0, 60.0]),
}


def _same_bits(got, want):
    return np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", FAMILIES)
@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(at=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       r=st.lists(THRESHOLDS, min_size=1, max_size=40), table=st.booleans())
def test_public_family_methods_are_their_kernels(name, at, r, table):
    # sf, grad_cdf and hess_cdf are require, a kernel call and a reshape; the
    # likelihood, the price searches and StateTable call the kernels on a theta
    # validated once, or on (n, dim) rows require_rows validated once
    fam = FAMILIES[name]
    space = fam.param_space
    fractions = np.resize(np.array(at), (len(at), fam.dim))  # one box point per row
    thetas = space.require_rows(space.clip(space.lower + fractions * space.width))
    r = np.array(r)
    rows = np.array([np.roll(r, i) for i in range(len(thetas))]) if table else r
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # past r = 1.3e154, where r**2 overflows, Hessians are -0
        for shaped in (r, r[None, :]):  # a vector, and a (price x state) table
            survival = fam._survival(shaped, thetas[0])
            grad, hess = fam._cdf_derivatives(shaped, thetas[0])
            assert _same_bits(fam.sf(shaped, thetas[0]), survival)
            assert _same_bits(fam.grad_cdf(shaped, thetas[0]), grad)
            assert _same_bits(fam.hess_cdf(shaped, thetas[0]), hess)
            assert survival.shape == shaped.shape and grad.shape == shaped.shape + (fam.dim,)
            assert hess.shape == shaped.shape + (fam.dim, fam.dim)
        for scalar in (r[0], -1.0, 0.0):
            one = np.array([scalar])
            value = fam.sf(scalar, thetas[0])
            assert type(value) is float and _same_bits(value, fam._survival(one, thetas[0])[0])
            assert type(fam.cdf(scalar, thetas[0])) is float
            grad_one, hess_one = fam._cdf_derivatives(one, thetas[0])
            assert _same_bits(fam.grad_cdf(scalar, thetas[0]), grad_one[0])
            assert _same_bits(fam.hess_cdf(scalar, thetas[0]), hess_one[0])
        # row i of the parameters at row i of r, or at the one row r shared by all:
        # row i of each kernel is the public method at parameter row i
        survival, (grad, hess) = fam._survival(rows, thetas), fam._cdf_derivatives(rows, thetas)
        assert survival.shape == (len(thetas), r.size)
        for i, theta in enumerate(thetas):
            r_i = rows[i] if table else r
            assert _same_bits(survival[i], fam.sf(r_i, theta))
            assert _same_bits(grad[i], fam.grad_cdf(r_i, theta))
            assert _same_bits(hess[i], fam.hess_cdf(r_i, theta))
        assert np.isfinite(grad).all() and np.isfinite(hess).all()

    # a row outside the box raises as require does, in every public method
    bad = space.upper + space.width
    with pytest.raises(ValueError) as single:
        space.require(bad)
    for method in (fam.sf, fam.grad_cdf, fam.hess_cdf):
        with pytest.raises(ValueError, match=re.escape(str(single.value))):
            method(r, bad)
    with pytest.raises(ValueError, match=re.escape(str(single.value))):
        space.require_rows(np.vstack([thetas, bad]))

    # the derivatives match central differences of the cdf and of the gradient,
    # at an interior parameter and wherever the cdf is smooth at two step sizes
    theta = space.lower + (0.1 + 0.8 * fractions[0]) * space.width
    grad, hess = fam.grad_cdf(r, theta), fam.hess_cdf(r, theta)
    for j in range(fam.dim):
        fds = []
        for h in (1e-6 * theta[j], 0.5e-6 * theta[j]):
            step = np.zeros(fam.dim)
            step[j] = h
            fds.append(((fam.cdf(r, theta + step) - fam.cdf(r, theta - step)) / (2 * h),
                        (fam.grad_cdf(r, theta + step) - fam.grad_cdf(r, theta - step)) / (2 * h)))
        (fd_grad, fd_hess), (half_grad, half_hess) = fds
        smooth = np.isclose(fd_grad, half_grad, rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(grad[smooth, j], fd_grad[smooth], rtol=1e-5, atol=1e-8)
        smooth = np.isclose(fd_hess, half_hess, rtol=1e-4, atol=1e-8).all(axis=-1)
        np.testing.assert_allclose(hess[smooth, :, j], fd_hess[smooth], rtol=1e-5, atol=1e-8)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(at=st.floats(0.0, 1.0), r=st.lists(THRESHOLDS, min_size=1, max_size=40),
       table=st.booleans())
def test_unvalidated_survival_equals_sf_bit_for_bit(at, r, table):
    # the row kernels call _survival on a theta validated once; it must be sf there
    fam = ExponentialFamily(ParamSpace([1e-3], [5.0]))
    space = fam.param_space
    theta = space.require(space.clip(space.lower + at * space.width))
    r = np.array(r).reshape(1, -1) if table else np.array(r)
    got, want = fam._survival(r, theta), fam.sf(r, theta)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for scalar in (r.flat[0], -1.0, 0.0):
        one, expected = fam._survival(np.array([scalar]), theta)[0], fam.sf(scalar, theta)
        assert type(expected) is float
        assert np.float64(one).tobytes() == np.float64(expected).tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(at=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       r=st.lists(THRESHOLDS, min_size=1, max_size=40), table=st.booleans())
def test_unvalidated_derivative_rows_equal_the_row_methods_bit_for_bit(at, r, table):
    # a fit's derivative rounds call _cdf_derivatives on rows require_rows
    # validated once; row i must be grad_cdf and hess_cdf at parameter row i,
    # on one shared row of thresholds or on a row of its own per parameter row
    fam = ExponentialFamily(ParamSpace([1e-3], [5.0]))
    space = fam.param_space
    thetas = space.require_rows(space.clip(space.lower + np.array(at)[:, None] * space.width))
    r = np.array([np.roll(r, i) for i in range(len(thetas))]) if table else np.array(r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # past r = 1.3e154, where r**2 overflows, the Hessian is -0
        grad, hess = fam._cdf_derivatives(r, thetas)
        want = [np.array([method(r[i] if table else r, theta) for i, theta in enumerate(thetas)])
                for method in (fam.grad_cdf, fam.hess_cdf)]
    for got, expected in zip((grad, hess), want):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert np.isfinite(got).all()


EDGE_THRESHOLDS = st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300),
                            st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(at=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       r=st.lists(EDGE_THRESHOLDS, min_size=1, max_size=40), rows=st.sampled_from([0, 1, 2]))
def test_exponential_kernels_equal_their_masked_oracles_bit_for_bit(at, r, rows):
    # rows 0: one theta for all of r; 1: (n, dim) rows sharing r; 2: a row of r per theta row
    fam = ExponentialFamily(ParamSpace([1e-3], [5.0]))
    space = fam.param_space
    thetas = space.clip(space.lower + np.array(at)[:, None] * space.width)
    theta = thetas[0] if rows == 0 else thetas
    r = np.array([np.roll(r, i) for i in range(len(thetas))]) if rows == 2 else np.array(r)
    with np.errstate(all="ignore"):  # inf * 0 at r = inf is NaN in both
        got = (fam._survival(r, theta), *fam._cdf_derivatives(r, theta))
        want = (exponential_survival_oracle(r, theta), *exponential_cdf_derivatives_oracle(r, theta))
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_far_tail_hessian_is_negative_zero():
    # r**2 overflows past about 1.3e154, where the decay is already 0
    fam = ExponentialFamily()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hess = fam.hess_cdf(np.array([2e154, 1e300]), [0.02])
    assert hess.shape == (2, 1, 1) and (hess == 0.0).all() and np.signbit(hess).all()


def _entry_points():
    cfg = ModelConfig(1.0, 1.0, 1.0, 15.0)
    path = make_path([0, 1, 2, 1, 0, 1])
    trace = PricingTrace(records=(), final_price=20.0, stopped_reason="budget")
    return {
        "expected_revenue": lambda t, fam: expected_revenue(20.0, t, cfg, fam),
        "optimal_price": lambda t, fam: optimal_price(t, cfg, fam),
        "price_upper_bound": lambda t, fam: price_upper_bound(t, cfg, fam),
        "stationary_distribution": lambda t, fam: stationary_distribution(t, cfg, fam),
        "revenue_curve": lambda t, fam: revenue_curve([10.0, 20.0], t, cfg, fam),
        "theoretical_sigma": lambda t, fam: theoretical_sigma(t, cfg, fam),
        "simulate_path": lambda t, fam: simulate_path(cfg, fam, t, SimOptions(steps=10, seed=0)),
        "trace_metrics": lambda t, fam: trace_metrics(trace, t, cfg, fam),
        "log_likelihood": lambda t, fam: log_likelihood(path, t, cfg, fam),
        "score": lambda t, fam: score(path, t, cfg, fam),
    }


@pytest.mark.parametrize("entry", sorted(_entry_points()))
@pytest.mark.parametrize("theta", [[5.5], [1e-4], [-0.02], [math.nan], [0.1, 0.2]])
def test_entry_points_reject_theta_outside_the_box(entry, theta, expo):
    # each validates theta once, with require's error; the kernels behind it do not
    with pytest.raises(ValueError) as expected:
        expo.param_space.require(theta)
    with pytest.raises(ValueError) as raised:
        _entry_points()[entry](theta, expo)
    assert str(raised.value) == str(expected.value)


# --- the speculative golden section against the one-point-at-a-time search --


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    lo=st.floats(-50.0, 50.0),
    width=st.floats(1e-6, 1e4),
    peak=st.floats(-0.2, 1.2),
    step=st.sampled_from([0.0, 1e-12, 1e-4, 0.02, 0.3, 10.0]),
    hole=st.floats(0.0, 1.0),
    hole_width=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    grid=st.integers(2, 65),
    tol=st.sampled_from([1e-12, 1e-9, 1e-4, 0.1]),
    ahead=st.integers(0, 24),
    settled_below=st.one_of(st.just(math.inf), st.floats(0.0, 1.0)),
    shape=st.sampled_from([2.0, 0.5, 1.0, 3.0, "ramp"]),
)
def test_speculative_golden_phase_equals_the_one_point_search(
    lo, width, peak, step, hole, hole_width, grid, tol, ahead, settled_below, shape
):
    # a peak -|t - peak|**shape (a parabola at 2; the skewed ones, and a
    # one-sided exponential ramp, make the predicted branch miss) cut into
    # plateaus of height step (ties, f1 == f2), with a -inf hole; past
    # settled_below the batch leaves every point but its first unscored
    # (NaN), so those are scored again when the search needs them
    hi = lo + width

    def f(x):
        t = (x - lo) / width
        if hole <= t <= hole + hole_width:
            return -math.inf
        v = math.expm1(8.0 * min(t - peak, 0.0)) if shape == "ramp" else -abs(t - peak) ** shape
        return math.floor(v / step) * step if step else v

    def scan(points):
        return [f(p) for p in points]

    scored, reference_scored, calls = [], [], []

    def batch(points):
        calls.append(len(points))
        scored.extend(points)
        return [f(x) if i == 0 or (x - lo) / width < settled_below else math.nan
                for i, x in enumerate(points)]

    def one(x):
        reference_scored.append(x)
        return f(x)

    expected = golden_one_point_at_a_time(one, lo, hi, grid, tol, scan=scan)
    saved, model._AHEAD = model._AHEAD, ahead
    try:
        result = grid_then_golden(scan, lo, hi, grid, tol, batch)
    finally:
        model._AHEAD = saved
    assert type(result) is np.float64 and result == expected
    if settled_below == math.inf:
        # the first call scores both inner points and both points of the
        # next step; a later call, the point it asks for and both points of
        # the step after it, so each settles at least two steps
        steps = len(reference_scored) - 2
        if ahead:
            assert len(calls) <= 1 + math.ceil(max(steps - 1, 0) / 2)
        else:
            assert scored == reference_scored
