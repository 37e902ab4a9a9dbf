"""Property tests of the per-state join-rule table over random models.

Examples are derived deterministically (derandomize=True) and untimed, so the
suite stays reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from balkwise.model import ExponentialFamily, ModelConfig, ParamSpace, StateTable

FAM = ExponentialFamily(ParamSpace([1e-3], [5.0]))
STATES = np.arange(60)

models = st.builds(
    ModelConfig,
    lam=st.floats(0.05, 20.0),
    mu=st.floats(0.05, 20.0),
    cost_c=st.floats(0.01, 10.0),
    price=st.floats(0.0, 100.0),
)
# kept off the box edges so that theta +- h stays inside it
thetas = st.floats(2e-3, 4.9)

table_settings = settings(derandomize=True, deadline=None, database=None, max_examples=80)


@table_settings
@given(cfg=models, theta=thetas)
def test_up_and_down_probabilities_sum_to_one(cfg, theta):
    tab = StateTable(STATES, [theta], cfg, FAM)
    np.testing.assert_allclose(tab.p_up + tab.p_down, 1.0, rtol=1e-14)
    assert tab.p_up[0] == 1.0 and tab.p_down[0] == 0.0


@table_settings
@given(cfg=models, theta=thetas)
def test_joining_rate_does_not_increase_with_queue_length(cfg, theta):
    tab = StateTable(STATES, [theta], cfg, FAM)
    assert np.all(np.diff(tab.lam_q) <= 0.0)
    assert np.all((tab.lam_q >= 0.0) & (tab.lam_q <= cfg.lam))


def _close_to_central_difference(exact, plus, minus, h):
    fd = (plus - minus) / (2.0 * h)
    # each entry within 1e-4 relative, or within 1e-6 of the largest entry
    scale = max(float(np.max(np.abs(exact))), 1e-12)
    np.testing.assert_allclose(exact, fd, rtol=1e-4, atol=1e-6 * scale)


@table_settings
@given(cfg=models, theta=thetas)
def test_derivatives_match_central_differences(cfg, theta):
    h = 1e-6 * theta
    tab = StateTable(STATES, [theta], cfg, FAM)
    plus = StateTable(STATES, [theta + h], cfg, FAM)
    minus = StateTable(STATES, [theta - h], cfg, FAM)
    _close_to_central_difference(tab.dp[:, 0], plus.p_up, minus.p_up, h)
    _close_to_central_difference(tab.d2p[:, 0, 0], plus.dp[:, 0], minus.dp[:, 0], h)
    assert np.all(tab.dp[0] == 0.0) and np.all(tab.d2p[0] == 0.0)


@table_settings
@given(cfg=models, theta=thetas)
def test_exponential_joining_rate_is_memoryless(cfg, theta):
    # P(R >= p + x) = P(R >= p) * P(R >= x) for exponential values
    tab = StateTable(STATES, [theta], cfg, FAM)
    oracle = cfg.lam * FAM.sf(cfg.price, [theta]) * FAM.sf((STATES + 1) * cfg.cost_c / cfg.mu, [theta])
    np.testing.assert_allclose(tab.lam_q, oracle, rtol=1e-11, atol=1e-300)
