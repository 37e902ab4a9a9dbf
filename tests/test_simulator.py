import io
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balkwise import simulator
from balkwise.inference import transition_counts
from balkwise.model import (
    ExponentialFamily,
    ModelConfig,
    ParamSpace,
    StateTable,
    offered_reward,
    up_probability,
)
from balkwise.simulator import (
    AbsorbingStateError,
    QueuePath,
    SimOptions,
    build_path,
    concat_paths,
    path_stats,
    simulate_full_arrivals,
    simulate_path,
)
from helpers import UniformValueFamily, make_path, reference_path, reference_walks


def test_sim_options_validation():
    with pytest.raises(ValueError):
        SimOptions(steps=0)
    with pytest.raises(ValueError):
        SimOptions(steps=1, warmup_steps=-1)
    with pytest.raises(ValueError):
        SimOptions(steps=1, initial_state=-2)
    with pytest.raises(ValueError):
        SimOptions(steps=1, initial_state="warm")
    assert SimOptions(steps=1).resolve() == (0, 0)
    assert SimOptions(steps=1, initial_state=3, warmup_steps=7).resolve() == (3, 7)
    assert SimOptions(steps=1, initial_state="stationary-warmup").resolve() == (0, 1000)
    assert SimOptions(steps=1, initial_state="stationary-warmup", warmup_steps=5).resolve() == (0, 5)


@pytest.mark.parametrize(
    "field, value",
    [(field, value) for field in ("steps", "warmup_steps", "initial_state")
     for value in (2.5, 3.0, True, False)]
    + [("steps", "3"), ("warmup_steps", "3"), ("steps", None), ("initial_state", None)],
)
def test_sim_options_reject_a_count_that_is_not_an_integer(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        SimOptions(**{"steps": 5, field: value})


def test_sim_options_accept_numpy_integers(anchor_cfg, expo):
    opts = SimOptions(steps=np.int64(5), initial_state=np.int32(3), warmup_steps=np.uint8(2))
    assert opts.resolve() == (3, 2)
    assert len(simulate_path(anchor_cfg, expo, [0.02], opts)) == 5


def test_single_step_from_empty(anchor_cfg, expo):
    path = simulate_path(anchor_cfg, expo, [0.02], SimOptions(steps=1, seed=0))
    assert list(path.states) == [0, 1]
    assert list(path.ups) == [True]
    assert path.revenue == anchor_cfg.price


def test_determinism(anchor_cfg, expo):
    opts = SimOptions(steps=500, seed=42, initial_state="stationary-warmup")
    a = simulate_path(anchor_cfg, expo, [0.02], opts)
    b = simulate_path(anchor_cfg, expo, [0.02], opts)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.holds, b.holds)
    assert a.revenue == b.revenue
    c = simulate_path(anchor_cfg, expo, [0.02], SimOptions(steps=500, seed=43))
    assert not np.array_equal(a.states, c.states)


def test_path_invariants(anchor_cfg, expo):
    path = simulate_path(anchor_cfg, expo, [0.05], SimOptions(steps=2000, seed=7, warmup_steps=100))
    path.validate()
    assert path.revenue == anchor_cfg.price * path.ups.sum()


def test_burn_in_discarded(anchor_cfg, expo):
    full = simulate_path(anchor_cfg, expo, [0.02], SimOptions(steps=300, seed=9))
    tail = simulate_path(anchor_cfg, expo, [0.02], SimOptions(steps=200, seed=9, warmup_steps=100))
    assert np.array_equal(full.states[100:], tail.states)


def test_up_frequency_matches_model(anchor_cfg, expo):
    theta0 = [0.02]
    path = simulate_path(
        anchor_cfg, expo, theta0, SimOptions(steps=10**5, seed=11, initial_state="stationary-warmup")
    )
    pre = path.pre_states
    from_one = pre == 1
    frac = path.ups[from_one].mean()
    assert frac == pytest.approx(up_probability(1, theta0, anchor_cfg, expo), abs=0.01)
    # every well-visited state agrees within 3 binomial standard errors
    for q in range(1, int(pre.max()) + 1):
        sel = pre == q
        n = int(sel.sum())
        if n < 500:
            continue
        p = up_probability(q, theta0, anchor_cfg, expo)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(path.ups[sel].mean() - p) <= 3 * se


# walk lengths: short walks and long ones, over which the state table grows
WALK_LENGTHS = [1, 63, 16_384, 16_385, 16_621]


def _assert_same_path(got: QueuePath, want: QueuePath) -> None:
    np.testing.assert_array_equal(got.states, want.states)
    np.testing.assert_array_equal(got.ups, want.ups)
    np.testing.assert_array_equal(got.holds, want.holds)
    assert (got.revenue, got.total_time) == (want.revenue, want.total_time)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    lam=st.floats(0.3, 20.0),
    cost_c=st.floats(0.05, 2.0),
    price=st.floats(0.0, 40.0),
    theta=st.floats(1e-3, 0.5),
    start=st.sampled_from([0, 1, 7, 40]),
    warmup=st.sampled_from([0, 37]),
    walk=st.sampled_from(WALK_LENGTHS),
    next_steps=st.sampled_from([1, 300, 16_385]),
    seed=st.integers(0, 2**32 - 1),
)
# heavy traffic: the chain climbs to thousands, far past the first 64-state table
@example(lam=20.0, cost_c=1.0, price=0.0, theta=1e-3, start=0, warmup=0, walk=16_385,
         next_steps=16_385, seed=3)
# low traffic: the chain stays near the empty queue
@example(lam=0.3, cost_c=1.0, price=10.0, theta=0.5, start=0, warmup=0, walk=16_621,
         next_steps=16_385, seed=5)
def test_build_path_matches_the_one_step_walk(lam, cost_c, price, theta, start, warmup, walk,
                                              next_steps, seed):
    """build_path is exact: equal to the reference walk over two calls on one generator."""
    cfg = ModelConfig(lam=lam, mu=1.0, cost_c=cost_c, price=price)
    fam = ExponentialFamily(ParamSpace([1e-3], [5.0]))
    warmup = min(warmup, walk - 1)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = build_path(got_rng, start, warmup, walk - warmup, [theta], cfg, fam)
    _assert_same_path(got, reference_path(want_rng, start, warmup, walk - warmup, [theta], cfg, fam))
    # the second call continues the stream, as SimulatedSource.collect does
    end = int(got.states[-1])
    _assert_same_path(build_path(got_rng, end, 0, next_steps, [theta], cfg, fam),
                      reference_path(want_rng, end, 0, next_steps, [theta], cfg, fam))


# (cfg, theta): the anchor, heavy balking, light balking (the chain wanders far
# from the empty queue) and arrivals at twice the service rate
LAW_MODELS = {
    "anchor": (ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=15.0), 0.02),
    "heavy-balking": (ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=15.0), 0.2),
    "light-balking": (ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=2.0), 0.005),
    "lam-2mu": (ModelConfig(lam=2.0, mu=1.0, cost_c=1.0, price=15.0), 0.08),
}


def _assert_same_law(a: np.ndarray, b: np.ndarray, label) -> None:
    """Columns of two samples (one draw a row) with equal means and variances, within |z| <= 4.

    Only columns with at least 30 nonzero entries a side are compared; the
    standard error of each sample variance comes from its fourth central
    moment.
    """
    n = len(a)
    for j in range(a.shape[1]):
        x, y = a[:, j], b[:, j]
        if min(np.count_nonzero(x), np.count_nonzero(y)) < 30:
            continue
        z_mean = (x.mean() - y.mean()) / np.sqrt((x.var(ddof=1) + y.var(ddof=1)) / n)
        se_var = np.sqrt(sum((((v - v.mean()) ** 4).mean() - v.var() ** 2) / n for v in (x, y)))
        z_var = (x.var(ddof=1) - y.var(ddof=1)) / se_var
        assert abs(z_mean) <= 4 and abs(z_var) <= 4, (label, j, z_mean, z_var)


@pytest.mark.parametrize("model", LAW_MODELS)
def test_drawn_counts_have_the_law_of_the_walk(model):
    """Each state's up-move count has the walk's mean and variance, at k = 1, 2, 3, 10 and 2,000.

    2,000 draws a side, after a 30-step warm-up from state 3, so that the
    walk on to the first return to the empty queue takes part.  The
    reference counts are the first k transitions of one set of walks of
    2,000 steps.  Compared by two-sample z scores (``_assert_same_law``).
    """
    cfg, theta = LAW_MODELS[model]
    fam = ExponentialFamily(ParamSpace([1e-3], [5.0]))
    draws, start, warmup, longest = 2000, 3, 30, 2000
    walks = reference_walks(np.random.default_rng(41), draws, start, warmup, longest, [theta], cfg, fam)
    # the first chain is reference_path's walk
    first = reference_path(np.random.default_rng(41), start, warmup, longest, [theta], cfg, fam)
    np.testing.assert_array_equal(walks[0], first.states)
    rates = simulator._Rates(np.array([theta]), cfg, fam, start + 64)
    rng = np.random.default_rng(42)
    for k in (1, 2, 3, 10, longest):
        drawn = [simulator._counts(rng, start, warmup, k, rates)[0] for _ in range(draws)]
        pre, post = walks[:, :k], walks[:, 1:k + 1]
        size = max(int(walks.max()), max(map(len, drawn)))
        rows = np.arange(draws)[:, None] * size + pre  # (draw, pre-state) cells
        want = np.bincount(rows[post > pre], minlength=draws * size).reshape(draws, size)
        got = np.zeros((draws, size))
        for row, n_up in zip(got, drawn):
            row[:len(n_up)] = n_up
        _assert_same_law(got, want, (model, k))


def test_a_split_forest_has_the_law_of_its_first_trees():
    """The first 2 of 5 trees split off a drawn forest have the generation sizes of 2 trees drawn alone.

    4,000 forests a side, compared generation by generation (``_assert_same_law``).
    """
    cfg = ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=15.0)
    rates = simulator._Rates(np.array([0.02]), cfg, ExponentialFamily(ParamSpace([1e-3], [5.0])), 64)
    rng = np.random.default_rng(43)

    def forest(trees: int) -> list:
        gens = [trees]  # up moves from 0, 1, ...: the generation chain
        while gens[-1]:
            rates.cover(len(gens) + 1)
            gens.append(int(rng.negative_binomial(gens[-1], rates.down[len(gens)])))
        return gens

    draws = 4000
    split = [simulator._split(rng, forest(5), 2) for _ in range(draws)]
    alone = [forest(2) for _ in range(draws)]
    depth = max(map(len, split + alone))
    # generation 0 holds the 2 roots on both sides
    _assert_same_law(*(np.array([gens[1:] + [0] * (depth - len(gens)) for gens in side], dtype=float)
                       for side in (split, alone)), "split")


def _assert_moves_of_one_walk(n_up: np.ndarray, n_down: np.ndarray, steps: int) -> None:
    """Counts of a walk of ``steps`` unit moves on q >= 0 from some Q_0 to some Q_k.

    None is negative, nothing moves down from 0, and the flows over each
    edge balance: n_up[q] - n_down[q+1] = [Q_k > q] - [Q_0 > q], all +1 or
    all -1 over one run of states and 0 elsewhere.
    """
    assert n_up.shape == n_down.shape
    assert (n_up >= 0).all() and (n_down >= 0).all() and n_down[0] == 0
    assert int(n_up.sum() + n_down.sum()) == steps
    flow = n_up - np.append(n_down[1:], 0)
    moved = np.flatnonzero(flow)
    assert set(flow[moved].tolist()) in ({1}, {-1}, set())
    np.testing.assert_array_equal(moved, np.arange(len(moved)) + (moved[0] if len(moved) else 0))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    lam=st.floats(0.3, 4.0),
    cost_c=st.floats(0.05, 2.0),
    price=st.floats(0.0, 40.0),
    theta=st.floats(1e-3, 0.5),
    steps=st.integers(1, 3000),
    start=st.integers(0, 20),
    warmup=st.integers(0, 50),
    seed=st.integers(0, 2**32 - 1),
)
# one step: the root's up move alone
@example(lam=1.0, cost_c=1.0, price=15.0, theta=0.02, steps=1, start=0, warmup=0, seed=1)
def test_drawn_counts_are_the_moves_of_one_walk(lam, cost_c, price, theta, steps, start, warmup,
                                                 seed):
    cfg = ModelConfig(lam=lam, mu=1.0, cost_c=cost_c, price=price)
    fam = ExponentialFamily(ParamSpace([1e-3], [5.0]))
    runs = [SimOptions(steps=steps, seed=np.random.SeedSequence((seed, i)), initial_state=start,
                       warmup_steps=warmup) for i in range(3)]
    for n_up, n_down in simulator._walk_counts(cfg, fam, [theta], runs):
        _assert_moves_of_one_walk(n_up, n_down, steps)


def test_a_runs_counts_do_not_depend_on_the_runs_beside_it():
    # the chains climb past the first 64 states, so a shared state table grows inside a run
    cfg = ModelConfig(lam=3.0, mu=1.0, cost_c=0.2, price=0.0)
    fam = ExponentialFamily(ParamSpace([1e-3], [5.0]))
    runs = [SimOptions(steps=3000, seed=seed, initial_state="stationary-warmup", warmup_steps=200)
            for seed in range(6)]
    alone = [simulator._walk_counts(cfg, fam, [0.05], [opts])[0] for opts in runs]
    assert max(len(n_up) for n_up, _ in alone) > 64
    for shared in (simulator._walk_counts(cfg, fam, [0.05], runs),
                   simulator._walk_counts(cfg, fam, [0.05], runs[::-1])[::-1]):
        for (n_up, n_down), (want_up, want_down) in zip(shared, alone):
            np.testing.assert_array_equal(n_up, want_up)
            np.testing.assert_array_equal(n_down, want_down)


@pytest.mark.parametrize("theta, options, departures", [
    # p_up = 2/3 on states 1..5: the chain climbs, and still returns to the empty queue now and
    # then, so excursions are drawn after the walk's first return
    (6.0, dict(initial_state="stationary-warmup"), 2),
    # p_up = 2/3 on states 1..79, drawn from the empty queue: a generation of 5 * 10^4
    # excursions drawn whole would grow about 2^79-fold, past int64
    (80.0, dict(initial_state=0), 1),
])
def test_counts_of_a_chain_that_does_not_balk_stay_within_the_steps(theta, options, departures):
    cfg = ModelConfig(lam=2.0, mu=1.0, cost_c=1.0, price=0.0)
    fam = UniformValueFamily(width=12.0, lower=0.0, upper=100.0)
    steps = 10**5
    runs = [SimOptions(steps=steps, seed=seed, **options) for seed in range(3)]
    began = time.perf_counter()
    counts = simulator._walk_counts(cfg, fam, [theta], runs)
    assert time.perf_counter() - began < 1.0
    for n_up, n_down in counts:
        _assert_moves_of_one_walk(n_up, n_down, steps)
        assert n_up[0] >= departures


def test_count_walk_runs_share_their_settings(anchor_cfg, expo):
    runs = [SimOptions(steps=10, seed=1), SimOptions(steps=11, seed=2)]
    with pytest.raises(ValueError, match="share their start, warm-up and length"):
        simulator._walk_counts(anchor_cfg, expo, [0.02], runs)


@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(
    rho=st.floats(0.2, 3.0),
    theta=st.floats(0.05, 1.0),
    # theta times the threshold's step and its price: joining gets rarer fast
    # enough for every state to be visited often, and the empty queue is
    # left after at most e^2 arrivals on average
    theta_cost=st.floats(0.2, 1.0),
    theta_price=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_thinning_equivalence_of_up_frequencies(rho, theta, theta_cost, theta_price, seed):
    """The thinned chain and the per-customer simulation move up from each state equally often."""
    cfg = ModelConfig(lam=rho, mu=1.0, cost_c=theta_cost / theta, price=theta_price / theta)
    fam = ExponentialFamily(ParamSpace([1e-3], [5.0]))
    opts = SimOptions(steps=2000, seed=seed, initial_state="stationary-warmup", warmup_steps=200)
    paths = [sim(cfg, fam, [theta], opts) for sim in (simulate_path, simulate_full_arrivals)]
    size = max(int(path.states.max()) for path in paths) + 1
    moves = np.array([np.bincount(path.pre_states, minlength=size) for path in paths])
    ups = np.array([np.bincount(path.pre_states, path.ups, minlength=size) for path in paths])
    states = np.flatnonzero((moves >= 30).all(axis=0) & (np.arange(size) > 0))
    assert states.size > 0
    p_up = np.array([up_probability(int(q), [theta], cfg, fam) for q in states])
    freq = ups[:, states] / moves[:, states]
    sigma = np.sqrt(p_up * (1.0 - p_up) * (1.0 / moves[0, states] + 1.0 / moves[1, states]))
    assert np.all(np.abs(freq[0] - freq[1]) <= 5.0 * sigma)


def test_full_arrivals_up_frequencies_match_the_state_table():
    """Per-customer joining moves up from each state as often as StateTable.p_up says.

    Uniform values on [2, 12] put the thresholds 9, 10, 11 of states 0..2 near
    the top of the support, so a 5% error in the threshold lowers p_up by a sixth
    at state 1 and by half at state 2: about ten binomial standard errors at
    10^4 transitions.  At state 3 the threshold 12 is out of reach and nobody joins.
    """
    cfg = ModelConfig(lam=3.0, mu=1.0, cost_c=1.0, price=8.0)
    fam = UniformValueFamily(width=10.0, lower=0.0, upper=20.0)
    path = simulate_full_arrivals(cfg, fam, [2.0], SimOptions(steps=10_000, seed=1))
    moves = np.bincount(path.pre_states)[1:]
    ups = np.bincount(path.pre_states, path.ups)[1:]
    p_up = StateTable(np.arange(1, moves.size + 1), [2.0], cfg, fam).p_up
    assert moves.size == 3 and p_up[2] == 0.0 and ups[2] == 0
    z = (ups[:2] - moves[:2] * p_up[:2]) / np.sqrt(moves[:2] * p_up[:2] * (1.0 - p_up[:2]))
    assert np.all(np.abs(z) <= 4.0), z


def test_holding_time_means(anchor_cfg, expo):
    theta0 = [0.02]
    path = simulate_path(anchor_cfg, expo, theta0, SimOptions(steps=10**5, seed=13))
    pre = path.pre_states
    lam0 = anchor_cfg.lam * expo.sf(offered_reward(0, anchor_cfg), theta0)
    sel0 = pre == 0
    n0 = int(sel0.sum())
    mean0 = path.holds[sel0].mean()
    assert abs(mean0 - 1 / lam0) <= 3 * (1 / lam0) / math.sqrt(n0)
    for q in (1, 2):
        lam_q = anchor_cfg.lam * expo.sf(offered_reward(q, anchor_cfg), theta0)
        rate = lam_q + anchor_cfg.mu
        sel = pre == q
        n = int(sel.sum())
        assert abs(path.holds[sel].mean() - 1 / rate) <= 3 * (1 / rate) / math.sqrt(n)


def test_joining_rule_thresholds(anchor_cfg):
    # value 16.5 covers the threshold at an empty queue but not at length 1
    assert 16.5 >= offered_reward(0, anchor_cfg)
    assert 16.5 < offered_reward(1, anchor_cfg)


def test_thinning_equivalence_smoke(anchor_cfg, expo):
    k = 2 * 10**4
    thin = simulate_path(anchor_cfg, expo, [0.02], SimOptions(steps=k, seed=5, warmup_steps=500))
    full = simulate_full_arrivals(anchor_cfg, expo, [0.02], SimOptions(steps=k, seed=6, warmup_steps=500))
    occ_t = path_stats(thin).jump_occupancy
    occ_f = path_stats(full).jump_occupancy
    size = max(len(occ_t), len(occ_f))
    occ_t = np.pad(occ_t, (0, size - len(occ_t)))
    occ_f = np.pad(occ_f, (0, size - len(occ_f)))
    tv = 0.5 * np.abs(occ_t - occ_f).sum()
    assert tv <= 0.03


def test_full_arrivals_deterministic(anchor_cfg, expo):
    opts = SimOptions(steps=300, seed=21)
    a = simulate_full_arrivals(anchor_cfg, expo, [0.02], opts)
    b = simulate_full_arrivals(anchor_cfg, expo, [0.02], opts)
    assert np.array_equal(a.states, b.states)
    assert np.allclose(a.holds, b.holds)
    a.validate()


def test_absorbing_empty_state(anchor_cfg):
    blocked = UniformValueFamily(width=1.0, lower=0.0, upper=5.0)
    with pytest.raises(AbsorbingStateError):
        simulate_path(anchor_cfg, blocked, [1.0], SimOptions(steps=10, seed=0))
    with pytest.raises(AbsorbingStateError):
        simulate_full_arrivals(anchor_cfg, blocked, [1.0], SimOptions(steps=10, seed=0))
    with pytest.raises(AbsorbingStateError):
        simulator._walk_counts(anchor_cfg, blocked, [1.0], [SimOptions(steps=10, seed=0)])


def test_path_stats_two_step():
    path = make_path([0, 1, 0], holds=[0.4, 0.6], price=15.0)
    stats = path_stats(path)
    assert stats.up_count == 1
    assert stats.down_count == 1
    assert stats.revenue_rate == pytest.approx(15.0 / 1.0)
    assert stats.jump_occupancy[0] == pytest.approx(0.5)
    assert stats.time_occupancy[0] == pytest.approx(0.4)
    assert stats.effective_m == 1  # only the step out of state 1


def test_path_stats_effective_matches_informative(anchor_cfg, expo):
    path = simulate_path(anchor_cfg, expo, [0.02], SimOptions(steps=5000, seed=3))
    stats = path_stats(path)
    assert stats.effective_m == int((path.pre_states > 0).sum())


def test_path_stats_empty():
    with pytest.raises(ValueError):
        path_stats(make_path([0]))


def test_csv_round_trip(anchor_cfg, expo):
    path = simulate_path(anchor_cfg, expo, [0.02], SimOptions(steps=50, seed=17))
    buf = io.StringIO()
    path.to_csv(buf)
    buf.seek(0)
    header = buf.readline().strip()
    assert header == "step,state,up,hold"
    buf.seek(0)
    back = QueuePath.from_csv(buf, cfg=anchor_cfg)
    assert np.array_equal(back.states, path.states)
    assert np.array_equal(back.ups, path.ups)
    assert np.allclose(back.holds, path.holds)
    assert back.revenue == path.revenue


def test_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        QueuePath.from_csv(io.StringIO("a,b,c\n"))


def _raw_path(states=(0, 1, 2, 1), ups=(True, True, False), holds=(0.5, 0.2, 0.3), total_time=None):
    holds = np.asarray(holds, dtype=float)
    return QueuePath(
        states=np.asarray(states, dtype=np.int64),
        ups=np.asarray(ups, dtype=bool),
        holds=holds,
        revenue=0.0,
        total_time=float(holds.sum()) if total_time is None else total_time,
    )


@pytest.mark.parametrize(
    "change, invariant",
    [
        (dict(holds=(0.5, 0.2)), "needs 4 states and 3 holds"),
        (dict(states=(0, 1, 3, 2)), "moves the state by exactly 1"),
        (dict(states=(1, 0, -1, 0), ups=(False, False, True)), "states are nonnegative"),
        (dict(ups=(True, False, False)), "up flag matches its state change"),
        (dict(holds=(0.5, -0.2, 0.3)), "holding times are nonnegative"),
        (dict(total_time=5.0), "total time is the sum of holds"),
        (dict(holds=(0.5, math.inf, 0.3)), "holding times are nonnegative and finite"),
    ],
)
def test_validate_names_broken_invariant(change, invariant):
    _raw_path().validate()
    with pytest.raises(ValueError, match=invariant):
        _raw_path(**change).validate()


def test_csv_import_validates():
    rows = "step,state,up,hold\n0,0,,\n1,1,1,0.5\n2,3,1,0.2\n"
    with pytest.raises(ValueError, match="exactly 1"):
        QueuePath.from_csv(io.StringIO(rows))


def test_csv_import_rejects_an_infinite_holding_time():
    rows = "step,state,up,hold\n0,0,,\n1,1,1,0.5\n2,0,0,inf\n"
    with pytest.raises(ValueError, match="holding times are nonnegative and finite"):
        QueuePath.from_csv(io.StringIO(rows))


def test_csv_import_rejects_short_rows():
    rows = "step,state,up,hold\n0,0,,\n1,1,1,0.5\n2,2\n"
    with pytest.raises(ValueError, match="line 4 has 2 columns, expected 4"):
        QueuePath.from_csv(io.StringIO(rows))


def test_csv_import_rejects_an_empty_file():
    with pytest.raises(ValueError, match="path CSV is empty"):
        QueuePath.from_csv(io.StringIO(""))


@pytest.mark.parametrize(
    "row, column, cell",
    [("2,two,1,0.2", "state", "two"), ("2,2,yes,0.2", "up", "yes"), ("2,2,1,0.2s", "hold", "0.2s")],
    ids=["state", "up", "hold"],
)
def test_csv_import_names_the_cell_it_cannot_read(row, column, cell):
    rows = f"step,state,up,hold\n0,0,,\n1,1,1,0.5\n{row}\n"
    with pytest.raises(ValueError, match=f"line 4, column '{column}': '{cell}' is not a number"):
        QueuePath.from_csv(io.StringIO(rows))


@pytest.mark.parametrize(
    "rows, message",
    [("0,1,,\n1,0,7,0.5\n", "line 3, column 'up': '7' is not 0 or 1"),
     ("0,0,,\n1,1,1,0.5\n2,0,-1,0.5\n", "line 4, column 'up': '-1' is not 0 or 1"),
     ("0,0,,\n5,1,1,0.5\n", "line 3, column 'step': '5' is out of sequence, expected 1"),
     ("1,0,,\n2,1,1,0.5\n", "line 2, column 'step': '1' is out of sequence, expected 0")],
    ids=["up-7", "up-minus-1", "step-skips", "step-starts-at-1"],
)
def test_csv_import_reads_up_and_step_strictly(rows, message):
    # an up cell of 7 used to load as a down move, and the step column was never read
    with pytest.raises(ValueError, match=message):
        QueuePath.from_csv(io.StringIO("step,state,up,hold\n" + rows))


def test_concat_paths(anchor_cfg, expo):
    a = make_path([0, 1, 2], price=15.0)
    b = make_path([2, 1, 0], price=15.0)
    joined = concat_paths(a, b)
    assert list(joined.states) == [0, 1, 2, 1, 0]
    assert len(joined) == 4
    assert joined.revenue == a.revenue + b.revenue
    with pytest.raises(ValueError):
        concat_paths(a, make_path([5, 4]))
