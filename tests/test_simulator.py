import io
import math

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
from helpers import UniformValueFamily, make_path, reference_path


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


BLOCK, PREDICT_FROM = simulator._BLOCK, simulator._PREDICT_FROM
# walk lengths: below one block, an exact multiple of the block, one step past
# it, and a longer one ending in a partial block
WALK_LENGTHS = [1, BLOCK - 1, PREDICT_FROM, PREDICT_FROM + 1, PREDICT_FROM + 3 * BLOCK + 45]


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
    next_steps=st.sampled_from([1, 300, PREDICT_FROM + 1]),
    seed=st.integers(0, 2**32 - 1),
)
# heavy traffic: the chain climbs to thousands, so predictions outgrow the first 64-state table
@example(lam=20.0, cost_c=1.0, price=0.0, theta=1e-3, start=0, warmup=0, walk=PREDICT_FROM + 1,
         next_steps=PREDICT_FROM + 1, seed=3)
# low traffic: every block is walked from 0 or 1, so the parity guesses are the
# true entries and the second prediction pass is skipped
@example(lam=0.3, cost_c=1.0, price=10.0, theta=0.5, start=0, warmup=0,
         walk=PREDICT_FROM + 3 * BLOCK + 45, next_steps=PREDICT_FROM + 1, seed=5)
def test_build_path_matches_the_one_step_walk(lam, cost_c, price, theta, start, warmup, walk,
                                              next_steps, seed):
    """The block walk is exact: equal to the reference walk over two calls on one generator."""
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


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    lam=st.floats(0.3, 20.0),
    cost_c=st.floats(0.05, 2.0),
    price=st.floats(0.0, 40.0),
    theta=st.floats(1e-3, 0.5),
    steps=st.sampled_from([1, BLOCK - 1, BLOCK, PREDICT_FROM - 1, PREDICT_FROM, 16_813]),
    warmup=st.sampled_from([0, 37, "default"]),
    start=st.sampled_from([0, 7]),
    chains=st.integers(1, 150),
    seed=st.integers(0, 2**32 - 1),
)
# heavy traffic: the chains climb to thousands, past the first 64-state table
@example(lam=20.0, cost_c=1.0, price=0.0, theta=1e-3, steps=16_813, warmup="default", start=0,
         chains=11, seed=3)
# many short chains: the chunk is block-walked although no chain is
@example(lam=1.0, cost_c=1.0, price=15.0, theta=0.02, steps=BLOCK, warmup=37, start=7,
         chains=150, seed=4)
# the warm-up ends exactly on a block boundary
@example(lam=2.0, cost_c=0.5, price=0.0, theta=0.05, steps=PREDICT_FROM + 45, warmup=BLOCK,
         start=7, chains=2, seed=6)
# a warm-up of several blocks and a remainder
@example(lam=3.0, cost_c=0.2, price=0.0, theta=0.05, steps=16_813, warmup=3 * BLOCK + 17,
         start=0, chains=3, seed=7)
# a chain of an exact multiple of the block: no tail
@example(lam=1.0, cost_c=1.0, price=15.0, theta=0.02, steps=PREDICT_FROM, warmup=2 * BLOCK,
         start=0, chains=2, seed=8)
def test_count_walk_matches_the_counts_of_simulate_path(lam, cost_c, price, theta, steps, warmup,
                                                        start, chains, seed):
    """Each chain of a chunk is counted exactly as its own simulate_path, holds left out.

    The one-step reference walk is the oracle that does not share the walk's code.
    """
    cfg = ModelConfig(lam=lam, mu=1.0, cost_c=cost_c, price=price)
    fam = ExponentialFamily(ParamSpace([1e-3], [5.0]))
    if warmup == "default":
        options = dict(initial_state="stationary-warmup")
    else:
        options = dict(initial_state=start, warmup_steps=warmup)
    chains = min(chains, max(1, 200_000 // steps))  # keep an example under 200,000 steps
    runs = [SimOptions(steps=steps, seed=np.random.SeedSequence((seed, i)), **options)
            for i in range(chains)]
    counts = simulator._walk_counts(cfg, fam, [theta], runs)
    assert len(counts) == chains
    for opts, (n_up, n_down) in zip(runs, counts):
        rng = np.random.default_rng(opts.seed)
        for path in (simulate_path(cfg, fam, [theta], opts),
                     reference_path(rng, *opts.resolve(), steps, [theta], cfg, fam)):
            want_up, want_down = transition_counts(path)
            np.testing.assert_array_equal(n_up, want_up)
            np.testing.assert_array_equal(n_down, want_down)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(start=st.integers(0, 9), ups=st.lists(st.booleans(), min_size=1, max_size=400))
# one step each: up from the empty queue, up and down from above it
@example(start=0, ups=[False])
@example(start=3, ups=[True])
@example(start=3, ups=[False])
# ends below the start, on the empty queue
@example(start=5, ups=[False] * 5)
def test_counts_from_visits_match_the_transitions(start, ups):
    """The flow balance turns the visits of a walk reflected at 0 into its exact move counts."""
    states = [start]
    for up in ups:
        states.append(states[-1] + 1 if up or states[-1] == 0 else states[-1] - 1)
    states = np.array(states)
    pre, post = states[:-1], states[1:]
    size = int(pre.max()) + 1
    n_up, n_down = simulator._state_counts(np.bincount(pre), states[0], states[-1])
    np.testing.assert_array_equal(n_up, np.bincount(pre[post > pre], minlength=size))
    np.testing.assert_array_equal(n_down, np.bincount(pre[post < pre], minlength=size))


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
