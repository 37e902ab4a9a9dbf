"""Print one sha256 per seeded output of balkwise, to compare two checkouts.

Runs the six experiment drivers at small configurations with workers=1 (the
replication drivers also at 10^4 to 10^5 steps per replication, and at
workers=2 with replication counts that split unevenly), and
hashes simulated paths (long ones among them, one in heavy traffic), fits
(boundary fits on hand-built paths and one 10^5-step fit among them),
information matrices, price searches and revenue curves (heavy traffic and
the edges of the parameter box among them) and pricing-loop traces under
both boundary policies.  Two checkouts whose outputs agree print the same lines, so a
refactor that must keep seeded results byte-identical can be checked with

    PYTHONPATH=src python tools/output_digest.py > new.txt
    PYTHONPATH=<other checkout>/src python tools/output_digest.py > old.txt
    diff old.txt new.txt

``--dump DIR`` also writes each hashed output to DIR/<name>, so outputs that
differ can be compared value by value.  Needs only the standard library and
balkwise itself.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

import balkwise
from balkwise import (
    ExperimentConfig,
    ExponentialFamily,
    ModelConfig,
    ParamSpace,
    PricingConfig,
    QueuePath,
    SimOptions,
    SimulatedSource,
    asymptotic_std,
    expected_revenue,
    fit_mle,
    log_likelihood,
    min_std_price,
    observed_information,
    optimal_price,
    price_upper_bound,
    revenue_curve,
    run_experiment,
    run_pricing,
    score,
    score_outer_product,
    simulate_full_arrivals,
    simulate_path,
    stationary_distribution,
    theoretical_sigma,
    up_prob_grad,
    up_prob_hess,
    up_probability,
)

CFG = ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=15.0)
FAM = ExponentialFamily(ParamSpace([1e-3], [5.0]))
FAM_WORKED = ExponentialFamily(ParamSpace([0.01], [5.0]))

DRIVER_CONFIGS = {
    "score-convergence": dict(k_list=(200, 1000), replications=30),
    "consistency": dict(k_list=(200, 1000), replications=20),
    "normality": dict(k=2000, replications=25),
    "std-vs-price": dict(k=500, price_grid=(5.0, 60.0, 6), empirical_reps=5),
    "revenue-vs-price": dict(),
    "pricing-tables": dict(pricing_runs=3),
    # replications long enough for the block walk, one of them a chain of 10^5
    # steps, and many short replications of one length
    "consistency-long": dict(experiment="consistency", k_list=(20_000, 100_000), replications=4),
    "normality-k10000": dict(experiment="normality", k=10_000, replications=30),
    "score-convergence-k10000": dict(experiment="score-convergence", k=10_000, replications=30),
    # two workers, replication counts that split unevenly into jobs
    "consistency-workers2": dict(experiment="consistency", k_list=(200, 20_000), replications=7,
                                 workers=2),
    "normality-workers2": dict(experiment="normality", k=10_000, replications=23, workers=2),
    "score-convergence-workers2": dict(experiment="score-convergence", k_list=(1000, 100_000),
                                       replications=5, workers=2),
}


def _path_bytes(path) -> bytes:
    return b"|".join([path.states.tobytes(), path.ups.tobytes(), path.holds.tobytes(),
                      repr((path.revenue, path.total_time)).encode()])


def _array_bytes(*arrays) -> bytes:
    return b"|".join(a.tobytes() for a in arrays)


def _hand_built_path(states) -> QueuePath:
    states = np.asarray(states, dtype=np.int64)
    ups = states[1:] > states[:-1]
    holds = np.ones(len(ups))
    return QueuePath(states=states, ups=ups, holds=holds, revenue=0.0, total_time=float(len(ups)))


def outputs():
    """Yield (name, bytes) for every seeded output this script covers."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, extra in DRIVER_CONFIGS.items():
            out = Path(tmp) / name
            run_experiment(ExperimentConfig(**{"experiment": name, "seed": 3, "workers": 1,
                                               "out_dir": str(out), **extra}))
            for file in sorted(out.iterdir()):
                yield f"experiment/{name}/{file.name}", file.read_bytes()

    paths = {}
    for theta0 in (0.02, 0.3, 1.0, 3.0):
        for seed in (1, 2):
            opts = SimOptions(steps=2000, seed=seed, initial_state="stationary-warmup")
            path = simulate_path(CFG, FAM, [theta0], opts)
            paths[theta0, seed] = path
            yield f"path/theta{theta0}-seed{seed}", _path_bytes(path)
    yield "path/full-arrivals", _path_bytes(
        simulate_full_arrivals(CFG, FAM, [0.02], SimOptions(steps=500, seed=4, warmup_steps=50)))
    # long enough for the block walk: heavy traffic (states in the thousands)
    # and a length that leaves a partial last block
    yield "path/heavy-traffic-steps60000", _path_bytes(simulate_path(
        ModelConfig(lam=20.0, mu=1.0, cost_c=1.0, price=0.0), FAM, [1e-3], SimOptions(steps=60_000, seed=7)))
    yield "path/theta0.02-steps20001", _path_bytes(
        simulate_path(CFG, FAM, [0.02], SimOptions(steps=20_001, seed=8)))
    source = SimulatedSource(CFG, FAM, [0.02], seed=5)
    for i, (price, steps) in enumerate([(15.0, 50), (30.0, 1), (60.0, 200), (5.0, 20)]):
        yield f"path/collect{i}", _path_bytes(source.collect(price, steps))

    for (theta0, seed), path in paths.items():
        fit = fit_mle(path, CFG, FAM)
        yield f"fit/theta{theta0}-seed{seed}", fit.to_json().encode()
        at = [theta0]
        yield f"likelihood/theta{theta0}-seed{seed}", _array_bytes(
            score(path, at, CFG, FAM), observed_information(path, at, CFG, FAM),
            score_outer_product(path, at, CFG, FAM)) + repr(log_likelihood(path, at, CFG, FAM)).encode()
    # every informative move is down (up) from a state >= 1: the likelihood
    # is monotone in theta and the fit sits on the upper (lower) bound
    for name, states in (("all-down", [0, 1, 0, 1, 0, 1, 0]), ("all-up", [0, 1, 2, 3, 4, 5])):
        fit = fit_mle(_hand_built_path(states), CFG, FAM)
        yield f"fit/boundary-{name}", fit.to_json().encode()
    long_path = simulate_path(CFG, FAM, [0.02], SimOptions(steps=100_000, seed=6))
    yield "fit/theta0.02-steps100000", fit_mle(long_path, CFG, FAM).to_json().encode()

    for theta in (0.02, 0.1, 0.5):
        yield f"sigma/theta{theta}", _array_bytes(
            theoretical_sigma([theta], CFG, FAM),
            theoretical_sigma([theta], CFG, FAM, accounting="occupancy"),
            asymptotic_std(30.0, [theta], CFG, FAM))
        for weighting in ("time", "jump"):
            dist = stationary_distribution([theta], CFG, FAM, weighting=weighting)
            yield f"stationary/theta{theta}-{weighting}", dist.probs.tobytes() + repr(
                (dist.qstar, dist.tail_bound)).encode()
        yield f"price/theta{theta}", repr((
            optimal_price([theta], CFG, FAM),
            min_std_price([theta], CFG, FAM),
            expected_revenue(20.0, [theta], CFG, FAM),
        )).encode()

    # price searches off the anchor's path: heavy traffic whose weights overflow
    # (lam/mu = 4), both edges of the parameter box, and revenue rows that need
    # from 32 to over 128 states
    heavy = ModelConfig(lam=4.0, mu=1.0, cost_c=1 / 64, price=0.0)
    for name, cfg, theta in (("heavy-theta0.0625", heavy, 0.0625), ("heavy-theta5.0", heavy, 5.0),
                             ("theta0.001", CFG, 1e-3), ("theta5.0", CFG, 5.0)):
        yield f"price/{name}", repr((price_upper_bound([theta], cfg, FAM),
                                     optimal_price([theta], cfg, FAM))).encode()
        yield f"min_std_price/{name}", repr(min_std_price([theta], cfg, FAM)).encode()
    yield "revenue/theta0.005-prices0-200", repr(
        [expected_revenue(p, [0.005], CFG, FAM) for p in np.linspace(0.0, 200.0, 41)]).encode()
    for name, cfg, theta, prices in (("theta0.005", CFG, 0.005, np.linspace(0.0, 200.0, 41)),
                                     ("heavy-theta0.0625", heavy, 0.0625, np.linspace(0.0, 40.0, 21))):
        yield f"revenue_curve/{name}", revenue_curve(prices, [theta], cfg, FAM).tobytes()

    for theta in (0.02, 0.5):
        per_state = [(up_probability(q, [theta], CFG, FAM), up_prob_grad(q, [theta], CFG, FAM),
                      up_prob_hess(q, [theta], CFG, FAM)) for q in range(30)]
        yield f"up_probability/theta{theta}", repr([p for p, _, _ in per_state]).encode()
        yield f"up_prob_grad/theta{theta}", _array_bytes(*(g for _, g, _ in per_state))
        yield f"up_prob_hess/theta{theta}", _array_bytes(*(h for _, _, h in per_state))

    cases = [
        ("increment", dict(initial_price=15.0, k1_min=2, schedule="increment",
                           max_observations=400, grow_on="nominal", delta_mode="cumulative")),
        ("doubling", dict(initial_price=100.0, k1_min=100, schedule="doubling",
                          max_observations=1530, grow_on="nominal", delta_mode="cumulative")),
        ("high-price", dict(initial_price=120.0, k1_min=2, schedule="increment",
                            max_observations=300)),
    ]
    for name, kwargs in cases:
        for policy in ("retry", "skip"):
            for seed in (1, 2):
                pcfg = PricingConfig(tol=0.01, boundary_policy=policy, **kwargs)
                try:
                    trace = run_pricing(CFG, FAM_WORKED, pcfg, theta0=[0.02], seed=seed)
                except RuntimeError as exc:
                    yield f"pricing/{name}-{policy}-seed{seed}", repr(exc).encode()
                    continue
                buf = io.StringIO()
                trace.to_csv(buf)
                yield f"pricing/{name}-{policy}-seed{seed}.json", trace.to_json().encode()
                yield f"pricing/{name}-{policy}-seed{seed}.csv", buf.getvalue().encode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", type=Path, default=None,
                        help="also write each output to this directory")
    args = parser.parse_args(argv)
    print(f"# balkwise {balkwise.__version__} from {Path(balkwise.__file__).parent}",
          file=sys.stderr)
    for name, data in outputs():
        if args.dump is not None:
            target = args.dump / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
