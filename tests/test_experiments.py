import csv
import json
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from balkwise import experiments
from balkwise.inference import fit_mle, log_likelihood, score
from balkwise.simulator import SimOptions, simulate_path
from balkwise.experiments import (
    ExperimentConfig,
    TABLE_ROW_LABELS,
    jarque_bera,
    rep_seed,
    resolve_workers,
    run_experiment,
)


def test_jarque_bera_normal_calibration():
    rejections = 0
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(rep_seed(100, trial))
        _, reject = jarque_bera(rng.standard_normal(5000))
        rejections += int(reject)
    assert rejections <= 0.06 * trials  # accept rate >= 94%


def test_jarque_bera_rejects_skewed():
    rng = np.random.default_rng(7)
    stat, reject = jarque_bera(rng.exponential(1.0, size=5000))
    assert reject
    assert stat > 5.99


def test_jarque_bera_degenerate():
    with pytest.raises(ValueError):
        jarque_bera(np.ones(50))
    with pytest.raises(ValueError):
        jarque_bera(np.arange(10))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="consistency", theta0=9.0)  # outside the box
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="consistency")  # no k
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="normality", k=100, replications=0)
    for fmt in ("png", "json"):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="normality", k=100, fmt=fmt)
    cfg = ExperimentConfig(experiment="normality", k=100)
    assert cfg.sizes == (100,)


def test_config_from_json():
    raw = {
        "experiment": "consistency",
        "model": {"lambda": 2.0, "mu": 1.5, "cost_c": 0.5, "price": 10.0},
        "family": {"name": "exponential", "lower": 0.005, "upper": 2.0},
        "theta0": 0.05,
        "k_list": [100, 200],
        "replications": 7,
        "seed": 3,
        "format": "csv",
    }
    cfg = ExperimentConfig.from_json(raw)
    assert cfg.lam == 2.0 and cfg.mu == 1.5
    assert cfg.theta_lower == 0.005
    assert cfg.sizes == (100, 200)
    assert cfg.replications == 7
    with pytest.raises(ValueError):
        ExperimentConfig.from_json({"experiment": "consistency", "bogus_key_ok": 1})


def test_resolve_workers_env_cap(monkeypatch):
    monkeypatch.setenv("BALKWISE_THREADS", "2")
    assert resolve_workers(8) == 2
    monkeypatch.setenv("BALKWISE_THREADS", "1")
    assert resolve_workers(8) == 1
    monkeypatch.delenv("BALKWISE_THREADS")
    assert resolve_workers(1) == 1


def test_resolve_workers_rejects_non_integer_cap(monkeypatch):
    monkeypatch.setenv("BALKWISE_THREADS", "two")
    with pytest.raises(ValueError, match="BALKWISE_THREADS must be an integer, got 'two'"):
        resolve_workers(4)


def test_rep_seeds_are_distinct():
    a = np.random.default_rng(rep_seed(5, 1000, 0)).random(4)
    b = np.random.default_rng(rep_seed(5, 1000, 1)).random(4)
    assert not np.allclose(a, b)


def _run(tmp_path, **kwargs) -> tuple[ExperimentConfig, dict]:
    cfg = ExperimentConfig(out_dir=str(tmp_path), **kwargs)
    return cfg, run_experiment(cfg)


def test_score_convergence_schema_and_determinism(tmp_path):
    cfg, summary = _run(
        tmp_path / "a", experiment="score-convergence", k_list=(200, 500), replications=5, seed=9
    )
    out = Path(summary["file"])
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "rep", "theta_hat", "score"]
    assert len(rows) == 1 + 2 * 5
    # interior fits satisfy the optimizer contract
    for _, _, theta_hat, score in rows[1:]:
        assert abs(float(score)) <= 1e-6
    _, summary2 = _run(
        tmp_path / "b", experiment="score-convergence", k_list=(200, 500), replications=5, seed=9
    )
    assert out.read_bytes() == Path(summary2["file"]).read_bytes()


def test_score_convergence_spread_shrinks(tmp_path):
    _, summary = _run(
        tmp_path, experiment="score-convergence", k_list=(300, 3000), replications=40, seed=10
    )
    spreads = summary["score_std_by_k"]
    assert spreads[3000] < spreads[300]


def test_consistency_driver(tmp_path):
    cfg, summary = _run(
        tmp_path, experiment="consistency", k_list=(500, 5000), replications=30, seed=11
    )
    med = summary["median_abs_error_by_k"]
    assert med[5000] < med[500]
    prof = Path(cfg.out_dir) / "loglik_profile.csv"
    with open(prof) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "theta", "loglik"]
    # the profile is computed on the replication-0 path, so its peak must sit
    # at that replication's fitted value
    data = [(float(r[1]), float(r[2])) for r in rows[1:] if int(r[0]) == 5000]
    thetas = [d[0] for d in data]
    vals = [d[1] for d in data]
    best = int(np.argmax(vals))
    assert 0 < best < len(vals) - 1
    with open(Path(cfg.out_dir) / "consistency.csv") as fh:
        fit_rows = list(csv.reader(fh))
    theta_rep0 = next(float(r[2]) for r in fit_rows[1:] if r[0] == "5000" and r[1] == "0")
    assert abs(thetas[best] - theta_rep0) <= 0.005
    # each value is log_likelihood's on that path
    path = simulate_path(cfg.model, cfg.value_family, [cfg.theta0],
                         experiments._run_options(cfg, 5000, 0))
    assert [r[2] for r in rows[1:] if r[0] == "5000"] == [
        repr(log_likelihood(path, [t], cfg.model, cfg.value_family)) for t in thetas]
    summary_file = Path(cfg.out_dir) / "consistency_summary.csv"
    assert summary_file.exists()


def test_normality_driver(tmp_path):
    cfg, summary = _run(
        tmp_path, experiment="normality", k=400, replications=80, seed=12, fmt="svg"
    )
    verdict = summary["verdicts"][400]
    assert set(verdict) >= {
        "jb_stat", "reject_normality", "mean_z", "mean_rel_error",
        "boundary_excluded", "theoretical_std",
    }
    out = Path(cfg.out_dir)
    with open(out / "normality.csv") as fh:
        header = fh.readline().strip()
    assert header == "k,rep,theta_hat,z,boundary"
    assert (out / "normality_summary.json").exists()
    svg = out / "normality_k400.svg"
    assert svg.exists()
    ET.parse(svg)  # well-formed XML


def test_revenue_vs_price_driver(tmp_path):
    cfg, summary = _run(
        tmp_path,
        experiment="revenue-vs-price",
        price_grid=(5.0, 100.0, 8),
        fmt="svg",
        replications=1,
    )
    out = Path(summary["file"])
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["price", "revenue"]
    assert len(rows) == 9
    ET.parse(Path(cfg.out_dir) / "revenue_vs_price.svg")


def test_std_vs_price_driver(tmp_path):
    cfg, summary = _run(
        tmp_path,
        experiment="std-vs-price",
        price_grid=(10.0, 60.0, 3),
        k=300,
        empirical_reps=25,
        replications=1,
        seed=3,
    )
    with open(summary["file"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["price", "std"]
    with open(summary["empirical_file"]) as fh:
        erows = list(csv.reader(fh))
    assert erows[0] == ["price", "k", "empirical_std", "fits_used"]
    assert len(erows) == 1 + 3
    # the empirical std of a small sample sits above the asymptotic value
    # on average; check it is at least finite and positive here
    for row in erows[1:]:
        assert float(row[2]) > 0


def test_std_vs_price_seeds_each_grid_point(tmp_path, monkeypatch):
    # 10.0 and 10.0004 agree to three decimals; each still needs its own stream
    seeds = []
    walk = experiments._walk_counts

    def spy(cfg, fam, theta0, runs):
        seeds.extend(tuple(opts.seed.generate_state(4)) for opts in runs)
        return walk(cfg, fam, theta0, runs)

    monkeypatch.setattr(experiments, "_walk_counts", spy)
    _run(tmp_path, experiment="std-vs-price", price_grid=(10.0, 10.0004, 2), k=200,
         empirical_reps=3, replications=1, seed=3)
    assert len(seeds) == 6
    assert len(set(seeds)) == 6


def test_pricing_tables_driver(tmp_path):
    cfg, summary = _run(
        tmp_path,
        experiment="pricing-tables",
        pricing_cells=(("doubling", 100, 100.0),),
        pricing_runs=3,
        replications=1,
        seed=14,
    )
    cells = summary["cells"]
    (key,) = cells.keys()
    assert cells[key]["Failed runs"] == 0
    assert not cells[key]["unreliable"]
    assert cells[key]["Iterations"] > 0
    with open(summary["file"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["schedule", "k1_min", "p1", "metric", "value"]
    labels = [r[3] for r in rows[1:]]
    assert labels == list(TABLE_ROW_LABELS)


def test_parallel_matches_serial(tmp_path, monkeypatch):
    monkeypatch.delenv("BALKWISE_THREADS", raising=False)
    inputs = [
        (dict(experiment="consistency", k_list=(400,), replications=6), ["consistency.csv"]),
        # 7 replications split 3 + 4; one chain per walk chunk at 10^5, many at 200
        (dict(experiment="consistency", k_list=(200, 100_000), replications=7),
         ["consistency.csv", "loglik_profile.csv"]),
        (dict(experiment="score-convergence", k_list=(200, 10_000), replications=7),
         ["score_convergence.csv"]),
        (dict(experiment="pricing-tables", pricing_runs=3),
         ["pricing_tables.csv", "pricing_tables.json"]),
    ]
    for kwargs, names in inputs:
        for workers in (1, 2):
            _run(tmp_path / str(workers), seed=21, workers=workers, **kwargs)
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "k, reps", [(10_000, 20), (200, 100), (100_000, 7), (10_000, 7), (200, 131)]
)
def test_chunked_replications_match_one_path_per_replication(workers, k, reps):
    """Walked in chunks (one chain at k = 10^5, up to 9 at 10^4, 83 at 200), fitted in batches.

    7 replications split 3 + 4 at two workers, and 131 into three jobs of
    43 or 44 (at most experiments._FIT_BATCH each) at either.
    """
    config = ExperimentConfig(experiment="score-convergence", k=k, replications=reps, seed=5)
    cfg, fam = config.model, config.value_family
    want = []
    for rep in range(reps):
        opts = SimOptions(steps=k, seed=rep_seed(5, k, rep), initial_state="stationary-warmup",
                          warmup_steps=1000)
        path = simulate_path(cfg, fam, [0.02], opts)
        fit = fit_mle(path, cfg, fam)
        want.append((float(fit.theta_hat[0]), bool(fit.boundary),
                     float(score(path, fit.theta_hat, cfg, fam)[0])))
    for fn, rows in ((experiments._fit_score_rep, want),
                     (experiments._fit_rep, [w[:2] for w in want])):
        assert experiments._replications(fn, config, workers, k, reps) == rows
