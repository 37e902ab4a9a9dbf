"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.  The heavier criteria (5, 6, 10) use a small worker pool;
everything is deterministic given the seeds fixed here.  Those three also
compare the sha256 of each CSV they write with the pins in
data/acceptance_csv_sha256.json; running this file as a script,
`PYTHONPATH=src python tests/test_acceptance.py`, writes the pins anew.
"""

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from balkwise.experiments import ExperimentConfig, run_experiment
from balkwise.inference import (
    fit_mle,
    log_likelihood,
    observed_information,
    score,
)
from balkwise.model import (
    ExponentialFamily,
    ModelConfig,
    ParamSpace,
    up_prob_grad,
    up_probability,
)
from balkwise.simulator import SimOptions, path_stats, simulate_full_arrivals, simulate_path
from balkwise.stationary import (
    min_std_price,
    optimal_price,
    stationary_distribution,
    theoretical_sigma,
)
from helpers import make_path

ANCHOR = ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=15.0)
EXPO = ExponentialFamily(ParamSpace([1e-3], [5.0]))
THETA0 = 0.02

PINS = Path(__file__).parent / "data" / "acceptance_csv_sha256.json"
REPIN = "PYTHONPATH=src python tests/test_acceptance.py"
# the experiment of each criterion whose CSVs are pinned, without its out_dir
PINNED = {
    "5": dict(experiment="consistency", k_list=(10**3, 10**4, 10**5), replications=200, seed=51,
              theta0=THETA0, workers=2),
    "6": dict(experiment="normality", k_list=(200, 10**4), replications=5000, seed=2,
              theta0=THETA0, workers=2),
    "10": dict(experiment="pricing-tables", theta0=THETA0, theta_lower=0.01, theta_upper=5.0,
               pricing_cells=(("increment", 2, 15.0), ("doubling", 100, 100.0)),
               pricing_runs=100, pricing_tol=0.01, pricing_budget=1530, seed=101, workers=2,
               replications=1),
}


def _csv_digests(out_dir) -> dict:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(Path(out_dir).glob("*.csv"))}


def check_pins(criterion: str, out_dir) -> None:
    """Fail, naming each CSV that moved, unless the criterion's CSVs match their pins."""
    pins = json.loads(PINS.read_text())
    got, want = _csv_digests(out_dir), pins[criterion]
    moved = sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))
    assert not moved, (
        f"criterion {criterion}: {', '.join(moved)} differ from the pinned sha256 "
        f"(pinned with numpy {pins['numpy']}, running numpy {np.__version__}); if the change "
        f"moves them by design, regenerate the pins with `{REPIN}` and say so"
    )


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d} {verdict} - {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_gradient_oracle():
    worst_score, worst_info = 0.0, 0.0
    for trial in range(50):
        rng = np.random.default_rng(np.random.SeedSequence((11, trial)))
        theta0 = float(rng.uniform(0.01, 0.1))
        theta = float(rng.uniform(0.012, 0.3))
        path = simulate_path(
            ANCHOR, EXPO, [theta0],
            SimOptions(steps=1000, seed=np.random.SeedSequence((12, trial))),
        )
        h = 1e-6 * theta
        fd_score = (
            log_likelihood(path, [theta + h], ANCHOR, EXPO)
            - log_likelihood(path, [theta - h], ANCHOR, EXPO)
        ) / (2 * h) / len(path)
        got_score = score(path, [theta], ANCHOR, EXPO)[0]
        worst_score = max(worst_score, abs(got_score - fd_score) / max(abs(fd_score), 1e-12))

        h2 = 1e-5 * theta
        fd_info = -(
            score(path, [theta + h2], ANCHOR, EXPO)[0]
            - score(path, [theta - h2], ANCHOR, EXPO)[0]
        ) / (2 * h2)
        got_info = observed_information(path, [theta], ANCHOR, EXPO)[0, 0]
        worst_info = max(worst_info, abs(got_info - fd_info) / max(abs(fd_info), 1e-12))
    report(
        1,
        "score and information match finite differences on 50 random paths",
        worst_score <= 1e-6 and worst_info <= 1e-5,
        f"worst score rel err {worst_score:.2e}, worst information rel err {worst_info:.2e}",
    )


def test_criterion_02_worked_example_mle():
    cfg = ModelConfig(lam=1.0, mu=1.0, cost_c=1.0, price=0.0)
    fam = ExponentialFamily(ParamSpace([0.01], [5.0]))
    path = make_path([0, 1, 0, 1, 2, 1, 0])

    def direct_loglik(t):
        total = 0.0
        for q, nxt in ((1, 0), (1, 2), (2, 1), (1, 0)):
            lam_q = math.exp(-t * (q + 1))
            p = lam_q / (lam_q + 1.0)
            total += math.log(p) if nxt > q else math.log(1 - p)
        return total

    grid = np.arange(0.01, 5.0 + 5e-5, 1e-4)
    oracle = float(grid[np.argmax([direct_loglik(t) for t in grid])])
    fit = fit_mle(path, cfg, fam)
    ok = abs(fit.theta_hat[0] - 0.545) <= 1e-3 and abs(fit.theta_hat[0] - oracle) <= 1e-4
    report(
        2,
        "worked-example MLE equals 0.545 within 1e-3 and matches the grid oracle",
        ok,
        f"fit {fit.theta_hat[0]:.6f}, grid {oracle:.4f}",
    )


def _occupancy_tv(a, b) -> float:
    size = max(len(a), len(b))
    a = np.pad(a, (0, size - len(a)))
    b = np.pad(b, (0, size - len(b)))
    return 0.5 * float(np.abs(a - b).sum())


def test_criterion_03_thinning_equivalence():
    k = 10**5
    thin = simulate_path(
        ANCHOR, EXPO, [THETA0], SimOptions(steps=k, seed=31, initial_state="stationary-warmup")
    )
    full = simulate_full_arrivals(
        ANCHOR, EXPO, [THETA0], SimOptions(steps=k, seed=32, initial_state="stationary-warmup")
    )
    tv = _occupancy_tv(path_stats(thin).jump_occupancy, path_stats(full).jump_occupancy)
    report(3, "thinned and full-arrival simulators agree in occupancy", tv <= 0.02, f"TV {tv:.4f}")


def test_criterion_04_stationary_formula():
    k = 10**6
    path = simulate_path(
        ANCHOR, EXPO, [THETA0], SimOptions(steps=k, seed=41, initial_state="stationary-warmup")
    )
    stats = path_stats(path)
    tv_time = _occupancy_tv(
        stats.time_occupancy,
        stationary_distribution([THETA0], ANCHOR, EXPO, weighting="time").probs,
    )
    tv_jump = _occupancy_tv(
        stats.jump_occupancy,
        stationary_distribution([THETA0], ANCHOR, EXPO, weighting="jump").probs,
    )
    report(
        4,
        "closed-form stationary laws match empirical occupancies at 1e6 steps",
        tv_time <= 0.01 and tv_jump <= 0.01,
        f"TV time {tv_time:.4f}, TV jump {tv_jump:.4f}",
    )


def test_criterion_05_consistency(tmp_path):
    config = ExperimentConfig(**PINNED["5"], out_dir=str(tmp_path))
    med = run_experiment(config)["median_abs_error_by_k"]
    ok = med[10**3] > med[10**4] > med[10**5] and med[10**4] <= 0.01
    report(
        5,
        "median estimation error decreases across 1e3/1e4/1e5 steps",
        ok,
        "medians " + ", ".join(f"{k}: {med[k]:.5f}" for k in sorted(med)),
    )
    check_pins("5", tmp_path)


def test_criterion_06_normality(tmp_path):
    config = ExperimentConfig(**PINNED["6"], out_dir=str(tmp_path))
    verdicts = run_experiment(config)["verdicts"]
    big, small = verdicts[10**4], verdicts[200]
    ok = (
        not big["reject_normality"]
        and abs(big["mean_rel_error"]) <= 0.01
        and small["reject_normality"]
    )
    report(
        6,
        "normality accepted at k=1e4, rejected at k=200, mean error small",
        ok,
        f"JB(1e4)={big['jb_stat']:.2f}, mean rel err {big['mean_rel_error']:+.5f}, "
        f"JB(200)={small['jb_stat']:.1f}",
    )
    check_pins("6", tmp_path)


def test_criterion_07_revenue_anchors():
    p02 = optimal_price([0.02], ANCHOR, EXPO)
    p08 = optimal_price([0.08], ANCHOR, EXPO)
    ok = abs(p02 - 50.9) <= 0.5 and abs(p08 - 13.0) <= 0.3
    report(7, "revenue-maximizing prices hit the published anchors", ok,
           f"argmax 50.9->{p02:.2f}, 13->{p08:.2f}")


def test_criterion_08_std_anchors():
    p02 = min_std_price([0.02], ANCHOR, EXPO)
    p08 = min_std_price([0.08], ANCHOR, EXPO)
    ok = abs(p02 - 121.0) <= 2.0 and abs(p08 - 29.0) <= 1.0
    report(8, "std-minimizing prices hit the published anchors", ok,
           f"argmin 121->{p02:.2f}, 29->{p08:.2f}")


def test_criterion_09_sigma_cross_validation():
    path = simulate_path(
        ANCHOR, EXPO, [THETA0],
        SimOptions(steps=10**5, seed=91, initial_state="stationary-warmup"),
    )
    info = observed_information(path, [THETA0], ANCHOR, EXPO)[0, 0]
    sigma = theoretical_sigma([THETA0], ANCHOR, EXPO)[0, 0]
    rel = abs(info - sigma) / sigma
    report(9, "observed information matches the theoretical limit within 5%",
           rel <= 0.05, f"rel diff {rel:.4f}")


def test_criterion_10_pricing_tables(tmp_path):
    config = ExperimentConfig(**PINNED["10"], out_dir=str(tmp_path))
    cells = run_experiment(config)["cells"]
    inc = cells["increment,k1=2,p1=15"]
    dbl = cells["doubling,k1=100,p1=100"]
    frac_ok = (
        inc["Final stationary fraction of max revenue"] >= 0.97
        and dbl["Final stationary fraction of max revenue"] >= 0.97
    )
    iter_ok = abs(inc["Iterations"] - 47.03) <= 2.0 and abs(dbl["Iterations"] - 4.0) <= 2.0
    reliable = not inc["unreliable"] and not dbl["unreliable"]
    # the Monte-Carlo standard errors show how far each mean is from its
    # target in units of its own noise
    report(
        10,
        "pricing loop reproduces the summary-table cells",
        frac_ok and iter_ok and reliable,
        f"fractions {inc['Final stationary fraction of max revenue']:.4f}"
        f"+-{inc['Std error of final stationary fraction']:.4f}/"
        f"{dbl['Final stationary fraction of max revenue']:.4f}"
        f"+-{dbl['Std error of final stationary fraction']:.4f} (target >=0.97), "
        f"iterations {inc['Iterations']:.2f}+-{inc['Std error of iterations']:.2f} (target 47.03+-2) / "
        f"{dbl['Iterations']:.2f}+-{dbl['Std error of iterations']:.2f} (target 4+-2), "
        f"failed runs {inc['Failed runs']}/{dbl['Failed runs']}",
    )
    check_pins("10", tmp_path)


def test_criterion_11_martingale_property():
    rng = np.random.default_rng(111)
    algebra_ok = True
    mc_ok = True
    for q in range(1, 21):
        p = up_probability(q, [THETA0], ANCHOR, EXPO)
        dp = up_prob_grad(q, [THETA0], ANCHOR, EXPO)[0]
        mean_step = p * (dp / p) - (1 - p) * (dp / (1 - p))
        algebra_ok &= abs(mean_step) <= 1e-12 * max(1.0, abs(dp))
        y = rng.random(10**5) < p
        vals = np.where(y, dp / p, -dp / (1 - p))
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        mc_ok &= abs(vals.mean()) <= 3 * se
    report(11, "score terms are mean-zero at the truth (identity and Monte-Carlo)",
           algebra_ok and mc_ok)


def write_pins() -> None:
    """Run each pinned criterion's experiment and write the sha256 of its CSVs to PINS."""
    pins = {"numpy": np.__version__}
    for criterion, settings in PINNED.items():
        with tempfile.TemporaryDirectory() as tmp:
            run_experiment(ExperimentConfig(**settings, out_dir=tmp))
            pins[criterion] = _csv_digests(tmp)
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"wrote {PINS}", file=sys.stderr)


if __name__ == "__main__":
    write_pins()
