import json
import subprocess
import sys

import pytest

from balkwise import cli
from balkwise.experiments import ExperimentConfig, run_experiment
from balkwise.inference import FitResult, confidence_interval


def run_cli(args):
    return cli.main(args)


def test_simulate_and_fit_round_trip(tmp_path, capsys):
    out = tmp_path / "sim"
    code = run_cli(
        ["simulate", "--theta0", "0.02", "--k", "4000", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    path_csv = out / "path.csv"
    assert path_csv.exists()
    stats = json.loads((out / "path_stats.json").read_text())
    assert stats["up_count"] + stats["down_count"] == 4000
    capsys.readouterr()  # drop the simulate status line

    code = run_cli(["fit", "--input", str(path_csv), "--level", "0.9"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["theta_hat"][0] - 0.02) < 0.02
    assert payload["confidence_interval"]["level"] == 0.9


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(
            ["simulate", "--theta0", "0.05", "--k", "500", "--seed", "9", "--out", str(out)]
        ) == 0
    assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()


def test_stationary_command(tmp_path, capsys):
    code = run_cli(
        ["stationary", "--theta", "0.02", "--weighting", "jump", "--out", str(tmp_path)]
    )
    assert code == 0
    target = tmp_path / "stationary_jump.csv"
    lines = target.read_text().splitlines()
    assert lines[0] == "q,prob"
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)


def test_revenue_single_and_grid(tmp_path, capsys):
    code = run_cli(["revenue", "--theta", "0.02", "--price", "20"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["price"] == 20.0
    assert payload["revenue"] > 0

    code = run_cli(
        ["revenue", "--theta", "0.02", "--price-grid", "5:100:6", "--out", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "revenue_curve.csv").read_text().splitlines()
    assert lines[0] == "price,revenue"
    assert len(lines) == 7


def test_price_opt(capsys):
    code = run_cli(["price-opt", "--theta", "0.02"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["optimal_price"] - 50.9) <= 0.5
    assert abs(payload["min_std_price"] - 121.0) <= 2.0


def test_autoprice(tmp_path, capsys):
    code = run_cli(
        [
            "autoprice", "--theta0", "0.02", "--p1", "15", "--k1-min", "50",
            "--schedule", "doubling", "--budget", "200", "--tol", "1e-9",
            "--seed", "3", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    trace = json.loads((tmp_path / "pricing_trace.json").read_text())
    assert trace["stopped_reason"] == "budget"
    metrics = json.loads((tmp_path / "pricing_metrics.json").read_text())
    assert metrics["total_observations"] <= 200
    header = (tmp_path / "pricing_trace.csv").read_text().splitlines()[0]
    assert header == "iter,k_i,theta_i,theta_pooled,price_next,delta,revenue,time"


def test_experiment_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "theta0": 0.02,
                "price_grid": [5.0, 80.0, 5],
                "out_dir": str(tmp_path / "out"),
            }
        )
    )
    code = run_cli(["experiment", "revenue-vs-price", "--config", str(cfg)])
    assert code == 0
    assert (tmp_path / "out" / "revenue_vs_price.csv").exists()


def test_experiment_flags_override_the_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta0": 0.02, "k": 200, "workers": 1, "seed": 1,
                               "replications": 10, "format": "csv",
                               "out_dir": str(tmp_path / "from-config")}))
    out = tmp_path / "from-flags"
    code = run_cli(["experiment", "score-convergence", "--config", str(cfg), "--seed", "7",
                    "--out", str(out), "--replications", "3", "--format", "svg"])
    assert code == 0
    assert not (tmp_path / "from-config").exists()
    assert (out / "score_convergence.svg").read_text().startswith("<svg")
    rows = (out / "score_convergence.csv").read_text().splitlines()
    assert rows[0] == "k,rep,theta_hat,score"
    assert [row.split(",")[:2] for row in rows[1:]] == [["200", "0"], ["200", "1"], ["200", "2"]]
    # the values are those of the driver run with the flags' seed
    want = tmp_path / "direct"
    run_experiment(ExperimentConfig(experiment="score-convergence", theta0=0.02, k=200, workers=1,
                                    seed=7, replications=3, out_dir=str(want)))
    assert (out / "score_convergence.csv").read_bytes() == (
        want / "score_convergence.csv").read_bytes()
    summary = json.loads(capsys.readouterr().out)
    assert summary["file"] == str(out / "score_convergence.csv")


def test_fit_out_writes_the_fit_it_would_print(tmp_path, capsys):
    assert run_cli(["simulate", "--theta0", "0.02", "--k", "2000", "--seed", "3",
                    "--out", str(tmp_path / "sim")]) == 0
    path_csv = str(tmp_path / "sim" / "path.csv")
    capsys.readouterr()
    assert run_cli(["fit", "--input", path_csv, "--level", "0.9"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "fit"
    assert run_cli(["fit", "--input", path_csv, "--level", "0.9", "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == f"wrote {out / 'fit.json'}"
    text = (out / "fit.json").read_text()
    assert text == printed.strip()
    payload = json.loads(text)
    interval = payload.pop("confidence_interval")
    fit = FitResult.from_json(json.dumps(payload))
    assert fit.total_k == 2000 and not fit.boundary and abs(fit.theta_hat[0] - 0.02) < 0.02
    assert interval == {"level": 0.9, "bounds": confidence_interval(fit, 0.9).tolist()}


def test_validation_errors_exit_one(tmp_path, capsys):
    assert run_cli(["simulate", "--k", "10"]) == 1  # missing theta0
    assert run_cli(["fit", "--input", str(tmp_path / "missing.csv")]) == 1
    assert run_cli(["simulate", "--theta0", "0.02", "--k", "10", "--lam", "-1"]) == 1
    capsys.readouterr()
    assert run_cli(["simulate", "--theta0", "0.02", "--k", "10", "--lam", "inf"]) == 1
    assert "finite" in capsys.readouterr().err
    assert run_cli(["simulate", "--theta0", "0.02", "--k", "10", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run_cli(["fit", "--input", str(tmp_path / "path.csv"), "--theta-upper", "inf"]) == 1
    assert "finite" in capsys.readouterr().err
    assert run_cli(["experiment", "consistency", "--config", str(tmp_path / "nope.json")]) == 1
    assert run_cli(["bogus-subcommand"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [["price-opt", "--theta", "0.02"], ["experiment", "revenue-vs-price"]],
    ids=["price-opt", "experiment"],
)
def test_config_naming_another_value_family_is_rejected(tmp_path, capsys, args):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": {"name": "weibull"}, "out_dir": str(tmp_path)}))
    assert run_cli(args + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: unknown value family 'weibull'\n"


@pytest.mark.parametrize(
    "args",
    [["price-opt", "--theta", "0.02"], ["price-opt", "--theta", "0.02", "--lam", "2"],
     ["experiment", "revenue-vs-price"]],
    ids=["price-opt", "price-opt-with-flag", "experiment"],
)
@pytest.mark.parametrize(
    "config, message",
    [
        ({"model": 3}, "config key 'model' must be an object, got 3"),
        ({"family": [1]}, "config key 'family' must be an object, got [1]"),
        ({"model": {"lambda": "fast"}}, "config key 'model.lambda' must be a number, got 'fast'"),
        ([1], "config file must hold a JSON object, got [1]"),
        ({"theta0": "0.02"}, "config key 'theta0' must be a number, got '0.02'"),
        ({"model": {"lambda": 10**400}},
         "config key 'model.lambda' must be a number, got an integer too large for a float"),
    ],
    ids=["model-not-object", "family-not-object", "lambda-not-number", "not-object",
         "theta0-not-number", "lambda-too-large"],
)
def test_config_of_the_wrong_shape_is_rejected(tmp_path, capsys, args, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(args + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args, config, message",
    [
        (["simulate", "--theta0", "0.02", "--k", "10"], {"seed": 1.5},
         "config key 'seed' must be an integer, got 1.5"),
        (["experiment", "normality"], {"seed": 1.5, "k": 100},
         "config key 'seed' must be an integer, got 1.5"),
        (["autoprice", "--theta0", "0.02"], {"pricing": {"k1_min": "2"}},
         "config key 'pricing.k1_min' must be an integer, got '2'"),
        (["experiment", "consistency"], {"k_list": [100, 1000.5]},
         "config key 'k_list[1]' must be an integer, got 1000.5"),
        (["experiment", "normality", "--seed", "3"], {"seed": 1.5, "k": 100, "replications": 20},
         "config key 'seed' must be an integer, got 1.5"),
        (["experiment", "revenue-vs-price"], {"price_grid": [1, 2, 3.5]},
         "config key 'price_grid[2]' must be an integer, got 3.5"),
        (["experiment", "pricing-tables"], {"pricing_cells": [["doubling", 2.5, 15]],
                                            "pricing_runs": 1},
         "config key 'pricing_cells[0][1]' must be an integer, got 2.5"),
        (["simulate", "--theta0", "0.02", "--k", "10"], {"initial_state": 1.5},
         "config key 'initial_state' must be an integer or a string, got 1.5"),
    ],
    ids=["seed-simulate", "seed-experiment", "k1-min-autoprice", "k-list-experiment",
         "seed-experiment-with-flag", "price-grid-experiment", "pricing-cells-experiment",
         "initial-state-simulate"],
)
def test_config_integer_of_the_wrong_type_is_rejected(tmp_path, capsys, args, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "out_dir": str(tmp_path)}))
    assert run_cli(args + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args, config, message",
    [
        (["autoprice", "--theta0", "0.02"], {"pricing": 3},
         "config key 'pricing' must be an object, got 3"),
        (["autoprice", "--theta0", "0.02", "--tol", "0.1"], {"pricing": {"tol": "0.1"}},
         "config key 'pricing.tol' must be a number, got '0.1'"),
        (["experiment", "consistency"], {"k_list": 5}, "config key 'k_list' must be a list, got 5"),
        (["experiment", "revenue-vs-price"], {"price_grid": [1, 10, 0]},
         "price_grid must have at least 1 point, got 0"),
        (["experiment", "revenue-vs-price"], {"price_grid": [1, 10, -2]},
         "price_grid must have at least 1 point, got -2"),
        (["revenue", "--theta", "0.02", "--price-grid", "1:10:0"], {},
         "price_grid must have at least 1 point, got 0"),
        # no replications: a division by zero (std-vs-price), a table of NaN (pricing-tables)
        (["experiment", "std-vs-price"], {"empirical_reps": 0}, "empirical_reps must be >= 1"),
        (["experiment", "pricing-tables"], {"pricing_runs": 0}, "pricing_runs must be >= 1"),
        # a negative seed or sample size: numpy's "expected non-negative integer" otherwise
        (["simulate", "--theta0", "0.02", "--k", "10", "--seed", "-1"], {}, "seed must be >= 0"),
        (["autoprice", "--theta0", "0.02", "--seed", "-1"], {}, "seed must be >= 0"),
        (["experiment", "normality"], {"seed": -1}, "seed must be >= 0"),
        (["experiment", "normality", "--seed", "-1"], {"k": 100}, "seed must be >= 0"),
        (["experiment", "normality"], {"k_list": [100, -5]}, "k_list[1] must be >= 1"),
        (["experiment", "normality"], {"k_list": [0]}, "k_list[0] must be >= 1"),
        (["experiment", "normality"], {"k": 0}, "k must be >= 1"),
    ],
    ids=["pricing-not-object", "pricing-tol-not-number", "k-list-not-list",
         "price-grid-no-points", "price-grid-negative-points", "price-grid-flag-no-points",
         "empirical-reps-zero", "pricing-runs-zero", "seed-negative-simulate",
         "seed-negative-autoprice", "seed-negative-experiment", "seed-negative-experiment-flag",
         "k-list-negative", "k-list-zero", "k-zero"],
)
def test_config_setting_of_the_wrong_kind_is_rejected(tmp_path, capsys, args, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "out_dir": str(tmp_path)}))
    assert run_cli(args + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("initial", [2, "stationary-warmup"])
def test_simulate_starts_from_the_configured_initial_state(tmp_path, capsys, initial):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"initial_state": initial, "theta0": 0.02, "k": 50}))
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "path.csv").read_text().splitlines()[1:]
    assert len(rows) == 51 and rows[0].startswith("0,2,," if initial == 2 else "0,")


def test_autoprice_budget_below_k1_min_is_a_validation_error(tmp_path, capsys):
    assert run_cli(["autoprice", "--theta0", "0.02", "--budget", "1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: max_observations must be >= k1_min\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (["fit", "--input", "path.csv", "--seed", "1"], "unrecognized arguments"),
        (["price-opt", "--theta", "0.02", "--out", "d"], "unrecognized arguments"),
        (["stationary", "--theta", "0.02", "--replications", "5"], "unrecognized arguments"),
        (["simulate", "--theta0", "0.02", "--k", "10", "--format", "csv"],
         "unrecognized arguments"),
        (["experiment", "revenue-vs-price", "--format", "json"], "invalid choice"),
    ],
    ids=["fit-seed", "price-opt-out", "stationary-replications", "simulate-format",
         "experiment-json"],
)
def test_flags_a_subcommand_ignores_are_rejected(args, message, capsys):
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "rows",
    [
        "0,0,,\n1,1,1,0.5\n2,3,1,0.2\n",  # the state jumps from 1 to 3
        "0,0,,\n1,1,1,0.5\n2,2,0,-0.3\n",  # up flag contradicts the move, negative hold
    ],
    ids=["state-jump", "up-flag-and-negative-hold"],
)
def test_fit_rejects_invalid_path_csv(tmp_path, capsys, rows):
    bad = tmp_path / "bad.csv"
    bad.write_text("step,state,up,hold\n" + rows)
    assert run_cli(["fit", "--input", str(bad)]) == 1
    assert "invalid path" in capsys.readouterr().err


def test_fit_rejects_short_csv_row(tmp_path, capsys):
    bad = tmp_path / "short.csv"
    bad.write_text("step,state,up,hold\n0,0,,\n1,1\n")
    assert run_cli(["fit", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 3 has 2 columns" in err


@pytest.mark.parametrize(
    "text, message",
    [("", "path CSV is empty"),
     ("step,state,up,hold\n0,0,,\n1,1,1,half\n", "path CSV line 3, column 'hold': 'half' is not a number"),
     ("step,state,up,hold\n0,1,,\n1,0,7,0.5\n", "path CSV line 3, column 'up': '7' is not 0 or 1"),
     ("step,state,up,hold\n0,0,,\n5,1,1,0.5\n",
      "path CSV line 3, column 'step': '5' is out of sequence, expected 1")],
    ids=["empty-file", "non-numeric-hold", "up-not-0-or-1", "step-out-of-sequence"],
)
def test_fit_names_what_it_cannot_read_in_a_path_csv(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert run_cli(["fit", "--input", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_runtime_errors_exit_two(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("engineered failure")

    monkeypatch.setitem(cli._HANDLERS, "price-opt", boom)
    assert run_cli(["price-opt", "--theta", "0.02"]) == 2
    capsys.readouterr()


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "balkwise.cli", "price-opt", "--theta", "0.08"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert abs(payload["optimal_price"] - 13.0) <= 0.3


@pytest.mark.parametrize(
    "args, message",
    [(["fit", "--input", "{dir}"], "Is a directory"),
     (["price-opt", "--theta", "0.02", "--config", "{dir}"], "Is a directory"),
     (["stationary", "--theta", "0.02", "--out", "{file}"], "File exists"),
     (["experiment", "revenue-vs-price", "--out", "{file}"], "File exists")],
    ids=["input-directory", "config-directory", "out-file", "experiment-out-file"],
)
def test_a_path_that_cannot_be_read_or_written_is_one_error_line(tmp_path, capsys, args, message):
    taken = tmp_path / "taken.txt"
    taken.write_text("")
    argv = [a.format(dir=tmp_path, file=taken) for a in args]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
