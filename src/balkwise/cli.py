"""Command-line harness.

Subcommands: simulate, fit, stationary, revenue, price-opt, autoprice,
experiment <name>.  A JSON config file supplies defaults; explicit flags win.
Exit codes: 0 success, 1 validation error (bad flags or config), 2 runtime
error (simulation or numerical failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .experiments import (CONFIG_KEYS, EXPERIMENTS, ExperimentConfig, check_family, config_value,
                          run_experiment)
from .inference import confidence_interval, fit_mle
from .model import ExponentialFamily, ModelConfig, ParamSpace
from .pricing import PricingConfig, run_pricing, trace_metrics
from .simulator import QueuePath, SimOptions, path_stats, simulate_path
from .stationary import (
    asymptotic_std,
    expected_revenue,
    min_std_price,
    optimal_price,
    revenue_curve,
    stationary_distribution,
    write_curve_csv,
)


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation errors (exit 1), not usage exits."""

    def error(self, message):
        raise ValueError(message)


def _add_model_flags(p):
    p.add_argument("--lam", type=float, default=None, help="arrival rate")
    p.add_argument("--mu", type=float, default=None, help="service rate")
    p.add_argument("--cost", type=float, default=None, help="waiting cost per unit time")
    p.add_argument("--price", type=float, default=None, help="admission price")
    p.add_argument("--theta-lower", type=float, default=None)
    p.add_argument("--theta-upper", type=float, default=None)


_SHARED_FLAGS = {  # each subcommand registers only the ones its handler reads
    "seed": dict(type=int),
    "out": dict(help="output directory"),
    "replications": dict(type=int),
    "format": dict(dest="fmt", choices=["csv", "svg"]),
}


def _add_common_flags(p, *names):
    p.add_argument("--config", type=str, default=None, help="JSON config with defaults")
    for name in names:
        p.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="balkwise", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a censored queue path")
    _add_common_flags(p, "seed", "out")
    _add_model_flags(p)
    p.add_argument("--theta0", type=float, default=None)
    p.add_argument("--k", type=int, default=None, help="number of transitions")
    p.add_argument("--initial-state", type=str, default=None)
    p.add_argument("--warmup", type=int, default=None)

    p = sub.add_parser("fit", help="fit the value distribution from a path CSV")
    _add_common_flags(p, "out")
    _add_model_flags(p)
    p.add_argument("--input", type=str, required=True, help="path CSV (step,state,up,hold)")
    p.add_argument("--level", type=float, default=None, help="also report a confidence interval")

    p = sub.add_parser("stationary", help="truncated stationary distribution")
    _add_common_flags(p, "out")
    _add_model_flags(p)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--weighting", choices=["time", "jump"], default="time")
    p.add_argument("--eps", type=float, default=1e-12)

    p = sub.add_parser("revenue", help="stationary revenue at a price or over a grid")
    _add_common_flags(p, "out")
    _add_model_flags(p)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--price-grid", type=str, default=None, help="lo:hi:n")

    p = sub.add_parser("price-opt", help="revenue-maximizing and std-minimizing prices")
    _add_common_flags(p)
    _add_model_flags(p)
    p.add_argument("--theta", type=float, default=None)

    p = sub.add_parser("autoprice", help="run the iterative pricing loop (simulated)")
    _add_common_flags(p, "seed", "out")
    _add_model_flags(p)
    p.add_argument("--theta0", type=float, default=None)
    p.add_argument("--p1", type=float, default=None, help="initial price")
    p.add_argument("--k1-min", type=int, default=None)
    p.add_argument("--schedule", choices=["increment", "doubling"], default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--budget", type=int, default=None, help="total observation cap")
    p.add_argument("--max-iterations", type=int, default=None)

    p = sub.add_parser("experiment", help="run a named Monte-Carlo experiment")
    _add_common_flags(p, "seed", "out", "replications", "format")
    p.add_argument("name", choices=list(EXPERIMENTS))

    return parser


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config file must hold a JSON object, got {raw!r}")
    return raw


def _model_from(args, cfg) -> tuple[ModelConfig, ExponentialFamily]:
    """The model and family of the config, each model flag given in place of its setting."""
    check_family(cfg)
    flags = {"lam": args.lam, "mu": args.mu, "cost_c": args.cost, "price": args.price,
             "theta_lower": args.theta_lower, "theta_upper": args.theta_upper}
    settings = {field: config_value(cfg, *CONFIG_KEYS[field], getattr(ExperimentConfig, field),
                                    flag) for field, flag in flags.items()}
    return (ModelConfig(settings["lam"], settings["mu"], settings["cost_c"], settings["price"]),
            ExponentialFamily(ParamSpace([settings["theta_lower"]], [settings["theta_upper"]])))


def _out_dir(args, cfg) -> Path:
    out = Path(config_value(cfg, *CONFIG_KEYS["out_dir"], "out", args.out))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args) -> int:
    cfg_file = _load_config(args.config)
    cfg, fam = _model_from(args, cfg_file)
    theta0 = config_value(cfg_file, *CONFIG_KEYS["theta0"], flag=args.theta0, required="--theta0")
    initial = config_value(cfg_file, "initial_state", int | str, 0, args.initial_state)
    k = config_value(cfg_file, *CONFIG_KEYS["k"], flag=args.k, required="--k")
    if k < 1:
        raise ValueError("k must be >= 1")
    opts = SimOptions(
        steps=k,
        seed=config_value(cfg_file, *CONFIG_KEYS["seed"], 0, args.seed),
        initial_state=int(initial) if str(initial).isdigit() else initial,
        warmup_steps=config_value(cfg_file, *CONFIG_KEYS["warmup_steps"], None, args.warmup),
    )
    path = simulate_path(cfg, fam, [theta0], opts)
    out = _out_dir(args, cfg_file)
    with open(out / "path.csv", "w", newline="") as fh:
        path.to_csv(fh)
    stats = path_stats(path)
    with open(out / "path_stats.json", "w") as fh:
        json.dump(
            {
                "up_count": stats.up_count,
                "down_count": stats.down_count,
                "effective_m": stats.effective_m,
                "revenue": path.revenue,
                "total_time": path.total_time,
                "revenue_rate": stats.revenue_rate,
            },
            fh,
            indent=2,
        )
    print(f"wrote {out / 'path.csv'} ({len(path)} transitions)")
    return 0


def _cmd_fit(args) -> int:
    cfg_file = _load_config(args.config)
    cfg, fam = _model_from(args, cfg_file)
    with open(args.input) as fh:
        path = QueuePath.from_csv(fh, cfg=cfg)
    fit = fit_mle(path, cfg, fam)
    payload = json.loads(fit.to_json())
    if args.level is not None:
        ci = confidence_interval(fit, args.level)
        payload["confidence_interval"] = {"level": args.level, "bounds": ci.tolist()}
    text = json.dumps(payload, indent=2)
    if args.out is not None:
        out = _out_dir(args, cfg_file)
        (out / "fit.json").write_text(text)
        print(f"wrote {out / 'fit.json'}")
    else:
        print(text)
    return 0


def _cmd_stationary(args) -> int:
    cfg_file = _load_config(args.config)
    cfg, fam = _model_from(args, cfg_file)
    theta = config_value(cfg_file, *CONFIG_KEYS["theta0"], flag=args.theta, required="--theta")
    dist = stationary_distribution([theta], cfg, fam, eps=args.eps, weighting=args.weighting)
    out = _out_dir(args, cfg_file)
    target = out / f"stationary_{args.weighting}.csv"
    with open(target, "w", newline="") as fh:
        fh.write("q,prob\n")
        for q, prob in enumerate(dist.probs):
            fh.write(f"{q},{float(prob)!r}\n")
    print(f"wrote {target} (truncated at {dist.qstar}, tail bound {dist.tail_bound:.2e})")
    return 0


def _parse_grid(spec: str):
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ValueError(f"bad price grid {spec!r}; expected lo:hi:n") from exc
    if n < 1:
        raise ValueError(f"price_grid must have at least 1 point, got {n}")
    return np.linspace(lo, hi, n)


def _cmd_revenue(args) -> int:
    cfg_file = _load_config(args.config)
    cfg, fam = _model_from(args, cfg_file)
    theta = config_value(cfg_file, *CONFIG_KEYS["theta0"], flag=args.theta, required="--theta")
    if args.price_grid is not None:
        prices = _parse_grid(args.price_grid)
        values = revenue_curve(prices, [theta], cfg, fam)
        out = _out_dir(args, cfg_file)
        with open(out / "revenue_curve.csv", "w", newline="") as fh:
            write_curve_csv(fh, prices, values, "revenue")
        print(f"wrote {out / 'revenue_curve.csv'}")
    else:
        value = expected_revenue(cfg.price, [theta], cfg, fam)
        print(json.dumps({"price": cfg.price, "revenue": value}))
    return 0


def _cmd_price_opt(args) -> int:
    cfg_file = _load_config(args.config)
    cfg, fam = _model_from(args, cfg_file)
    theta = config_value(cfg_file, *CONFIG_KEYS["theta0"], flag=args.theta, required="--theta")
    best = optimal_price([theta], cfg, fam)
    best_std = min_std_price([theta], cfg, fam)
    payload = {
        "optimal_price": best,
        "max_revenue": expected_revenue(best, [theta], cfg, fam),
        "min_std_price": best_std,
        "min_std": float(asymptotic_std(best_std, [theta], cfg, fam)[0]),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_autoprice(args) -> int:
    cfg_file = _load_config(args.config)
    cfg, fam = _model_from(args, cfg_file)
    theta0 = config_value(cfg_file, *CONFIG_KEYS["theta0"], flag=args.theta0, required="--theta0")
    pcfg = PricingConfig(
        initial_price=config_value(cfg_file, "pricing.p1", float, 15.0, args.p1),
        k1_min=config_value(cfg_file, "pricing.k1_min", int, 2, args.k1_min),
        schedule=config_value(cfg_file, "pricing.schedule", str, "increment", args.schedule),
        tol=config_value(cfg_file, "pricing.tol", float, 0.01, args.tol),
        max_iterations=config_value(cfg_file, "pricing.max_iterations", int, 10_000,
                                    args.max_iterations),
        max_observations=config_value(cfg_file, "pricing.budget", int | None, None, args.budget),
    )
    seed = config_value(cfg_file, *CONFIG_KEYS["seed"], 0, args.seed)
    trace = run_pricing(cfg, fam, pcfg, theta0=[theta0], seed=seed)
    out = _out_dir(args, cfg_file)
    with open(out / "pricing_trace.csv", "w", newline="") as fh:
        trace.to_csv(fh)
    (out / "pricing_trace.json").write_text(trace.to_json())
    metrics = trace_metrics(trace, [theta0], cfg, fam)
    with open(out / "pricing_metrics.json", "w") as fh:
        json.dump(
            {
                "final_price": metrics.final_price,
                "optimal_price": metrics.optimal_price,
                "final_fraction": metrics.final_fraction,
                "cumulative_fraction": metrics.cumulative_fraction,
                "total_lost_revenue": metrics.total_lost_revenue,
                "iterations": metrics.iterations,
                "total_observations": metrics.total_observations,
                "stopped_reason": trace.stopped_reason,
            },
            fh,
            indent=2,
        )
    print(
        f"final price {trace.final_price:.3f} after {metrics.iterations} iterations "
        f"({trace.stopped_reason}); wrote {out / 'pricing_trace.csv'}"
    )
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json({**_load_config(args.config), "experiment": args.name})
    flags = dict(seed=args.seed, out_dir=args.out, replications=args.replications, fmt=args.fmt)
    config = replace(config, **{field: flag for field, flag in flags.items() if flag is not None})
    summary = run_experiment(config)
    print(json.dumps(summary, indent=2, default=str))
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "stationary": _cmd_stationary,
    "revenue": _cmd_revenue,
    "price-opt": _cmd_price_opt,
    "autoprice": _cmd_autoprice,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
