"""Spans and counters around balkwise's public calls, for the traced run only.

``install`` rebinds the names each balkwise module calls (``fit_mle`` inside
``balkwise.pricing``, ``simulate_path`` inside ``balkwise.experiments``, the
value-family methods on their class, ...) to wrappers that record a span or
bump a counter, and returns a function that puts the originals back.  The
untraced run never calls it, so its timings carry no tracing cost.

Spans stay in memory as [name, start, end, parent index, op id] and are
written once, when the benchmark ends.  Counters are kept per op so two
passes over the same ops can be compared exactly.  Outside an op (for
example while the benchmark checks outputs) the wrappers only pass through.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import stats

# Layers compared when naming the one that dominates a workload: spans that
# do not nest inside one another, plus the loop and driver self times.
EXCLUSIVE_SHARES = (
    "inference.fit_ms",
    "stationary.optimal_price_ms",
    "stationary.theoretical_sigma_ms",
    "simulator.simulate_path_ms",
    "pricing.collect_ms",
    "pricing.self_ms",
    "experiments.self_ms",
)

_TIMED = {
    "inference.fit": "inference.fit_ms",
    "stationary.optimal_price": "stationary.optimal_price_ms",
    "stationary.theoretical_sigma": "stationary.theoretical_sigma_ms",
    "simulator.simulate_path": "simulator.simulate_path_ms",
    "pricing.collect": "pricing.collect_ms",
    "pricing.run": "pricing.run_ms",
    "pricing.trace_metrics": "pricing.trace_metrics_ms",
    "experiments.run": "experiments.run_ms",
}

_PER_OP_COUNTS = (
    "inference.fit_calls",
    "inference.boundary_fits",
    "inference.fit_errors",
    "pricing.boundary_retries",
    "pricing.iterations",
    "pricing.observations",
    "pricing.collect_calls",
    "stationary.optimal_price_calls",
    "stationary.revenue_calls",
    "model.sf_calls",
    "model.sf_points",
    "model.grad_cdf_calls",
    "model.hess_cdf_calls",
    "model.require_calls",
    "simulator.transitions",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_counts: dict[int, Counter] = {}
        self.current = None  # the running op's Counter, None between ops
        self._op = None
        self._stack: list[int] = []

    def begin_op(self, op: int) -> None:
        self._op = op
        self.current = self.op_counts[op] = Counter()

    def end_op(self) -> None:
        self._op = self.current = None
        self._stack.clear()

    def innermost(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call inside an op records a span named ``name``.

        ``after(counts, args, result, exc)`` runs once the call returns or
        raises, to count what the call did.
        """
        calls = name + "_calls"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts = self.current
            if counts is None:
                return fn(*args, **kwargs)
            counts[calls] += 1
            record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self._op]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
                if after is not None and (result is not None or exc is not None):
                    after(counts, args, result, exc)

        return wrapped

    def counted(self, key: str, fn, points=None):
        """Wrap ``fn`` so each call inside an op bumps ``key`` (no span).

        ``points`` optionally names a second counter and how to get its
        increment from the call's arguments.
        """

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts = self.current
            if counts is not None:
                counts[key] += 1
                if points is not None:
                    counts[points[0]] += points[1](args)
            return fn(*args, **kwargs)

        return wrapped

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def _after_fit(counts, args, result, exc):
    if exc is not None:
        if isinstance(exc, ValueError):
            counts["inference.fit_errors"] += 1
    elif result.boundary:
        counts["inference.boundary_fits"] += 1
    else:
        counts["inference.interior_fits"] += 1


def _after_simulate(counts, args, result, exc):
    if exc is None:
        _, warmup = args[3].resolve()
        counts["simulator.transitions"] += len(result) + warmup


def _after_collect(counts, args, result, exc):
    # run_pricing collects k_min >= k1_min observations to open an iteration
    # and one more per boundary retry; both workloads use k1_min > 1, so a
    # single-observation collect is exactly a retry.
    steps = args[2]
    counts["pricing.boundary_retries" if steps == 1 else "pricing.iterations"] += 1
    counts["pricing.observations"] += steps


def _revenue_counter(tracer, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        counts = tracer.current
        if counts is not None:
            counts["stationary.revenue_calls"] += 1
            if tracer.innermost() == "stationary.optimal_price":
                counts["stationary.search_revenue_calls"] += 1
        return fn(*args, **kwargs)

    return wrapped


def install(tracer: Tracer):
    """Rebind balkwise's call sites to traced wrappers; returns the undo function."""
    import numpy as np

    from balkwise import experiments, model, pricing, stationary

    undo = []

    def rebind(owner, attr, wrapper):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    for mod in (pricing, experiments):
        rebind(mod, "fit_mle", tracer.span("inference.fit", mod.fit_mle, _after_fit))
    rebind(pricing, "optimal_price", tracer.span("stationary.optimal_price", pricing.optimal_price))
    for mod in (pricing, stationary):
        rebind(mod, "expected_revenue", _revenue_counter(tracer, mod.expected_revenue))
    rebind(experiments, "theoretical_sigma",
           tracer.span("stationary.theoretical_sigma", experiments.theoretical_sigma))
    rebind(experiments, "simulate_path",
           tracer.span("simulator.simulate_path", experiments.simulate_path, _after_simulate))
    rebind(pricing.SimulatedSource, "collect",
           tracer.span("pricing.collect", pricing.SimulatedSource.collect, _after_collect))
    rebind(pricing, "run_pricing", tracer.span("pricing.run", pricing.run_pricing))
    rebind(pricing, "trace_metrics", tracer.span("pricing.trace_metrics", pricing.trace_metrics))
    rebind(experiments, "run_experiment", tracer.span("experiments.run", experiments.run_experiment))

    fam = model.ExponentialFamily
    rebind(fam, "sf", tracer.counted("model.sf_calls", fam.sf,
                                     points=("model.sf_points", lambda a: int(np.size(a[1])))))
    rebind(fam, "grad_cdf", tracer.counted("model.grad_cdf_calls", fam.grad_cdf))
    rebind(fam, "hess_cdf", tracer.counted("model.hess_cdf_calls", fam.hess_cdf))
    rebind(model.ParamSpace, "require", tracer.counted("model.require_calls", model.ParamSpace.require))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(tracer: Tracer, scale: dict) -> dict[str, float]:
    """Per-layer metrics of the ops in ``scale``, each normalised per op.

    ``scale`` maps each op to the factor that puts its wall times at nominal
    host speed; span times are scaled by their op's factor.
    """
    n = len(scale)
    totals = Counter()
    for op in scale:
        totals.update(tracer.op_counts[op])
    children = defaultdict(list)
    for start, end, parent in ((s[1], s[2], s[3]) for s in tracer.spans):
        if parent >= 0:
            children[parent].append((start, end))
    busy = Counter()
    own = Counter()
    fit_ms = []
    for i, (name, start, end, _, op) in enumerate(tracer.spans):
        if op not in scale:
            continue
        busy[name] += (end - start) * scale[op]
        own[name] += stats.self_time(start, end, children[i]) * scale[op]
        if name == "inference.fit":
            fit_ms.append(1e3 * (end - start) * scale[op])

    out = {key: totals[key] / n for key in _PER_OP_COUNTS}
    for name, metric in _TIMED.items():
        out[metric] = 1e3 * busy[name] / n
    out["pricing.self_ms"] = 1e3 * (own["pricing.run"] + own["pricing.trace_metrics"]) / n
    out["experiments.self_ms"] = 1e3 * own["experiments.run"] / n
    out["inference.fit_p50_ms"] = stats.median(fit_ms) if fit_ms else 0.0
    fits = totals["inference.fit_calls"]
    out["inference.interior_ratio"] = totals["inference.interior_fits"] / fits if fits else 0.0
    searches = totals["stationary.optimal_price_calls"]
    out["stationary.revenue_per_search"] = (
        totals["stationary.search_revenue_calls"] / searches if searches else 0.0
    )
    sim_s = busy["simulator.simulate_path"]
    out["simulator.transitions_per_s"] = totals["simulator.transitions"] / sim_s if sim_s else 0.0
    return out


def dominant_layer(metrics: dict[str, float]) -> str:
    return max(EXCLUSIVE_SHARES, key=lambda key: metrics[key])
