"""Arithmetic the benchmark reports: tail percentiles, failure shares, self time.

Kept free of numpy and of balkwise so the tests of the benchmark's own
arithmetic run without the library.
"""

from __future__ import annotations

import math
import statistics

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile of ``values`` with at least ``beyond`` samples above it.

    Returns (value, percentile, n).  The value is the order statistic with
    exactly ``beyond`` samples after it, at percentile 100 * (n - beyond) / n.
    When that percentile falls below the median (fewer than 2 * beyond
    samples), the run cannot resolve a tail and the median is returned with
    percentile 50, so the tail never reads below the median.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * beyond:
        return median(values), 50.0, n
    ordered = sorted(values)
    return float(ordered[n - 1 - beyond]), 100.0 * (n - beyond) / n, n


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones; raised errors and failed checks both count."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it that its child spans cover.

    Children may overlap one another or stick out of the parent; only the
    union of their intervals, clipped to the parent, is subtracted.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in children if e > start and s < end]
    return (end - start) - covered(clipped)


def nominal_seconds(start: float, samples, probe_nominal: float) -> float:
    """Length at nominal host speed of a span that starts at ``start``.

    ``samples`` are (probe start, probe seconds) of the speed probes run
    during the span, in time order; the last one starts where the span ends.
    The stretch before each probe is scaled by ``probe_nominal`` over that
    probe's time, and the probes' own time is left out.
    """
    total = 0.0
    since = start
    for at, seconds in samples:
        total += (at - since) * probe_nominal / seconds
        since = at + seconds
    return total


def spread(values) -> float:
    """Interquartile distance over the median, as the acceptance rule computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
