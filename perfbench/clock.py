"""Time at a nominal host speed, from a speed probe sampled while the timed code runs.

The hosts this runs on change speed every few milliseconds to seconds, by up
to 2x, while the process keeps its CPU (its CPU time equals its wall time).
A reference timed before and after an op misses changes inside it.  So while
an op runs, a timer signal fires every INTERVAL_S and its handler times a
short probe (a fixed mix of small numpy calls and plain interpreter work, as
the ops are).  Each stretch of the op between two probes is scaled by
PROBE_NOMINAL_S over the time of the probe that ends it; one more probe runs
right after the op, for its last stretch.  The probes' own time is left out.

The signal handler runs between bytecodes of the main thread, so it never
enters balkwise and the traced counts do not see it.  Timing set-up needs
numpy already imported; run.py imports it before it times anything.
"""

from __future__ import annotations

import signal
import time

import numpy as np

import stats

INTERVAL_S = 0.005
# The probe's time inside a pricing-doubling op in the fast state of the
# 2-vCPU Xeon host the benchmark was built on, so that nominal times read as
# that state's wall times.
PROBE_NOMINAL_S = 58e-6

_X = np.linspace(0.0, 1.0, 128)
_VALUES = [0.5] * 64


def probe() -> float:
    acc = 0.0
    for i in range(8):
        acc += float(np.exp(-_X * (i % 7)).sum())
    for i in range(400):
        acc += _VALUES[i % 64] * (i % 7)
    return acc


def _timed_probe() -> tuple[float, float]:
    start = time.perf_counter()
    probe()
    return start, time.perf_counter() - start


def measure(fn):
    """Run ``fn()``; return (its result or the exception it raised, wall seconds, nominal seconds)."""
    samples = []

    def sample(signum, frame):
        samples.append(_timed_probe())

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        outcome = fn()
    except Exception as exc:  # the caller judges it
        outcome = exc
    finally:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
    # A probe the timer fired after ``end`` but before it stopped is not the op's.
    samples = [s for s in samples if s[0] < end]
    samples.append((end, _timed_probe()[1]))
    return outcome, end - start, stats.nominal_seconds(start, samples, PROBE_NOMINAL_S)
