"""Seeded simulation of the observable (balking-censored) queue.

Two generators of the same law: ``simulate_path`` drives the thinned jump
chain directly from the state-dependent joining rates (fast, the default),
while ``simulate_full_arrivals`` plays out every potential customer, draws an
individual service value, applies the joining rule and discards balkers.  The
second exists so tests can verify the thinning equivalence end to end.  Both
return a QueuePath, which holds only what the manager observes: queue lengths,
holding times and revenue.

A path is walked one step at a time, on a state table grown as the chain
climbs (``build_path``).  A fit reads a path only through its per-state
counts of up and down moves, so the replication studies draw just those
counts (``_walk_counts``).  Past the warm-up and the first return to the
empty queue, a path is a run of excursions from it, each a Galton-Watson
tree of up moves with geometric offspring (Harris 1952, *First passage and
recurrence distributions*), whose generation sizes, the up moves from each
state, form a chain of negative binomials (``_excursions``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Sequence, Union

import numpy as np

from .model import ModelConfig, StateTable, ValueFamily, _threshold

STATIONARY_WARMUP = "stationary-warmup"
DEFAULT_WARMUP_STEPS = 1000


class AbsorbingStateError(RuntimeError):
    """No customer ever joins the empty queue: the chain cannot move."""


@dataclass(frozen=True)
class QueuePath:
    """An observed trajectory of the jump chain.

    states  -- queue lengths Q_0..Q_k (k+1 entries)
    ups     -- up-move indicators for each of the k transitions
    holds   -- holding time spent in the pre-state of each transition
    revenue -- price collected over the recorded transitions
    """

    states: np.ndarray
    ups: np.ndarray
    holds: np.ndarray
    revenue: float
    total_time: float

    def __len__(self) -> int:
        return len(self.ups)

    @property
    def pre_states(self) -> np.ndarray:
        return self.states[:-1]

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError naming the first broken one."""
        k = len(self.ups)
        if self.states.shape != (k + 1,) or self.holds.shape != (k,):
            raise ValueError(f"a path of {k} transitions needs {k + 1} states and {k} holds")
        steps = np.diff(self.states)
        checks = (
            (np.all(np.abs(steps) == 1), "each transition moves the state by exactly 1"),
            (np.all(self.states >= 0), "states are nonnegative"),
            (np.all(self.ups == (steps > 0)), "each up flag matches its state change"),
            (np.all((self.holds >= 0) & (self.holds < np.inf)),
             "holding times are nonnegative and finite"),
            (np.isclose(self.total_time, float(self.holds.sum())), "total time is the sum of holds"),
        )
        for ok, invariant in checks:
            if not ok:
                raise ValueError(f"invalid path: {invariant}")

    def to_csv(self, fileobj) -> None:
        """Serialize as ``step,state,up,hold``; row 0 carries the initial state."""
        writer = csv.writer(fileobj)
        writer.writerow(["step", "state", "up", "hold"])
        writer.writerow([0, int(self.states[0]), "", ""])
        for i in range(len(self.ups)):
            writer.writerow(
                [i + 1, int(self.states[i + 1]), int(self.ups[i]), repr(float(self.holds[i]))]
            )

    @staticmethod
    def from_csv(fileobj, cfg: Optional[ModelConfig] = None) -> "QueuePath":
        """Rebuild a path from its CSV form.

        Revenue needs the price, so it is zero unless ``cfg`` is given.  Raises
        ValueError, naming the line, when the rows do not form a valid path.
        """
        reader = csv.reader(fileobj)
        header = next(reader, None)
        if header is None:
            raise ValueError("path CSV is empty")
        if header != ["step", "state", "up", "hold"]:
            raise ValueError(f"unexpected path CSV header: {header}")
        states, ups, holds = [], [], []
        for line, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValueError(f"path CSV line {line} has {len(row)} columns, expected 4")
            try:
                step = int(row[col := 0])
                states.append(int(row[col := 1]))
                if row[2] != "":
                    ups.append(int(row[col := 2]))
                    holds.append(float(row[col := 3]))
            except ValueError:
                problem = "is not a number"
            else:
                if step != line - 2:
                    col, problem = 0, f"is out of sequence, expected {line - 2}"
                elif row[2] != "" and ups[-1] not in (0, 1):
                    col, problem = 2, "is not 0 or 1"
                else:
                    continue
            raise ValueError(f"path CSV line {line}, column {header[col]!r}: {row[col]!r} {problem}")
        states = np.asarray(states, dtype=np.int64)
        ups = np.asarray(ups, dtype=bool)
        holds = np.asarray(holds, dtype=float)
        revenue = cfg.price * int(ups.sum()) if cfg is not None else 0.0
        path = QueuePath(states, ups, holds, revenue, float(holds.sum()))
        path.validate()
        return path


def concat_paths(first: QueuePath, second: QueuePath) -> QueuePath:
    """Join two consecutive path segments ending/starting at the same state."""
    if first.states[-1] != second.states[0]:
        raise ValueError("paths do not share a boundary state")
    return QueuePath(
        states=np.concatenate([first.states, second.states[1:]]),
        ups=np.concatenate([first.ups, second.ups]),
        holds=np.concatenate([first.holds, second.holds]),
        revenue=first.revenue + second.revenue,
        total_time=first.total_time + second.total_time,
    )


@dataclass(frozen=True)
class SimOptions:
    """How long, from where, and with which seed to simulate.

    initial_state may be a nonnegative integer or the string
    ``"stationary-warmup"``, in which case the chain starts empty, runs a
    burn-in of ``warmup_steps`` (default 1000) and keeps only what follows.
    An integer initial state combined with a positive ``warmup_steps`` also
    burns in, starting from that state.
    """

    steps: int
    seed: Union[int, np.random.SeedSequence] = 0
    initial_state: Union[int, str] = 0
    warmup_steps: Optional[int] = None

    def __post_init__(self):
        integers = [("steps", self.steps)]
        if self.warmup_steps is not None:
            integers.append(("warmup_steps", self.warmup_steps))
        if not isinstance(self.initial_state, str):
            integers.append(("initial_state", self.initial_state))
        for name, value in integers:
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if isinstance(self.seed, Integral) and self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.warmup_steps is not None and self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        if isinstance(self.initial_state, str):
            if self.initial_state != STATIONARY_WARMUP:
                raise ValueError(f"unknown initial_state {self.initial_state!r}")
        elif self.initial_state < 0:
            raise ValueError("initial_state must be >= 0")

    def resolve(self) -> tuple[int, int]:
        """Return (start_state, warmup) with defaults applied."""
        if self.initial_state == STATIONARY_WARMUP:
            warmup = DEFAULT_WARMUP_STEPS if self.warmup_steps is None else self.warmup_steps
            return 0, warmup
        return int(self.initial_state), int(self.warmup_steps or 0)


class _Rates:
    """Joining rates and up and down probabilities by state: those below ``upto``, then as needed."""

    def __init__(self, theta, cfg: ModelConfig, fam: ValueFamily, upto: int):
        self.theta, self.cfg, self.fam = theta, cfg, fam
        self.lam: list[float] = []
        self.up: list[float] = []
        self.down: list[float] = []
        self.cover(upto)
        if self.lam[0] <= 0.0:
            raise AbsorbingStateError(
                "no customer ever joins the empty queue (joining rate 0 at state 0)"
            )

    def cover(self, upto: int) -> None:
        """Tabulate every state below ``upto``, in at least 64 more states at a time."""
        if (lo := len(self.lam)) < upto:
            tab = StateTable(np.arange(lo, max(upto, lo + 64)), self.theta, self.cfg, self.fam)
            self.lam += tab.lam_q.tolist()
            self.up += tab.p_up.tolist()
            self.down += tab.p_down.tolist()

    def walk(self, q: int, draws) -> list:
        """The states after each of ``draws`` from ``q``: a draw below p_up (1 at 0) moves up."""
        walked, up = [], self.up
        for a in range(0, len(draws), 64):  # 64 draws at a time: the table grows as the chain climbs
            self.cover(q + 64)
            for u in draws[a:a + 64]:
                q = q + 1 if u < up[q] else q - 1
                walked.append(q)
        return walked


def build_path(
    rng, start: int, warmup: int, steps: int, theta, cfg: ModelConfig, fam: ValueFamily
) -> QueuePath:
    """Walk ``warmup + steps`` transitions from ``start`` and keep the last ``steps``.

    The jump chain consumes one uniform per transition, then the holding
    times one standard exponential each, both from ``rng``; the caller owns
    the generator, so consecutive calls continue one random stream.
    """
    rates = _Rates(theta, cfg, fam, start + 64)
    walked = rates.walk(start, memoryview(rng.random(warmup + steps)))
    states = np.array([start, *walked][warmup:], dtype=np.int64)
    rate = np.array(rates.lam) + cfg.mu  # exit rate per state; the empty queue is left by arrivals only
    rate[0] = rates.lam[0]
    return _observed(states, rng.standard_exponential(steps) / rate[states[:-1]], cfg)


def _observed(states: np.ndarray, holds: np.ndarray, cfg: ModelConfig) -> QueuePath:
    """The path of a walk's states and holding times: its up moves, revenue and total time."""
    ups = states[1:] > states[:-1]
    return QueuePath(states, ups, holds, cfg.price * int(ups.sum()), float(holds.sum()))


def _walk_counts(
    cfg: ModelConfig, fam: ValueFamily, theta0, runs: Sequence[SimOptions]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Transition counts with the law of ``simulate_path(cfg, fam, theta0, opts)``'s, per opts of ``runs``.

    The runs differ only in their seeds.  Each run's counts come from its
    own generator alone (``_counts``), and no path or holding time is made:
    the counts are all a fit reads.
    """
    theta0 = fam.param_space.require(theta0)
    (start, warmup), steps = runs[0].resolve(), runs[0].steps
    if any((opts.resolve(), opts.steps) != ((start, warmup), steps) for opts in runs):
        raise ValueError("the runs of one walk must share their start, warm-up and length")
    rates = _Rates(theta0, cfg, fam, start + 64)
    return [_counts(np.random.default_rng(opts.seed), start, warmup, steps, rates) for opts in runs]


def _counts(rng, start: int, warmup: int, steps: int, rates: _Rates) -> tuple[np.ndarray, np.ndarray]:
    """Per-state counts of up and down moves (by pre-state) of ``steps`` transitions after a warm-up.

    The warm-up, and the path on to its first return to the empty queue,
    take the one-step walk; the rest is drawn as excursions (``_excursions``).
    """
    head = [rates.walk(start, memoryview(rng.random(warmup)))[-1] if warmup else start]
    while head[-1] and len(head) <= steps:  # on to the first return to 0, 64 steps at a time
        walked = rates.walk(head[-1], memoryview(rng.random(min(64, steps + 1 - len(head)))))
        head += walked[:walked.index(0) + 1] if 0 in walked else walked
    trees, end = _excursions(rng, steps + 1 - len(head), rates)
    size = len(rates.lam) + 1
    pre, post = np.array(head[:-1], dtype=np.int64), np.array(head[1:], dtype=np.int64)
    n_up = np.bincount(pre[post > pre], minlength=size)
    n_down = np.bincount(pre[post < pre], minlength=size)
    n_up[:len(trees)] += trees
    n_down[1:len(trees) + 1] += trees  # a whole tree moves down from q + 1 once per up move from q
    n_up[:end] += 1  # the up moves into the tree the path ends in, one per state below its end
    last = np.flatnonzero(n_up + n_down)[-1] + 1
    return n_up[:last], n_down[:last]


def _excursions(rng, steps: int, rates: _Rates) -> tuple[np.ndarray, int]:
    """The first ``steps`` transitions from the empty queue, drawn as trees of up moves.

    An excursion above q is a Galton-Watson tree: each up move from q starts
    a visit to q + 1 that moves up a geometric number of times before it
    moves down.  So the generation sizes of a forest of them, its up moves
    from q, q + 1, ..., follow u_{j+1} ~ NegBin(u_j, p_down(q + j + 1)), and
    it takes 2 * sum(u) transitions.  A forest is drawn a generation at a
    time until it dies out or outgrows the steps left.  One that outgrows
    them is halved (``_split``), its later half put back to follow the
    first; a single tree that does is entered: its root's up move is taken
    and its children, a forest one level higher, come next.  So no draw
    outgrows the steps left by much, whatever the drift.

    Returns (trees, end): the up moves of the whole trees the path runs
    through, by state, and the state the path ends in.
    """
    trees, end, left = [], 0, steps
    todo = [(0, [-(-steps // 2)])]  # ceil(steps / 2) excursions take at least ``steps`` transitions
    while left:
        level, gens = todo.pop()
        length = 2 * sum(gens)
        while gens[-1] and length <= left:
            rates.cover(level + len(gens) + 1)
            gens.append(int(rng.negative_binomial(gens[-1], rates.down[level + len(gens)])))
            length += 2 * gens[-1]
        if length <= left:
            trees += [0] * (level + len(gens) - len(trees))
            for q, ups in enumerate(gens, level):
                trees[q] += ups
            left -= length
        elif gens[0] == 1:  # its children outlast the steps left after its up move, so it ends in them
            todo.append((level + 1, gens[1:]))
            left, end = left - 1, level + 1
        else:
            first = _split(rng, gens, gens[0] // 2)
            todo += [(level, [g - f for g, f in zip(gens, first)]), (level, first)]
    return np.array(trees, dtype=np.int64), end


def _split(rng, gens: list, trees: int) -> list:
    """The generation sizes of the first ``trees`` trees of a forest whose generation sizes are ``gens``.

    Given the first trees' share of one generation, their share of the next
    is Beta-binomial, whatever p_down is: the next generation sums one
    geometric number of children per node.
    """
    first = [trees]
    for above, size in zip(gens, gens[1:]):
        share = first[-1]
        if size and 0 < share < above:
            share = int(rng.binomial(size, rng.beta(share, above - share)))
        else:
            share = size if share else 0  # all of the generation above, or none of it
        first.append(share)
    return first


def simulate_path(
    cfg: ModelConfig, fam: ValueFamily, theta0, opts: SimOptions
) -> QueuePath:
    """Simulate the censored jump chain with holding times and revenue.

    From state q > 0 the chain waits Exp(lam_q + mu) and moves up with
    probability lam_q / (lam_q + mu); from the empty queue it waits for the
    next effective arrival, Exp(lam_0), and moves up.  Deterministic given
    the seed.  Burn-in transitions are simulated and discarded; the final
    burn-in state becomes Q_0.
    """
    theta0 = fam.param_space.require(theta0)
    start, warmup = opts.resolve()
    return build_path(np.random.default_rng(opts.seed), start, warmup, opts.steps, theta0, cfg, fam)


def simulate_full_arrivals(
    cfg: ModelConfig, fam: ValueFamily, theta0, opts: SimOptions
) -> QueuePath:
    """Per-customer simulation with the same output law as simulate_path.

    Every potential arrival of the Poisson(lam) stream draws its own service
    value; a customer facing q in the system joins only when the value covers
    the offered-reward threshold at q.  Balking customers leave no trace in
    the recorded path.  Kept as the independent oracle for the thinning
    equivalence; prefer simulate_path for anything long.
    """
    theta0 = fam.param_space.require(theta0)
    if StateTable(0, theta0, cfg, fam).surv[0] <= 0.0:
        raise AbsorbingStateError(
            "no customer ever joins the empty queue (joining rate 0 at state 0)"
        )
    start, warmup = opts.resolve()
    rng = np.random.default_rng(opts.seed)
    total = warmup + opts.steps
    thresholds: list[float] = []  # offered_reward(q, cfg) at q = 0, 1, ..., grown with the queue

    states = np.empty(total + 1, dtype=np.int64)
    holds = np.empty(total, dtype=float)

    states[0] = q = start
    now = 0.0
    last_transition = 0.0
    next_arrival = rng.exponential(1.0 / cfg.lam)
    next_departure = rng.exponential(1.0 / cfg.mu) if q > 0 else np.inf

    recorded = 0
    while recorded < total:
        if next_arrival <= next_departure:
            now = next_arrival
            next_arrival = now + rng.exponential(1.0 / cfg.lam)
            value = fam.quantile(rng.random(), theta0)
            if q >= len(thresholds):
                thresholds = _threshold(np.arange(2 * q + 64), cfg).tolist()
            if value < thresholds[q]:
                continue  # a balking customer leaves no trace
            q += 1
            if q == 1:
                next_departure = now + rng.exponential(1.0 / cfg.mu)
        else:
            now = next_departure
            q -= 1
            next_departure = now + rng.exponential(1.0 / cfg.mu) if q > 0 else np.inf
        states[recorded + 1] = q
        holds[recorded] = now - last_transition
        last_transition = now
        recorded += 1

    return _observed(states[warmup:], holds[warmup:], cfg)


@dataclass(frozen=True)
class PathStats:
    up_count: int
    down_count: int
    effective_m: int
    jump_occupancy: np.ndarray
    time_occupancy: np.ndarray
    revenue_rate: float


def path_stats(path: QueuePath) -> PathStats:
    """Summary counts and occupancies of a path.

    effective_m counts the transitions out of a nonempty queue, the only
    ones that can tell anything about the parameter; the count of those that
    do at a given parameter is the fit's ``FitResult.effective_n``.
    Occupancy is reported two ways over the pre-states of each transition:
    jump-weighted (fraction of steps spent at q) and time-weighted (fraction
    of total time spent at q).
    """
    if len(path) == 0:
        raise ValueError("path has no transitions")
    pre = path.pre_states
    up_count = int(path.ups.sum())
    jump = np.bincount(pre) / len(path)
    time_w = np.bincount(pre, weights=path.holds) / path.total_time
    return PathStats(
        up_count=up_count,
        down_count=len(path) - up_count,
        effective_m=int((pre > 0).sum()),
        jump_occupancy=jump,
        time_occupancy=time_w,
        revenue_rate=path.revenue / path.total_time,
    )
