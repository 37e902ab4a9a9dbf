"""Seeded simulation of the observable (balking-censored) queue.

Two generators of the same law: ``simulate_path`` drives the thinned jump
chain directly from the state-dependent joining rates (fast, the default),
while ``simulate_full_arrivals`` plays out every potential customer, draws an
individual service value, applies the joining rule and discards balkers.  The
second exists so tests can verify the thinning equivalence end to end.  Both
return a QueuePath, which holds only what the manager observes: queue lengths,
holding times and revenue.

A long path is walked by predict-and-patch (``_walk``): its blocks are walked
at once from guessed entries into one block-major table, then each block whose
entry was wrong is walked one step at a time from its true entry until it
meets the table's walk, so the guesses only set the speed.  The same walk
takes several chains at once as the blocks of one table; ``_walk_counts``
walks up to ``_TABLE_DRAWS`` draws of chains to a table and reduces each
chain to transition counts, all a fit needs, from the states it visits
(``_state_counts``).
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
# block size and fewest draws predicted, see _walk (measured, BENCH_lean_walk.json)
_BLOCK, _PREDICT_FROM = 64, 16384
# most draws walked to one table by _walk_counts: two chains of 10^5 steps after the default
# warm-up, whose draws and table take about 2.4 MB (measured, BENCH_wide_tables.json)
_TABLE_DRAWS = 2 * 101_000
_PIECE = 64  # most blocks of uniforms drawn, or walked again, at a time


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


def _walk(rngs, steps: int, start: int, theta, cfg: ModelConfig, fam: ValueFamily):
    """Run one jump chain of ``steps`` transitions from ``start`` per generator in ``rngs``.

    Each chain draws its ``steps`` uniforms from its own generator.  A draw
    below p_up (1 at the empty queue) moves up.  From ``_PREDICT_FROM`` draws
    in all, the first ``blocks * _BLOCK`` steps of each chain are walked in
    ``_BLOCK``-step blocks, whose uniforms go straight into a block-major
    table (``_predict``).  The rest, the tail, takes the one-step walk.

    Returns (table, tails, rates):
    table -- int32, one column of ``_BLOCK + 1`` states per block, chain after
             chain: column ``c * blocks + j`` holds the entry of block j of
             chain c and the state after each of its steps;
    tails -- per chain, the states from step ``blocks * _BLOCK`` to ``steps``;
    rates -- the joining rate of each state 0..at least the highest visited.
    """
    lam_tab: list[float] = []
    pup: list[float] = []

    def cover(upto: int) -> None:
        """Tabulate every state below ``upto``, in at least 64 more states at a time."""
        if (lo := len(lam_tab)) < upto:
            tab = StateTable(np.arange(lo, max(upto, lo + 64)), theta, cfg, fam)
            lam_tab.extend(tab.lam_q.tolist())
            pup.extend(tab.p_up.tolist())

    def walk(q: int, draws, ahead=None) -> list:
        """The states after each draw from ``q``, up to the first one that ``ahead`` also has.

        Without ``ahead``, the states after every draw.
        """
        cover(q + len(draws) + 1)
        walked = []
        if ahead is None:
            for u in draws:
                q = q + 1 if u < pup[q] else q - 1
                walked.append(q)
            return walked
        for u, predicted in zip(draws, ahead):
            q = q + 1 if u < pup[q] else q - 1
            if q == predicted:
                break  # met the prediction, which from here on is the true path
            walked.append(q)
        return walked

    cover(start + 2 * _BLOCK + 2)  # room for the first two blocks of steps
    if lam_tab[0] <= 0.0:
        raise AbsorbingStateError(
            "no customer ever joins the empty queue (joining rate 0 at state 0)"
        )

    blocks = steps // _BLOCK if len(rngs) * steps >= _PREDICT_FROM else 0
    table = np.full((_BLOCK + 1, len(rngs) * blocks), -1, dtype=np.int32)  # -1: not walked yet
    draws = np.empty((_BLOCK, len(rngs) * blocks))
    piece = np.empty(min(blocks, _PIECE) * _BLOCK)
    tail_draws = []
    for c, rng in enumerate(rngs):  # each chain's uniforms in path order, a piece at a time
        for a in range(c * blocks, (c + 1) * blocks, _PIECE):
            m = min(_PIECE, (c + 1) * blocks - a)
            rng.random(out=piece[:m * _BLOCK])
            draws[:, a:a + m] = piece[:m * _BLOCK].reshape(m, _BLOCK).T
        tail_draws.append(memoryview(rng.random(steps - blocks * _BLOCK)))
    if blocks:
        _predict(draws, start, table, blocks, pup, cover)
        # walk again from each block whose entry is not where the block before it ends,
        # on through the blocks after it until the walk meets the table's
        moved = table[0, 1:] != table[-1, :-1]
        moved[blocks - 1::blocks] = False  # each chain's first block starts at its true entry
        for j in (np.flatnonzero(moved) + 1).tolist():
            if (q := int(table[-1, j - 1])) == table[0, j]:
                continue  # a walk from an earlier block already put it right
            # block j alone on views of its columns: most walks meet the table inside it
            walked = walk(q, memoryview(draws[:, j]), memoryview(table[1:, j]))
            table[0, j], table[1:len(walked) + 1, j] = q, walked
            if len(walked) < _BLOCK:
                continue  # met the table's walk
            # on through the blocks after it, 4, 8, ... at a time, to the chain's end
            j, width, last = j + 1, 4, j - j % blocks + blocks
            while j < last and (q := int(table[-1, j - 1])) != table[0, j]:
                k = min(j + width, last)
                ahead = table[1:, j:k].T.ravel()  # the table's walk over blocks j..k-1, in path order
                walked = walk(q, memoryview(draws[:, j:k].T.ravel()), memoryview(ahead))
                ahead[:len(walked)] = walked  # from where it met, the table's walk is the true one
                table[1:, j:k] = ahead.reshape(k - j, _BLOCK).T
                entered = min(len(walked) // _BLOCK, k - j - 1)  # blocks after j the walk reached
                table[0, j] = q
                table[0, j + 1:j + 1 + entered] = ahead[_BLOCK - 1:entered * _BLOCK:_BLOCK]
                if len(walked) < len(ahead):
                    break  # met the table's walk
                j, width = k, min(2 * width, _PIECE)
    ends = table[-1, blocks - 1::blocks].tolist() if blocks else [start] * len(rngs)
    tails = []
    for tail, chain_draws in zip(([q] for q in ends), tail_draws):
        for a in range(0, len(chain_draws), _BLOCK):  # a block at a time: the table grows as it climbs
            tail += walk(tail[-1], chain_draws[a:a + _BLOCK])
        tails.append(np.array(tail, dtype=np.int64))
    return table, tails, np.asarray(lam_tab)


def _predict(draws: np.ndarray, start: int, table: np.ndarray, blocks: int, pup: list, cover) -> None:
    """Walk every block of ``table`` at once, each on its column of ``draws``.

    Pass 1 enters block j > 0 of a chain at ``(start + j*_BLOCK) % 2``, the
    parity of its true entry.  Each later pass enters each block where the
    pass before left the block before it.  Walks of one parity on the same
    draws never cross (p_up does not rise with the state), and once they meet
    they are one walk.  So a later pass walks only the blocks whose entry
    moved, each only until it meets the walk the table holds, and leaves the
    table as a full pass would.  At step 0, 1, 2, 4, ... a pass drops the
    blocks that met, once they are at least half of those still walked.
    After two passes, another follows while, at the last one's rate, it would
    put at least ``_BLOCK`` more entries right.
    """
    n = table.shape[1]
    q = np.tile((start + _BLOCK * np.arange(blocks, dtype=np.int32)) % 2, n // blocks)
    q[::blocks] = start
    moved, passes = n, 0  # blocks whose entry the pass moves
    while moved:
        cover(int(q.max()) + _BLOCK + 2)  # past every state a block can reach
        up_at = np.array(pup)
        cols = slice(None)
        for i in range(_BLOCK + 1):
            row = table[i]
            if i & (i - 1) == 0:
                live = q != row[cols]  # not yet on the walk the table holds
                count = np.count_nonzero(live)
                if not count:
                    break
                if 2 * count <= len(q):
                    q, cols = q[live], np.arange(n)[cols][live]
            row[cols] = q
            if i < _BLOCK:
                q = q - 1 + 2 * (draws[i][cols] < up_at.take(q))
        q = np.roll(table[-1], 1)
        q[::blocks] = start
        left, passes = np.count_nonzero(q != table[0]), passes + 1
        if passes >= 2 and left * (moved - left) < _BLOCK * moved:
            break  # at this pass's rate the next one would put fewer than _BLOCK entries right
        moved = left


def _state_counts(visits: np.ndarray, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-state counts of up and down moves of a walk of unit steps on q >= 0 (indexed by pre-state).

    ``visits[q]`` counts the walk's steps from q, and ``first`` and ``last``
    are its end states.  The flows over each edge balance,
    n_down[q+1] = n_up[q] - [last > q] + [first > q], and
    n_up[q] + n_down[q] = visits[q], so n_up is an alternating cumulative sum.
    """
    flows = visits.copy()  # visits[q] + [last >= q] - [first >= q], the sign of q's parity
    flows[:last + 1] += 1
    flows[:first + 1] -= 1
    flows[1::2] *= -1
    n_up = np.cumsum(flows)
    n_up[1::2] *= -1
    return n_up, visits - n_up


def build_path(
    rng, start: int, warmup: int, steps: int, theta, cfg: ModelConfig, fam: ValueFamily
) -> QueuePath:
    """Walk ``warmup + steps`` transitions from ``start`` and keep the last ``steps``.

    The jump chain consumes one uniform per transition, then the holding
    times one standard exponential each, both from ``rng``; the caller owns
    the generator, so consecutive calls continue one random stream.
    """
    table, tails, lam_tab = _walk([rng], warmup + steps, start, theta, cfg, fam)
    if table.size:  # the blocks' states, then the tail's
        states = np.concatenate((table[:-1].T.ravel(), tails[0]), dtype=np.int64)[warmup:]
    else:
        states = tails[0][warmup:]
    rate = lam_tab + cfg.mu  # exit rate per state; the empty queue is left by arrivals only
    rate[0] = lam_tab[0]
    return _observed(states, rng.standard_exponential(steps) / rate[states[:-1]], cfg)


def _observed(states: np.ndarray, holds: np.ndarray, cfg: ModelConfig) -> QueuePath:
    """The path of a walk's states and holding times: its up moves, revenue and total time."""
    ups = states[1:] > states[:-1]
    return QueuePath(states, ups, holds, cfg.price * int(ups.sum()), float(holds.sum()))


def _walk_counts(
    cfg: ModelConfig, fam: ValueFamily, theta0, runs: Sequence[SimOptions]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The transition counts of ``simulate_path(cfg, fam, theta0, opts)`` for each opts of ``runs``.

    The runs differ only in their seeds.  Their chains are walked together,
    as many to a table as fit ``_TABLE_DRAWS`` draws (at least one), on the
    uniforms ``simulate_path`` draws first, and no holding times are drawn:
    the counts are all a fit reads, and they follow from the states each
    chain visits after its warm-up.
    """
    theta0 = fam.param_space.require(theta0)
    (start, warmup), steps = runs[0].resolve(), runs[0].steps
    if any((opts.resolve(), opts.steps) != ((start, warmup), steps) for opts in runs):
        raise ValueError("the runs of one walk must share their start, warm-up and length")
    per_table = max(1, _TABLE_DRAWS // (warmup + steps))
    counts = []
    for i in range(0, len(runs), per_table):  # a table is freed before the next is walked
        rngs = [np.random.default_rng(opts.seed) for opts in runs[i:i + per_table]]
        counts += _table_counts(*_walk(rngs, warmup + steps, start, theta0, cfg, fam), warmup)
    return counts


def _table_counts(table, tails, rates, warmup: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The transition counts of each chain of a ``_walk``, after its first ``warmup`` steps."""
    blocks, size = table.shape[1] // len(tails), len(rates)
    done = blocks * _BLOCK
    counts = []
    for c, tail in enumerate(tails):
        own = table[:-1, c * blocks:(c + 1) * blocks]  # each block step's pre-state
        head = own[:, :-(-warmup // _BLOCK)].T.ravel()[:warmup]  # the warm-up's, in path order
        visits = (np.bincount(own.ravel(), minlength=size) - np.bincount(head, minlength=size)
                  + np.bincount(tail[max(warmup - done, 0):-1], minlength=size))
        first = own[warmup % _BLOCK, warmup // _BLOCK] if warmup < done else tail[warmup - done]
        counts.append(_state_counts(visits[:np.flatnonzero(visits)[-1] + 1], first, tail[-1]))
    return counts


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
