"""Closed-ensemble betting simulation.

A fixed population of participants, each initialized with one win and
zero losses, bets pairwise on fair coin flips.  Every bet adds exactly
one win and one loss, so total_wins - total_losses stays pinned at the
population size while the posterior population spreads out and the
ensemble mean decays toward 0.5.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import rng as rngmod
from .core import EnsembleState, Snapshots, _posteriors
from .rng import _count

DEFAULT_SMOOTHING_WINDOW = 25
# steps a population books before it summarises them in one batch, and a
# run without churn books at a time
BLOCK_STEPS = 64

# a forced bet: ((i, j), winner) with winner one of i, j
ForcedBet = tuple[tuple[int, int], int]


@dataclass(frozen=True)
class ConservativeConfig:
    """Parameters of one closed-ensemble run.

    ``steps`` may be 0, in which case the trajectory is just the
    initial snapshot.  The counts must be integers: a float is refused,
    not truncated.
    """

    steps: int
    n_microstates: int = 50
    bets_per_step: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("steps", "n_microstates", "bets_per_step"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        if self.n_microstates < 2:
            raise ValueError("n_microstates must be >= 2")
        if not 1 <= self.bets_per_step <= self.n_microstates // 2:
            raise ValueError(
                f"bets_per_step must be in [1, {self.n_microstates // 2}] "
                f"for {self.n_microstates} microstates"
            )
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        object.__setattr__(self, "seed", rngmod.check_seed(self.seed))

    def with_seed(self, seed: int) -> "ConservativeConfig":
        return replace(self, seed=seed)


@dataclass
class Trajectory:
    """The history of one population: a closed run, or one grain of an open run.

    ``snapshots`` starts with the fresh population at ``birth_step`` and
    gains a row per step that ``advance`` runs.  ``id`` keys the
    population's bet streams (0 for a closed run), which ``streams``
    serves.  A retired grain has ``death_step`` set and no ``ensemble``
    or ``streams``.  No ledger row is kept: ``advance`` hands each block's
    rows and posteriors back to its caller, which may keep them.

    Steps are summarised in batches: the posteriors of the steps run
    wait until ``BLOCK_STEPS`` of them do, or until ``snapshots`` is read,
    the run ends or the population retires.
    """

    id: int
    size: int
    birth_step: int
    ensemble: EnsembleState | None
    streams: rngmod.StreamStepper | None
    death_step: int | None = None
    _snapshots: Snapshots = field(default_factory=Snapshots, repr=False)
    _pending: list[np.ndarray] = field(default_factory=list, repr=False)
    _steps_run: int = field(default=0, repr=False)

    @classmethod
    def fresh(cls, size: int, seed: int, last: int, id: int = 0, birth_step: int = 0):
        """A fresh population (one win and no loss each) with its birth snapshot.

        Its bet streams are keyed (seed, BETS, id) for the steps up to
        ``last``, the run's horizon.  The birth is the population's first
        step run, booked without ``_book``: its row is the fresh ledgers,
        and its posteriors, which wait to be summarised, are exactly 1,
        since no ledger holds a loss.
        """
        if size < 2:
            raise ValueError(f"an ensemble needs at least 2 microstates, got {size}")
        ensemble = EnsembleState(np.ones(size, dtype=np.int64), np.zeros(size, dtype=np.int64))
        streams = rngmod.StreamStepper(seed, rngmod.BETS, id, last)
        births = np.ones((1, size))
        births.setflags(write=False)
        return cls(id, size, birth_step, ensemble, streams, _pending=[births], _steps_run=1)

    @property
    def snapshots(self) -> Snapshots:
        """One row per step run, from the birth on."""
        self.summarise()
        return self._snapshots

    def summarise(self) -> None:
        """Summarise the steps that wait for it, in one batch."""
        if self._pending:
            block = np.concatenate(self._pending) if len(self._pending) > 1 else self._pending[0]
            self._pending = []
            self._snapshots.add(block, self.birth_step + len(self._snapshots))

    def advance(self, t: int, bets: int, steps: int = 1,
                forced: list[list[ForcedBet]] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Run steps t to t + steps - 1, the population's next steps; returns
        the block it booked: the ledgers after each step, a fresh ``(steps,
        2, size)`` int64 array, and their posteriors, a read-only ``(steps,
        size)`` one.

        Step t + k books ``forced[k]`` when ``forced`` is given, else
        ``bets`` random pairs from the step's stream, which ``streams``
        serves.  A forced step derives no stream, and neither does a step
        of 0 bets, which books nothing.  Every step, one or many, random
        or forced, is booked by ``_book`` in one pass over the block.  The
        steps' posteriors are summarised in one batch with the steps that
        wait before them.
        """
        row, n = self._steps_run, self.size
        if t != self.birth_step + row:
            raise ValueError(f"step {t} is not the population's next step, {self.birth_step + row}")
        rows = np.empty((steps, 2, n), dtype=np.int64)
        if forced is not None:
            draws = ((*_forced_pairs(pairs, n), len(pairs)) for pairs in forced)
        elif bets >= 1:
            at = self.streams.at
            draws = ((*_draw(at(s), n, bets), bets) for s in range(t, t + steps))
        else:
            draws = [(slice(0), slice(0), 0)] * steps  # empty selections: no bets
        posteriors = _book(self.ensemble, draws, rows, t)
        self._steps_run = row + steps
        posteriors.setflags(write=False)  # it waits in _pending to be summarised
        self._pending.append(posteriors)
        if self._steps_run - len(self._snapshots) >= BLOCK_STEPS:
            self.summarise()
        return rows, posteriors

    def retire(self, t: int) -> None:
        """End the population at step t: it keeps its snapshots, in no more
        room than they fill, and drops its ensemble and streams."""
        self.death_step = t
        self.ensemble = self.streams = None
        self.summarise()
        self._snapshots.trim()


def _draw(rng: np.random.Generator, n: int, bets: int):
    """The winners and losers of one random step of ``bets`` bets among n.

    The pairs are the leading ``2 * bets`` entries of a shuffle of
    range(n), and one fair coin per pair picks its first index on heads.
    A one-bet step draws its coin as a scalar and returns two ints: the
    same value, and the generator left in the same state, as the array
    draw of one coin.
    """
    if bets == 1:
        i, j = rng.permutation(n)[:2].tolist()
        return (i, j) if rng.integers(0, 2) == 0 else (j, i)
    idx = rng.permutation(n)[: 2 * bets]
    heads = rng.integers(0, 2, size=bets) == 0
    return np.where(heads, idx[0::2], idx[1::2]), np.where(heads, idx[1::2], idx[0::2])


def _forced_pairs(forced: list[ForcedBet], n: int):
    """The winners and losers of a forced step among n, an explicit list of
    (pair, winner) bets: each pair is two participants of range(n), won
    by one of them, and shares no participant with another pair."""
    seen: set[int] = set()
    for (i, j), winner in forced:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pair {(i, j)} is outside range({n})")
        if i == j:
            raise ValueError(f"a participant cannot bet against itself (pair {(i, j)})")
        if winner not in (i, j):
            raise ValueError(f"winner {winner} is not part of pair {(i, j)}")
        if i in seen or j in seen:
            raise ValueError("forced pairs must be disjoint within one step")
        seen.update((i, j))
    winners = np.array([w for _, w in forced], dtype=np.int64)
    losers = np.array([i + j - w for (i, j), w in forced], dtype=np.int64)
    return winners, losers


def _book(state: EnsembleState, draws, rows: np.ndarray, first: int = 0) -> np.ndarray:
    """Book one step per ``(winners, losers, bets)`` of ``draws`` on the live
    ledgers of ``state``, the steps ``first`` on; returns the steps'
    posteriors, a ``(steps, size)`` block.

    A step's pairs are disjoint, so no index repeats and each update is
    exact.  After each step both ledgers are copied into its row of
    ``rows``, a ``(steps, 2, size)`` int64 block, and the carried totals
    grow by the steps' bets.  Then every row's column sums are checked
    against its step's running totals, and an AssertionError names the
    first step that misses them.  One ``_posteriors`` pass with
    those sums as each row's totals gives the posteriors: elementwise the
    divisions of one step at a time.
    """
    wins, losses = state.wins, state.losses
    total_wins, total_losses = state.total_wins, state.total_losses
    totals = []  # each step's running [[total wins], [total losses]]
    for k, (winners, losers, bets) in enumerate(draws):
        wins[winners] += 1
        losses[losers] += 1
        rows[k, 0] = wins
        rows[k, 1] = losses
        total_wins += bets
        total_losses += bets
        totals.append([[total_wins], [total_losses]])
    state.total_wins, state.total_losses = total_wins, total_losses
    sums = np.add.reduce(rows, axis=2, keepdims=True)
    # every bet books one win and one loss, so each row sums to its step's
    # totals; a raise, not an assert, so that python -O keeps the check
    booked = sums.tolist()
    if booked != totals:
        k = next(k for k, (got, want) in enumerate(zip(booked, totals)) if got != want)
        (wins_sum, losses_sum), (want_wins, want_losses) = booked[k], totals[k]
        raise AssertionError(
            f"ledger check failed at step {first + k}: the wins and losses sum to "
            f"{wins_sum[0]} and {losses_sum[0]}, the totals are {want_wins[0]} and {want_losses[0]}"
        )
    return _posteriors(rows[:, 0], rows[:, 1], sums[:, 0], sums[:, 1])


def step_conservative(
    state: EnsembleState,
    rng: np.random.Generator | None,
    bets_per_step: int = 1,
    forced: list[ForcedBet] | None = None,
) -> EnsembleState:
    """Advance the ensemble by one step of pairwise betting, in place: the
    one-step case of ``_book``, which books every step of a ``Trajectory``.

    Random pairs and coins come from ``_draw``.  ``forced``, an explicit
    (pair, winner) list checked by ``_forced_pairs``, replaces them for
    replaying hand-specified bet sequences in tests and demos.  Either
    way the column sums are checked against the carried totals.
    """
    n = state.size
    if forced is not None:
        draw = (*_forced_pairs(forced, n), len(forced))
    else:
        if rng is None:
            raise ValueError("rng required unless a forced bet list is given")
        if bets_per_step < 1:
            raise ValueError("bets_per_step must be >= 1")
        if 2 * bets_per_step > n:
            raise ValueError(f"cannot draw {bets_per_step} disjoint pairs from {n} microstates")
        draw = (*_draw(rng, n, bets_per_step), bets_per_step)
    _book(state, [draw], np.empty((1, 2, n), dtype=np.int64))
    return state


def smooth_series(values, window: int) -> np.ndarray:
    """Trailing moving average; the first window-1 entries average the
    available prefix so the series stays causal and the same length."""
    if window < 1:
        raise ValueError("window must be >= 1")
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return v.copy()
    c = np.cumsum(v)
    out = np.empty_like(v)
    head = min(window, v.size)
    out[:head] = c[:head] / np.arange(1, head + 1)
    if v.size > window:
        out[window:] = (c[window:] - c[:-window]) / window
    return out


def run_conservative(
    config: ConservativeConfig,
    sink: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
    forced_schedule: list[list[ForcedBet]] | None = None,
) -> Trajectory:
    """Run a full closed-ensemble simulation.

    Each step draws its betting randomness from an independent stream
    keyed on (seed, step), so replays are bit-identical and unrelated
    runs can execute in parallel.  Nothing a step draws depends on the
    summaries, so the run advances ``BLOCK_STEPS`` steps at a time.
    ``sink``, when given, is called with each booked block in step
    order, the birth first: ``sink(first_step, rows, posteriors)``, with
    the ``(steps, 2, N)`` int64 ledgers after each step and their
    posteriors, the run's own.  The run keeps no row, so its memory does
    not grow with ``config.steps`` beyond its snapshots, whose
    ``steps + 1`` rows are reserved at the start: a run too long to
    record fails before its first step.  ``forced_schedule`` (one forced
    bet list per step) replaces the random schedule when given; its
    length must equal ``config.steps``.
    """
    if forced_schedule is not None and len(forced_schedule) != config.steps:
        raise ValueError("forced_schedule length must equal config.steps")
    if sink is None:
        sink = lambda *block: None
    traj = Trajectory.fresh(config.n_microstates, config.seed, config.steps)
    traj._snapshots = Snapshots(config.steps + 1)
    births = traj.ensemble
    sink(0, np.array([[births.wins, births.losses]]), np.ones((1, traj.size)))
    for t in range(1, config.steps + 1, BLOCK_STEPS):
        steps = min(BLOCK_STEPS, config.steps + 1 - t)
        forced = None if forced_schedule is None else forced_schedule[t - 1:t - 1 + steps]
        sink(t, *traj.advance(t, config.bets_per_step, steps, forced))
    traj.summarise()
    return traj
