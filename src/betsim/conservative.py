"""Closed-ensemble betting simulation.

A fixed population of participants, each initialized with one win and
zero losses, bets pairwise on fair coin flips.  Every bet adds exactly
one win and one loss, so total_wins - total_losses stays pinned at the
population size while the posterior population spreads out and the
ensemble mean decays toward 0.5.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .core import EnsembleState, Snapshots, _means, _posteriors, _resized, block_snapshots

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
    initial snapshot.
    """

    steps: int
    n_microstates: int = 50
    bets_per_step: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_microstates < 2:
            raise ValueError("n_microstates must be >= 2")
        if not 1 <= self.bets_per_step <= self.n_microstates // 2:
            raise ValueError(
                f"bets_per_step must be in [1, {self.n_microstates // 2}] "
                f"for {self.n_microstates} microstates"
            )
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        rngmod.check_seed(self.seed)

    def with_seed(self, seed: int) -> "ConservativeConfig":
        return replace(self, seed=seed)


@dataclass
class Trajectory:
    """The history of one population: a closed run, or one grain of an open run.

    ``snapshots`` starts with the fresh population at ``birth_step`` and
    gains a row per step that ``advance`` runs.  ``id`` keys the
    population's bet streams (0 for a closed run), which ``streams``
    serves.  A retired grain has ``death_step`` set and no ``ensemble``
    or ``streams``.  ``wins`` and ``losses`` are the ledgers after each
    step, ``(steps run, size)`` int64 arrays, when the run records them
    and None otherwise; a step's posteriors are a function of its rows
    and their sums, so they are not kept.

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
    _wins: np.ndarray | None = field(default=None, repr=False)
    _losses: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def fresh(cls, size: int, seed: int, last: int, id: int = 0, birth_step: int = 0,
              record: bool = False):
        """A fresh population (every posterior 1) with its birth snapshot.

        Its bet streams are keyed (seed, BETS, id) for the steps up to
        ``last``, the run's horizon; ``record`` keeps the ledgers, with
        room for the birth and each step up to ``last``.
        """
        streams = rngmod.StreamStepper(seed, rngmod.BETS, id, last)
        traj = cls(id, size, birth_step, init_ensemble(size), streams)
        if record:
            rows = max(1, last - birth_step + 1)
            traj._wins = np.empty((rows, size), dtype=np.int64)
            traj._losses = np.empty((rows, size), dtype=np.int64)
        traj.advance(birth_step, 0)  # no bets and so no stream: records the birth state
        return traj

    @property
    def snapshots(self) -> Snapshots:
        """One row per step run, from the birth on."""
        self.summarise()
        return self._snapshots

    def summarise(self) -> None:
        """Summarise the steps that wait for it, in one batch."""
        if self._pending:
            first = self.birth_step + len(self._snapshots)
            block = np.concatenate(self._pending) if len(self._pending) > 1 else self._pending[0]
            self._pending = []
            self._snapshots.extend(block_snapshots(block, first))

    @property
    def latest_mean(self) -> float:
        """The mean posterior at the latest step run, as its snapshot has it."""
        if self._pending:
            return float(_means(self._pending[-1][-1]))
        return float(self._snapshots.column("mean_posterior")[-1])

    @property
    def wins(self) -> np.ndarray | None:
        return None if self._wins is None else self._wins[: self._steps_run]

    @property
    def losses(self) -> np.ndarray | None:
        return None if self._losses is None else self._losses[: self._steps_run]

    def advance(self, t: int, bets: int, steps: int = 1,
                forced: list[list[ForcedBet]] | None = None) -> np.ndarray:
        """Run steps t to t + steps - 1, the population's next steps; returns
        their posteriors, a read-only ``(steps, size)`` block.

        Step t + k books ``forced[k]`` when ``forced`` is given, else
        ``bets`` random pairs from the step's stream, which ``streams``
        serves.  A forced step derives no stream, and neither does a step
        of 0 bets, which books nothing.  A block of two or more random
        steps is booked in one pass (``_book_block``); a single step, a
        forced schedule and steps of 0 bets go one step at a time, through
        ``step_conservative`` and ``EnsembleState.posteriors``.  Both give
        the same ledgers and posteriors, bit for bit.  The steps'
        posteriors are summarised in one batch with the steps that wait
        before them.
        """
        row = self._steps_run
        if t != self.birth_step + row:
            raise ValueError(f"step {t} is not the population's next step, {self.birth_step + row}")
        if self._wins is not None and row + steps > len(self._wins):
            rows = max(row + steps, 2 * len(self._wins))
            self._wins, self._losses = _resized(self._wins, rows), _resized(self._losses, rows)
        if forced is None and bets >= 1 and steps >= 2:
            posteriors = self._book_block(t, bets, steps)
        else:
            posteriors = np.empty((steps, self.size))
            ensemble = self.ensemble
            for k in range(steps):
                if forced is not None:
                    step_conservative(ensemble, None, bets, forced[k])
                elif bets >= 1:
                    step_conservative(ensemble, self.streams.at(t + k), bets)
                posteriors[k] = ensemble.posteriors()
                if self._wins is not None:
                    self._wins[row + k] = ensemble.wins
                    self._losses[row + k] = ensemble.losses
        self._steps_run = row + steps
        posteriors.setflags(write=False)  # it waits in _pending to be summarised
        self._pending.append(posteriors)
        if self._steps_run - len(self._snapshots) >= BLOCK_STEPS:
            self.summarise()
        return posteriors

    def _book_block(self, t: int, bets: int, steps: int) -> np.ndarray:
        """Book random steps t to t + steps - 1 in one pass; returns their
        posteriors, a ``(steps, size)`` block.

        Each step draws its pairs and coins with ``_draw``, as
        ``step_conservative`` does, books them on the live ledgers and
        copies both ledgers into a ``(steps, size)`` block of rows, which
        are the record's own rows when the run records.  Then every row's
        column sums are checked against its step's carried totals, and one
        ``_posteriors`` pass on the rows, with one total per row, gives
        the posteriors: elementwise the divisions of a step at a time.
        """
        ensemble, row, n = self.ensemble, self._steps_run, self.size
        wins, losses = ensemble.wins, ensemble.losses
        if self._wins is None:
            win_rows = np.empty((steps, n), dtype=np.int64)
            loss_rows = np.empty((steps, n), dtype=np.int64)
        else:
            win_rows, loss_rows = self._wins[row:row + steps], self._losses[row:row + steps]
        at = self.streams.at
        for k in range(steps):
            winners, losers = _draw(at(t + k), n, bets)
            wins[winners] += 1
            losses[losers] += 1
            win_rows[k] = wins
            loss_rows[k] = losses
        booked = np.arange(bets, (steps + 1) * bets, bets, dtype=np.int64)
        total_wins = ensemble.total_wins + booked
        total_losses = ensemble.total_losses + booked
        ensemble.total_wins += steps * bets
        ensemble.total_losses += steps * bets
        # every bet books one win and one loss, so each row sums to its step's totals
        assert np.array_equal(np.add.reduce(win_rows, axis=1), total_wins)
        assert np.array_equal(np.add.reduce(loss_rows, axis=1), total_losses)
        return _posteriors(win_rows, loss_rows, total_wins[:, None], total_losses[:, None])

    def retire(self, t: int) -> None:
        """End the population at step t: it keeps its snapshots, in no more
        room than they fill, and drops its ensemble and streams."""
        self.death_step = t
        self.ensemble = self.streams = None
        self.summarise()
        self._snapshots.trim()

    @property
    def mean_series(self) -> np.ndarray:
        return self.snapshots.column("mean_posterior").copy()


def init_ensemble(n: int) -> EnsembleState:
    """Fresh ensemble: every participant at (wins=1, losses=0), posterior 1."""
    if n < 2:
        raise ValueError(f"an ensemble needs at least 2 microstates, got {n}")
    return EnsembleState(np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64))


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


def step_conservative(
    state: EnsembleState,
    rng: np.random.Generator | None,
    bets_per_step: int = 1,
    forced: list[ForcedBet] | None = None,
) -> EnsembleState:
    """Advance the ensemble by one step of pairwise betting, in place.

    The step's disjoint pairs resolve to a winner and a loser array, which
    gain one win and one loss each; the carried totals grow by the bets.
    Random pairs and coins come from ``_draw``, the draws that
    ``Trajectory`` also books a block of random steps with, without this
    function.  ``forced``, an explicit (pair, winner) list, replaces them
    for replaying hand-specified bet sequences in tests and demos.
    Either way the column sums are checked against the carried totals.
    """
    n = state.size
    if forced is not None:
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
        bets = len(forced)
    else:
        if rng is None:
            raise ValueError("rng required unless a forced bet list is given")
        if bets_per_step < 1:
            raise ValueError("bets_per_step must be >= 1")
        if 2 * bets_per_step > n:
            raise ValueError(f"cannot draw {bets_per_step} disjoint pairs from {n} microstates")
        bets = bets_per_step
        winners, losers = _draw(rng, n, bets)
    # the pairs are disjoint, so no index repeats and each update is exact
    state.wins[winners] += 1
    state.losses[losers] += 1
    state.total_wins += bets
    state.total_losses += bets
    # every bet books one win and one loss, so the totals keep their gap
    assert int(state.wins.sum()) == state.total_wins
    assert int(state.losses.sum()) == state.total_losses
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
    record_microstates: bool = False,
    forced_schedule: list[list[ForcedBet]] | None = None,
) -> Trajectory:
    """Run a full closed-ensemble simulation.

    Each step draws its betting randomness from an independent stream
    keyed on (seed, step), so replays are bit-identical and unrelated
    runs can execute in parallel.  Nothing a step draws depends on the
    summaries, so the run advances ``BLOCK_STEPS`` steps at a time.
    ``forced_schedule`` (one forced bet list per step) replaces the
    random schedule when given; its length must equal ``config.steps``.
    """
    if forced_schedule is not None and len(forced_schedule) != config.steps:
        raise ValueError("forced_schedule length must equal config.steps")
    traj = Trajectory.fresh(
        config.n_microstates, config.seed, config.steps, record=record_microstates
    )
    for t in range(1, config.steps + 1, BLOCK_STEPS):
        steps = min(BLOCK_STEPS, config.steps + 1 - t)
        forced = None if forced_schedule is None else forced_schedule[t - 1:t - 1 + steps]
        traj.advance(t, config.bets_per_step, steps, forced)
    traj.summarise()
    return traj
