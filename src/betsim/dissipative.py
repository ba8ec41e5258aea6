"""Open system of coarse grains with injection and removal.

The population is partitioned into coarse grains: sub-ensembles whose
members bet only among themselves.  Each grain is a closed conservative
system on its own, so small grains equilibrate quickly while large ones
lag behind; pooling the posteriors of grains at different distances
from equilibrium is what produces the fat-tailed aggregate statistics.
Optional Bernoulli injection (fresh grains at posterior 1) and removal
keep the system away from global equilibrium indefinitely.
"""
from __future__ import annotations

import os
import signal
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from . import _fork
from . import rng as rngmod
from .conservative import BLOCK_STEPS, Trajectory, _count
from .core import SNAPSHOT_FIELDS, MacroSnapshot, Snapshots, _means, macro_snapshot

DEFAULT_GRAIN_SIZES = (750, 225, 150, 425)
DEFAULT_BINS = 50
REMOVAL_POLICIES = ("oldest", "random", "closest-to-equilibrium")

# grain-member steps (steps times the grains' summed sizes) from which a
# churn-free run hands its largest grains to a forked helper (see _Helper)
_SPLIT_MEMBER_STEPS = 400_000
# the helper's pipe: room for more than one block of its grains' posteriors,
# so it runs on while this process advances the other grains and pools
_PIPE_BYTES = 1 << 20


@dataclass(frozen=True)
class DissipativeConfig:
    """Parameters of one coarse-grained run.

    ``bets_fraction`` is the per-capita betting rate: each step, every
    grain draws floor(bets_fraction * size / 2) internal pairs, the same
    rate per participant across grain sizes.  Note that equal per-capita
    rates make the expected mean-posterior trajectory identical for all
    sizes (the participant-level ledger process does not depend on the
    grain size), so relaxation times then differ only through O(1/sqrt n)
    fluctuations.  ``bets_per_grain``, when set, gives every grain that
    fixed number of pairs per step instead; per-capita rates then scale
    as 1/size and larger grains take proportionally longer to reach
    equilibrium, which is the size-ordering regime.  Injection and
    removal default to off, which reproduces the fixed four-grain
    setting.  The counts (steps, grain and injected sizes, bets per
    grain) must be integers: a float is refused, not truncated.
    """

    steps: int
    grain_sizes: tuple[int, ...] = DEFAULT_GRAIN_SIZES
    seed: int = 0
    bets_fraction: float = 0.5
    bets_per_grain: int | None = None
    injection_prob: float = 0.0
    injection_size_range: tuple[int, int] = (50, 200)
    removal_prob: float = 0.0
    removal_policy: str = "oldest"

    def __post_init__(self):
        object.__setattr__(self, "steps", _count("steps", self.steps))
        for name in ("grain_sizes", "injection_size_range"):
            object.__setattr__(self, name, tuple(_count(name, s) for s in getattr(self, name)))
        if self.bets_per_grain is not None:
            bets = _count("bets_per_grain", self.bets_per_grain)
            object.__setattr__(self, "bets_per_grain", bets)
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if len(self.grain_sizes) == 0:
            raise ValueError("grain_sizes must not be empty")
        if any(s < 2 for s in self.grain_sizes):
            raise ValueError("every grain size must be >= 2")
        rngmod.check_seed(self.seed)
        if not 0.0 < self.bets_fraction <= 1.0:
            raise ValueError("bets_fraction must be in (0, 1]")
        if self.bets_per_grain is not None:
            if self.bets_per_grain < 1:
                raise ValueError("bets_per_grain must be >= 1 when set")
            if any(2 * self.bets_per_grain > s for s in self.grain_sizes):
                raise ValueError(
                    "bets_per_grain must fit the smallest grain "
                    f"(needs size >= {2 * self.bets_per_grain})"
                )
        for name, p in (("injection_prob", self.injection_prob), ("removal_prob", self.removal_prob)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        lo, hi = self.injection_size_range
        if not 2 <= lo <= hi:
            raise ValueError("injection_size_range must satisfy 2 <= min <= max")
        if self.removal_policy not in REMOVAL_POLICIES:
            raise ValueError(
                f"removal_policy must be one of {REMOVAL_POLICIES}, got {self.removal_policy!r}"
            )

    def with_seed(self, seed: int) -> "DissipativeConfig":
        return replace(self, seed=seed)

    @property
    def churns(self) -> bool:
        """Whether grains may be injected or removed."""
        return self.injection_prob > 0 or self.removal_prob > 0


@dataclass
class DissipativeState:
    """Run state and outcome: living grains plus the recorded series.

    ``grains`` lists the living grains in id order, which is also birth
    order; ``grain_tracks`` maps the id of every grain that ever lived to
    its record, so ids run from 0 to ``len(grain_tracks) - 1``.
    ``pooled`` holds one pooled row per step, with counts over the one
    bin count the record was made with.  ``topology`` serves each
    step's injection and removal stream, keyed (seed, TOPOLOGY, 0, step).
    """

    config: DissipativeConfig
    grains: list[Trajectory]
    step: int
    grain_tracks: dict[int, Trajectory]
    pooled: Snapshots
    topology: rngmod.StreamStepper


def _add_grain(state: DissipativeState, size: int, t: int) -> np.ndarray:
    """Add a fresh grain born at step t; returns its posteriors as a one-step
    block, which is exactly 1: no ledger holds a loss, so each posterior is
    ``L_w / L_w``."""
    cfg = state.config
    grain = Trajectory.fresh(size, cfg.seed, cfg.steps, len(state.grain_tracks), t)
    state.grains.append(grain)
    state.grain_tracks[grain.id] = grain
    return np.ones((1, size))


def init_grains(config: DissipativeConfig, bins: int = DEFAULT_BINS) -> DissipativeState:
    """One grain per configured size, each freshly initialized (all posteriors
    1); ``bins`` is the pooled histogram's bin count for the whole run."""
    pooled = Snapshots(config.steps + 1, bins)
    topology = rngmod.StreamStepper(config.seed, rngmod.TOPOLOGY, 0, config.steps)
    state = DissipativeState(config, grains=[], step=0, grain_tracks={}, pooled=pooled,
                             topology=topology)
    posts = [_add_grain(state, size, 0) for size in config.grain_sizes]
    pooled.add(np.concatenate(posts, axis=1), 0)
    return state


def superposed_distribution(
    grain_posteriors: list[np.ndarray], step: int, bins: int = DEFAULT_BINS
) -> MacroSnapshot:
    """Pool the living grains' posterior arrays of one step into one snapshot.

    ``grain_posteriors`` holds one array per living grain, in grain
    order.  The snapshot's ``counts`` is the pooled histogram over
    ``bins`` fixed-width bins on [0, 1].  A run pools its grains' blocks
    of steps the same way, a block at a time.
    """
    if not grain_posteriors:
        raise ValueError("no living grains to pool")
    return macro_snapshot(np.concatenate(grain_posteriors), step, bins)


def _topology(state: DissipativeState, t: int) -> tuple[int | None, int | None] | None:
    """Step t's injected size and removed index, each None when it does
    not happen, or None when step t changes nothing.

    Step t's topology stream draws the injection coin, the size, the
    removal coin and, under ``random``, the index among the living grains,
    the injected one last.  The other policies get 0, the oldest, and
    ``_advance`` ranks ``closest-to-equilibrium`` on the step's rows.  A
    run without churn draws nothing.
    """
    cfg = state.config
    if not cfg.churns:
        return None
    topo = state.topology.at(t)
    size = k = None
    if topo.random() < cfg.injection_prob:
        lo, hi = cfg.injection_size_range
        size = int(topo.integers(lo, hi + 1))
    living = len(state.grains) + (size is not None)
    if topo.random() < cfg.removal_prob and living > 1:  # the last grain is never removed
        k = int(topo.integers(0, living)) if cfg.removal_policy == "random" else 0
    return None if size is None and k is None else (size, k)


def _advance(state: DissipativeState, limit: int,
             helper: _Helper | None = None) -> DissipativeState:
    """Advance the whole system through its next topology event, or by
    ``limit`` steps if that comes first.

    Between events the grains are closed systems, so each living grain
    books the stretch, the event's step included, as one block, and the
    rows before the event are pooled in one batch.  The event then acts
    on the step's own rows: an injected grain adds its row of ones, and
    a removal ranks the grains on their rows of the step.  A grain that
    ``helper`` runs has its block read from it instead.
    """
    cfg = state.config
    t = state.step + 1
    for steps in range(1, limit + 1):  # the event's step, else the limit
        event = _topology(state, t + steps - 1)
        if event is not None:
            break
    # the steps' posteriors, one (steps, size) block per grain of state.grains
    posts = [_grain_block(cfg, grain, t, steps, helper) for grain in state.grains]
    state.step = t + steps - 1
    if event is not None:
        if steps > 1:
            state.pooled.add(np.concatenate([p[:-1] for p in posts], axis=1), t)
        t, posts = state.step, [p[-1:] for p in posts]
        size, k = event
        if size is not None:
            posts.append(_add_grain(state, size, t))
        if k is not None:
            if cfg.removal_policy == "closest-to-equilibrium":
                # smallest |mean posterior - 0.5|; min keeps the lowest id on ties
                k = min(range(len(posts)), key=lambda k: abs(_means(posts[k][-1]) - 0.5))
            state.grains.pop(k).retire(t)
            posts.pop(k)
    state.pooled.add(np.concatenate(posts, axis=1), t)
    return state


def step_dissipative(state: DissipativeState) -> DissipativeState:
    """Advance the whole system by one step.

    In order: (1) every living grain runs one conservative step with
    floor(bets_fraction * size / 2) internal bets (or the flat
    ``bets_per_grain`` budget when that is set), each grain on its
    own stream keyed (seed, grain id, step); (2) Bernoulli injection of
    a fresh grain with uniform size in ``injection_size_range``;
    (3) Bernoulli removal per ``removal_policy``, refused as a no-op
    when a single grain remains; (4) pooled snapshot added to
    ``state.pooled``, over the bins that ``init_grains`` made it with.

    Injection and removal draw from the step's topology stream, which
    ``state.topology`` serves only when one of their probabilities is
    positive; grain bets use their own per-step streams so grains can be
    processed in any order (or in parallel) with identical results, as
    ``run_dissipative`` does when it hands grains to a helper process.
    """
    return _advance(state, 1)


def convergence_time(series, eps_eq: float = 0.05, sustain: int = 50):
    """First index s with |mean - 0.5| < eps_eq for all of [s, s + sustain).

    ``series`` is a mean-posterior sequence, a grain's
    ``snapshots.column("mean_posterior")`` say; the returned value
    indexes that series.  The sustain window must fit entirely inside
    the observed series; a run that ends while still inside the band
    does not count as converged.  Returns None when no window
    qualifies.
    """
    if eps_eq <= 0:
        raise ValueError("eps_eq must be positive")
    if sustain < 1:
        raise ValueError("sustain must be >= 1")
    v = np.asarray(series, dtype=np.float64)
    if v.size < sustain:
        return None
    ok = np.abs(v - 0.5) < eps_eq
    runs = np.convolve(ok.astype(np.int64), np.ones(sustain, dtype=np.int64), mode="valid")
    hits = np.nonzero(runs == sustain)[0]
    return int(hits[0]) if hits.size else None


def run_dissipative(config: DissipativeConfig, bins: int = DEFAULT_BINS) -> DissipativeState:
    """Full deterministic run; the final state holds per-grain tracks and pooled series.

    One rule advances the system: every stretch up to the next injection
    or removal, capped at ``BLOCK_STEPS`` steps, is one block.  A run
    without churn, of two grains or more and ``_SPLIT_MEMBER_STEPS``
    grain-member steps or more, hands its largest grains to a forked
    helper (:class:`_Helper`), with the same result.
    """
    state = init_grains(config, bins)
    helper = _Helper.start(state)
    try:
        while state.step < config.steps:
            _advance(state, min(BLOCK_STEPS, config.steps - state.step), helper)
        if helper is not None:
            helper.finish()
    except BaseException:
        if helper is not None:
            helper.stop()
        raise
    for grain in state.grains:
        grain.summarise()
    return state


def _grain_block(cfg: DissipativeConfig, grain: Trajectory, t: int, steps: int,
                 helper: _Helper | None) -> np.ndarray:
    """The posteriors of ``grain`` at steps t to t + steps - 1: the block
    ``helper`` sends, when it runs the grain, else the one ``grain.advance``
    books here."""
    block = None if helper is None else helper.block(grain, t, steps)
    return grain.advance(t, _grain_bets(cfg, grain.size), steps)[1] if block is None else block


def _catch_up(cfg: DissipativeConfig, grain: Trajectory, t: int) -> None:
    """Advance ``grain`` through step t - 1, from its next step on, in
    blocks, dropping the posteriors: a grain whose steps a helper ran
    before it failed, and whose blocks were pooled."""
    bets = _grain_bets(cfg, grain.size)
    for s in range(grain.birth_step + grain._steps_run, t, BLOCK_STEPS):
        grain.advance(s, bets, min(BLOCK_STEPS, t - s))


class _Helper:
    """A forked process that advances the largest grains of a churn-free run.

    It takes the largest grains, the lowest id first among equal sizes,
    until they hold at least half the members, and runs them from their
    birth as the run does, in blocks of ``BLOCK_STEPS`` steps.  Each block's
    posteriors go, as raw float64 in grain order, through one pipe of
    ``_PIPE_BYTES``; this process reads each into a ``(steps, size)`` array
    and pools it with its own grains' blocks.  At the end the helper sends
    each grain's final ledgers, totals, steps run and snapshot columns, of
    shapes this process knows, and exits.

    If the helper cannot be forked, or the pipe ends short, or the helper
    does not exit with status 0 (it failed, was killed or was reaped
    elsewhere), this process advances the helper's grains itself from their
    birth, dropping the blocks it has pooled, and gets the same bits; a
    ledger check that fails in the helper then fails here with its text.
    """

    def __init__(self, config: DissipativeConfig, pid: int, fd: int, grains: list[Trajectory]):
        self._config = config
        self._pid = pid
        self._pipe = open(fd, "rb")
        self._grains = {grain.id: grain for grain in grains}

    @classmethod
    def start(cls, state: DissipativeState) -> _Helper | None:
        """The helper of a run at its start, or None when the run is not
        split: it churns, has one grain or fewer member steps than
        ``_SPLIT_MEMBER_STEPS``, or :func:`_fork.can_split` refuses."""
        cfg = state.config
        members = sum(cfg.grain_sizes)
        if cfg.churns or len(state.grains) < 2 or cfg.steps * members < _SPLIT_MEMBER_STEPS:
            return None
        grains, taken = [], 0
        for grain in sorted(state.grains, key=lambda g: -g.size):  # sorted keeps id order on ties
            if 2 * taken >= members:
                break
            grains.append(grain)
            taken += grain.size
        grains.sort(key=lambda g: g.id)
        pid, fd = _fork.fork_pipe(_PIPE_BYTES)
        if pid == 0:
            code = 1
            try:
                _send(cfg, grains, fd)
                code = 0
            finally:
                os._exit(code)
        return cls(cfg, pid, fd, grains) if pid > 0 else None

    def block(self, grain: Trajectory, t: int, steps: int) -> np.ndarray | None:
        """The next block of ``grain`` from the pipe, or None when this
        process is to advance the grain: it is not the helper's, or the pipe
        ended short, now or before, so the helper is stopped and the grain
        has been caught up through step t - 1."""
        if grain.id not in self._grains:
            return None
        if self._pipe is not None:
            block = np.empty((steps, grain.size))
            if self._read(block):
                return block
            self.stop()
        _catch_up(self._config, grain, t)
        return None

    def finish(self) -> None:
        """Take the helper's grains' final states and reap it; if it cannot,
        advance those grains here through the run's last step."""
        rows, finals = self._config.steps + 1, []
        if self._pipe is not None:
            for grain in self._grains.values():
                counts, snapshots = np.empty(3, dtype=np.int64), Snapshots(rows)
                wins, losses = np.empty((2, grain.size), dtype=np.int64)
                if not all(map(self._read, [wins, losses, counts, *snapshots._columns])):
                    break
                snapshots._rows = rows
                finals.append((grain, wins, losses, counts.tolist(), snapshots))
        if self.stop(kill=False) != 0:
            for grain in self._grains.values():
                _catch_up(self._config, grain, rows)
            return
        for grain, wins, losses, (total_wins, total_losses, steps_run), snapshots in finals:
            ensemble = grain.ensemble
            ensemble.wins, ensemble.losses = wins, losses
            ensemble.total_wins, ensemble.total_losses = total_wins, total_losses
            grain._steps_run, grain._snapshots, grain._pending = steps_run, snapshots, []

    def stop(self, kill: bool = True) -> int:
        """Close the pipe, kill the helper unless ``kill`` is false, and reap
        it; returns its wait status, or -1 when it was reaped before."""
        if self._pipe is None:
            return -1
        self._pipe.close()
        self._pipe = None
        if kill:
            with suppress(ProcessLookupError):
                os.kill(self._pid, signal.SIGKILL)
        return _fork.reap(self._pid)

    def _read(self, a: np.ndarray) -> bool:
        """Fill the array ``a`` from the pipe; False when it ends short."""
        view = memoryview(a).cast("B")
        return self._pipe.readinto(view) == len(view)


def _send(cfg: DissipativeConfig, grains: list[Trajectory], fd: int) -> None:
    """The helper's work: advance ``grains`` through the run's steps in the
    run's blocks, writing each block's posteriors to the pipe ``fd``, then
    each grain's ledgers, totals, steps run and snapshot columns."""
    with open(fd, "wb") as pipe:
        for t in range(1, cfg.steps + 1, BLOCK_STEPS):
            steps = min(BLOCK_STEPS, cfg.steps + 1 - t)
            for grain in grains:
                pipe.write(grain.advance(t, _grain_bets(cfg, grain.size), steps)[1])
            pipe.flush()  # a block smaller than the buffer goes now, not with the next one
        for grain in grains:
            grain.summarise()
            ensemble = grain.ensemble
            pipe.write(ensemble.wins)
            pipe.write(ensemble.losses)
            pipe.write(np.array([ensemble.total_wins, ensemble.total_losses, grain._steps_run],
                                dtype=np.int64))
            for name in SNAPSHOT_FIELDS:
                pipe.write(grain._snapshots.column(name))


def _grain_bets(config: DissipativeConfig, size: int) -> int:
    """Internal bets per step for a grain of the given size."""
    if config.bets_per_grain is not None:
        # equal absolute budget per grain, capped by what the grain can host
        return min(config.bets_per_grain, size // 2)
    return int(config.bets_fraction * size / 2)
