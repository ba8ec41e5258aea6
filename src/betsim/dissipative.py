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
        object.__setattr__(self, "seed", rngmod.check_seed(self.seed))
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
    helper = _Helper(state)
    with helper.child:
        while state.step < config.steps:
            _advance(state, min(BLOCK_STEPS, config.steps - state.step), helper)
        helper.finish()
    for grain in state.grains:
        grain.summarise()
    return state


def _grain_block(cfg: DissipativeConfig, grain: Trajectory, t: int, steps: int,
                 helper: _Helper | None) -> np.ndarray:
    """The posteriors of ``grain`` at steps t to t + steps - 1: from ``helper``
    when it runs the grain, else booked here by ``grain.advance``."""
    if helper is not None and grain.id in helper.grains:
        return helper.read(np.empty((steps, grain.size)))
    return grain.advance(t, _grain_bets(cfg, grain.size), steps)[1]


class _Helper:
    """A forked process that advances the largest grains of a churn-free run.

    A run of two grains or more and ``_SPLIT_MEMBER_STEPS`` grain-member
    steps or more gives it its largest grains, the lowest id first among
    equal sizes, until they hold at least half the members; any other run
    none.  Its :class:`_fork.Child` streams what :func:`_send` yields for
    them through a pipe of ``_PIPE_BYTES``.
    """

    def __init__(self, state: DissipativeState):
        cfg = state.config
        members = sum(cfg.grain_sizes)
        grains, taken = [], 0
        if not cfg.churns and len(state.grains) > 1 and cfg.steps * members >= _SPLIT_MEMBER_STEPS:
            for grain in sorted(state.grains, key=lambda g: -g.size):  # id order kept on ties
                if 2 * taken >= members:
                    break
                grains.append(grain)
                taken += grain.size
        grains.sort(key=lambda g: g.id)
        self._config = cfg
        self.grains = {grain.id: grain for grain in grains}
        self.child = _fork.Child(lambda: _send(cfg, grains), bool(grains), _PIPE_BYTES)

    def read(self, a: np.ndarray) -> np.ndarray:
        """Fill the array ``a`` with the helper's next bytes; returns it."""
        view = memoryview(a).cast("B")
        while view:
            if not (n := self.child.readinto(view)):
                raise EOFError("the helper's stream ended short")
            view = view[n:]
        return a

    def finish(self) -> None:
        """Set the helper's grains' final ledgers, totals, steps run and snapshot
        columns, once all are read: a failed helper's grains advance here from birth."""
        rows, finals = self._config.steps + 1, []
        for grain in self.grains.values():
            counts, snapshots = np.empty(3, dtype=np.int64), Snapshots(rows)
            wins, losses = np.empty((2, grain.size), dtype=np.int64)
            for a in (wins, losses, counts, *snapshots._columns):
                self.read(a)
            snapshots._rows = rows
            finals.append((grain, wins, losses, counts.tolist(), snapshots))
        for grain, wins, losses, (total_wins, total_losses, steps_run), snapshots in finals:
            ensemble = grain.ensemble
            ensemble.wins, ensemble.losses = wins, losses
            ensemble.total_wins, ensemble.total_losses = total_wins, total_losses
            grain._steps_run, grain._snapshots, grain._pending = steps_run, snapshots, []


def _send(cfg: DissipativeConfig, grains: list[Trajectory]):
    """The helper's work: advance ``grains`` through the run's steps in the
    run's blocks, yielding each block's posteriors, then each grain's
    ledgers, totals, steps run and snapshot columns."""
    for t in range(1, cfg.steps + 1, BLOCK_STEPS):
        steps = min(BLOCK_STEPS, cfg.steps + 1 - t)
        for grain in grains:
            yield grain.advance(t, _grain_bets(cfg, grain.size), steps)[1]
    for grain in grains:
        grain.summarise()
        ensemble = grain.ensemble
        yield ensemble.wins
        yield ensemble.losses
        yield np.array([ensemble.total_wins, ensemble.total_losses, grain._steps_run],
                       dtype=np.int64)
        for name in SNAPSHOT_FIELDS:
            yield grain._snapshots.column(name)


def _grain_bets(config: DissipativeConfig, size: int) -> int:
    """Internal bets per step for a grain of the given size."""
    if config.bets_per_grain is not None:
        # equal absolute budget per grain, capped by what the grain can host
        return min(config.bets_per_grain, size // 2)
    return int(config.bets_fraction * size / 2)
