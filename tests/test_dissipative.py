"""Unit tests for the coarse-grained open system."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betsim import dissipative
from betsim import rng as rngmod
from betsim.conservative import BLOCK_STEPS, ConservativeConfig, Trajectory
from betsim.core import EnsembleState
from betsim.io import emit_histogram_csv
from betsim.dissipative import (
    DissipativeConfig,
    convergence_time,
    init_grains,
    run_dissipative,
    step_dissipative,
    superposed_distribution,
)
from oracle import churn_run, grain_run, recorded_run, same_snapshot


def test_config_validation():
    with pytest.raises(ValueError, match="grain_sizes"):
        DissipativeConfig(steps=1, grain_sizes=())
    with pytest.raises(ValueError, match="grain size"):
        DissipativeConfig(steps=1, grain_sizes=(10, 1))
    with pytest.raises(ValueError, match="bets_fraction"):
        DissipativeConfig(steps=1, bets_fraction=0.0)
    with pytest.raises(ValueError, match="bets_per_grain"):
        DissipativeConfig(steps=1, bets_per_grain=0)
    with pytest.raises(ValueError, match="smallest grain"):
        DissipativeConfig(steps=1, grain_sizes=(4, 100), bets_per_grain=3)
    with pytest.raises(ValueError, match="removal_policy"):
        DissipativeConfig(steps=1, removal_policy="newest")
    with pytest.raises(ValueError, match="injection_size_range"):
        DissipativeConfig(steps=1, injection_size_range=(1, 50))
    with pytest.raises(ValueError, match="injection_prob"):
        DissipativeConfig(steps=1, injection_prob=1.5)


def test_init_grains_fresh_state():
    state = init_grains(DissipativeConfig(steps=0, grain_sizes=(4, 7)))
    assert [g.size for g in state.grains] == [4, 7]
    assert state.step == 0
    assert len(state.grain_tracks) == 2
    assert len(state.pooled) == 1
    pooled = state.pooled[0]
    assert pooled.population == 11
    assert pooled.mean == 1.0
    for track in state.grain_tracks.values():
        assert track.birth_step == 0
        assert len(track.snapshots) == 1
        assert track.snapshots[0].mean_posterior == 1.0


def test_per_capita_budget_rule():
    cfg = DissipativeConfig(steps=1, grain_sizes=(10, 25), seed=0, bets_fraction=0.5)
    state = init_grains(cfg)
    step_dissipative(state)
    # floor(0.5 * size / 2) pairs, one loss booked per pair
    assert state.grains[0].ensemble.losses.sum() == 2
    assert state.grains[1].ensemble.losses.sum() == 6


def test_flat_budget_rule():
    cfg = DissipativeConfig(steps=1, grain_sizes=(10, 25), seed=0, bets_per_grain=3)
    state = init_grains(cfg)
    step_dissipative(state)
    assert state.grains[0].ensemble.losses.sum() == 3
    assert state.grains[1].ensemble.losses.sum() == 3


def test_single_grain_matches_conservative_run():
    """One grain with no injection or removal is exactly the closed system."""
    seed, steps = 11, 300
    for n, bets in [(50, 1), (50, 3), (5, 2), (750, 187)]:
        diss = run_dissipative(
            DissipativeConfig(steps=steps, grain_sizes=(n,), seed=seed, bets_per_grain=bets)
        )
        cfg = ConservativeConfig(steps=steps, n_microstates=n, bets_per_step=bets, seed=seed)
        cons, wins, losses = recorded_run(cfg)
        got = diss.grain_tracks[0].snapshots
        assert len(got) == len(cons.snapshots)
        assert all(same_snapshot(a, b) for a, b in zip(got, cons.snapshots))
        # the last recorded ledger row is the run's final ensemble
        assert np.array_equal(wins[-1], cons.ensemble.wins)
        assert np.array_equal(losses[-1], cons.ensemble.losses)


def test_churned_grains_match_fresh_populations():
    """Every grain of a churn run, born or removed at any step, is the
    population that the shared step method makes from its id, size and
    birth step on the same stream keys."""
    cfg = DissipativeConfig(
        steps=40, grain_sizes=(30, 12), seed=6, injection_prob=1.0, removal_prob=1.0,
        injection_size_range=(4, 40),
    )
    result = run_dissipative(cfg)
    assert len(result.grain_tracks) == 42
    assert any(track.death_step is not None and track.birth_step > 0
               for track in result.grain_tracks.values())
    for gid, track in result.grain_tracks.items():
        fresh = Trajectory.fresh(track.size, cfg.seed, cfg.steps, gid, track.birth_step)
        last = track.snapshots[-1].step
        for t in range(track.birth_step + 1, last + 1):
            fresh.advance(t, dissipative._grain_bets(cfg, track.size))
        assert last == (cfg.steps if track.death_step is None else track.death_step)
        assert len(fresh.snapshots) == len(track.snapshots)
        assert all(same_snapshot(a, b) for a, b in zip(fresh.snapshots, track.snapshots))


def test_run_shapes_and_reproducibility():
    cfg = DissipativeConfig(steps=30, grain_sizes=(8, 12), seed=3)
    a = run_dissipative(cfg)
    b = run_dissipative(cfg)
    assert len(a.pooled) == 31
    assert [p.mean for p in a.pooled] == [p.mean for p in b.pooled]
    c = run_dissipative(cfg.with_seed(4))
    assert [p.mean for p in a.pooled] != [p.mean for p in c.pooled]


def test_bin_count_is_fixed_for_the_run():
    cfg = DissipativeConfig(steps=3, grain_sizes=(6, 8), seed=1, injection_prob=1.0)
    state = init_grains(cfg, bins=7)
    assert state.pooled[0].counts.shape == (7,)
    for _ in range(cfg.steps):
        step_dissipative(state)
    assert [len(p.counts) for p in state.pooled] == [7] * (cfg.steps + 1)
    assert [p.counts.tolist() for p in state.pooled] == [
        p.counts.tolist() for p in run_dissipative(cfg, bins=7).pooled
    ]


def test_pooled_histogram_accounts_for_everyone(tmp_path):
    cfg = DissipativeConfig(steps=5, grain_sizes=(9, 14, 21), seed=2)
    result = run_dissipative(cfg, bins=17)
    _, edges = np.histogram([], bins=17, range=(0.0, 1.0))
    expect = [f"{a:.12g},{b:.12g}" for a, b in zip(edges[:-1], edges[1:])]
    for snap in result.pooled:
        assert snap.counts.sum() == 9 + 14 + 21
        assert len(snap.counts) == 17
        path = tmp_path / f"histogram_{snap.step}.csv"
        emit_histogram_csv(snap, path)
        rows = path.read_text().splitlines()[1:]
        assert [r.rsplit(",", 1)[0] for r in rows] == expect
        assert [int(r.rsplit(",", 1)[1]) for r in rows] == snap.counts.tolist()


def test_injection_adds_fresh_grains():
    cfg = DissipativeConfig(
        steps=6, grain_sizes=(10,), seed=1, injection_prob=1.0, injection_size_range=(4, 9)
    )
    result = run_dissipative(cfg)
    tracks = result.grain_tracks
    assert len(tracks) == 7  # one initial plus one per step
    for gid, track in tracks.items():
        if gid == 0:
            continue
        assert track.birth_step == gid  # ids are handed out in step order
        assert 4 <= track.size <= 9
        assert track.snapshots[0].mean_posterior == 1.0  # fresh grains enter at posterior 1
        assert track.snapshots[0].step == track.birth_step


def test_removal_oldest_sets_death_step():
    cfg = DissipativeConfig(steps=2, grain_sizes=(6, 8, 10), seed=5, removal_prob=1.0)
    result = run_dissipative(cfg)
    assert result.grain_tracks[0].death_step == 1
    assert result.grain_tracks[1].death_step == 2
    assert result.grain_tracks[2].death_step is None
    assert result.pooled[1].population == 8 + 10
    assert result.pooled[2].population == 10
    # a removed grain records no further snapshots and drops its ledgers
    assert len(result.grain_tracks[0].snapshots) == 2
    assert result.grain_tracks[0].ensemble is None
    assert result.grain_tracks[2].ensemble is not None


def test_removal_never_empties_the_system():
    cfg = DissipativeConfig(steps=10, grain_sizes=(6,), seed=5, removal_prob=1.0)
    result = run_dissipative(cfg)
    assert result.grain_tracks[0].death_step is None
    assert all(p.population == 6 for p in result.pooled)


def test_removal_closest_to_equilibrium():
    cfg = DissipativeConfig(
        steps=1,
        grain_sizes=(4, 6),
        seed=8,
        bets_fraction=0.5,
        removal_prob=1.0,
        removal_policy="closest-to-equilibrium",
    )
    state = init_grains(cfg)
    # pin grain 1 at equilibrium: uniform (6, 5) ledgers conserve the
    # win-loss gap and put every posterior at exactly 0.5, so its mean
    # stays near 0.5 through the step while fresh grain 0 sits far above
    state.grains[1].ensemble = EnsembleState(np.full(6, 6), np.full(6, 5))
    step_dissipative(state)
    assert [g.id for g in state.grains] == [0]
    assert state.grain_tracks[1].death_step == 1
    assert state.grain_tracks[0].death_step is None


@pytest.mark.parametrize(
    "churn, per_step",
    [({}, 0), ({"injection_prob": 0.5}, 1), ({"removal_prob": 0.5}, 1)],
    ids=["no-churn", "injection-only", "removal-only"],
)
def test_topology_stream_derived_only_with_churn(monkeypatch, churn, per_step):
    purposes = []
    stream = rngmod.stream

    def counting(seed, purpose=rngmod.GENERIC, sub=0, step=0):
        purposes.append(purpose)
        return stream(seed, purpose, sub, step)

    monkeypatch.setattr(dissipative.rngmod, "stream", counting)
    run_dissipative(DissipativeConfig(steps=7, grain_sizes=(6, 8, 10), seed=3, **churn))
    assert purposes.count(rngmod.TOPOLOGY) == 7 * per_step


def test_run_matches_per_step_seeding():
    # past the keyed steps and two block boundaries, field for field; grain 3
    # is too small to bet
    steps = rngmod.KEYED_STEPS + 2 * rngmod.CHUNK + 3
    cfg = DissipativeConfig(steps=steps, grain_sizes=(12, 7, 30, 2), seed=2**63 + 1)
    result = run_dissipative(cfg, bins=20)
    bets = [dissipative._grain_bets(cfg, size) for size in cfg.grain_sizes]
    assert bets == [3, 1, 7, 0]
    tracks, pooled, ensembles = grain_run(cfg.seed, cfg.grain_sizes, bets, steps, 20)
    assert len(result.pooled) == len(pooled) == steps + 1
    assert all(same_snapshot(a, b) for a, b in zip(result.pooled, pooled))
    assert sorted(result.grain_tracks) == [0, 1, 2, 3]
    for gid, grain in result.grain_tracks.items():
        assert (grain.id, grain.size, grain.birth_step, grain.death_step) == (
            gid, cfg.grain_sizes[gid], 0, None
        )
        assert all(same_snapshot(a, b) for a, b in zip(grain.snapshots, tracks[gid]))
        assert grain.ensemble.wins.tolist() == ensembles[gid].wins.tolist()
        assert grain.ensemble.losses.tolist() == ensembles[gid].losses.tolist()
    assert result.grains == list(result.grain_tracks.values())


def test_stepping_past_the_configured_steps_matches_per_step_seeding():
    # init_grains and step_dissipative are public: a state may be stepped
    # past config.steps, before or after run_dissipative returns it
    cfg = DissipativeConfig(steps=2, grain_sizes=(6, 9), seed=4)
    bets = [dissipative._grain_bets(cfg, size) for size in cfg.grain_sizes]
    state = init_grains(cfg, bins=10)
    for _ in range(5):
        step_dissipative(state)
    _, pooled, _ = grain_run(cfg.seed, cfg.grain_sizes, bets, 5, 10)
    assert len(state.pooled) == len(pooled)
    assert all(same_snapshot(a, b) for a, b in zip(state.pooled, pooled))
    longer = dataclasses.replace(cfg, steps=rngmod.KEYED_STEPS + 3)
    state = step_dissipative(run_dissipative(longer, bins=10))
    _, pooled, _ = grain_run(cfg.seed, cfg.grain_sizes, bets, longer.steps + 1, 10)
    assert len(state.pooled) == len(pooled)
    assert all(same_snapshot(a, b) for a, b in zip(state.pooled, pooled))
    # sparse churn: stepping one step at a time, to config.steps and past
    # it, is the run that books each stretch between events as one block
    cfg = DissipativeConfig(
        steps=300, grain_sizes=(30, 12, 20), seed=9, injection_prob=0.02, removal_prob=0.02,
        injection_size_range=(4, 40), removal_policy="random",
    )
    stepped = init_grains(cfg, bins=10)
    for _ in range(cfg.steps):
        step_dissipative(stepped)
    _assert_matches_churn_run(stepped, cfg, bins=10)
    _assert_matches_churn_run(run_dissipative(cfg, bins=10), cfg, bins=10)
    longer = dataclasses.replace(cfg, steps=cfg.steps + 5)
    for state in (stepped, run_dissipative(cfg, bins=10)):
        for _ in range(longer.steps - cfg.steps):
            step_dissipative(state)
        _assert_matches_churn_run(state, longer, bins=10)


def _bet_keys(derived_keys):
    """Every bet-stream key derived, one key at a time or in a block."""
    keyed = [k for k in derived_keys.streams if k[1] == rngmod.BETS]
    return sorted(keyed + derived_keys.blocks)


def test_bet_streams_derived_once_per_grain_step(derived_keys):
    steps = rngmod.KEYED_STEPS + rngmod.CHUNK + 5
    cfg = DissipativeConfig(steps=steps, grain_sizes=(6, 8, 10), seed=3)
    run_dissipative(cfg)
    # no churn: every grain step's stream once, keyed or in a block
    assert derived_keys.blocks
    assert _bet_keys(derived_keys) == [
        (3, rngmod.BETS, g, t) for g in range(3) for t in range(1, steps + 1)
    ]
    derived_keys.streams.clear()
    derived_keys.blocks.clear()
    churn = dataclasses.replace(cfg, injection_prob=0.5, removal_prob=0.5)
    result = run_dissipative(churn)
    tracks = result.grain_tracks.values()
    assert any(g.death_step for g in tracks) and any(g.birth_step for g in tracks)
    # churn: each key at most once, every step a grain lived among them, and
    # a block may pass a grain's death but never the run's last step
    derived = _bet_keys(derived_keys)
    assert derived_keys.blocks and len(set(derived)) == len(derived)
    assert max(t for *_, t in derived_keys.blocks) <= churn.steps
    assert {
        (3, rngmod.BETS, g.id, t)
        for g in tracks
        for t in range(g.birth_step + 1, (g.death_step or churn.steps) + 1)
    } <= set(derived)


def test_sparse_churn_books_each_stretch_between_events_as_one_block(monkeypatch):
    advances = []  # (t, steps) of every grain advance past the birth
    advance = Trajectory.advance

    def recording(self, t, bets, steps=1, forced=None):
        if steps:
            advances.append((t, steps))
        return advance(self, t, bets, steps, forced)

    monkeypatch.setattr(Trajectory, "advance", recording)
    cfg = DissipativeConfig(
        steps=300, grain_sizes=(30, 12, 20), seed=5, injection_prob=0.02, removal_prob=0.02,
        injection_size_range=(4, 40),
    )
    tracks = run_dissipative(cfg).grain_tracks.values()
    events = {g.birth_step for g in tracks if g.birth_step > 0}
    events |= {g.death_step for g in tracks if g.death_step is not None}
    assert len(events) > 2
    assert max(steps for _, steps in advances) > 1
    # every event ends an advance, and no advance spans an event before its last step
    assert events <= {t + steps - 1 for t, steps in advances}
    assert not any(t <= e < t + steps - 1 for t, steps in advances for e in events)
    # an event at every step: one step at a time
    advances.clear()
    run_dissipative(dataclasses.replace(cfg, steps=40, injection_prob=1.0, removal_prob=1.0))
    assert {steps for _, steps in advances} == {1}


@pytest.mark.parametrize(
    "policy, sizes, injected",
    [(policy, (30, 12, 20), (4, 40)) for policy in dissipative.REMOVAL_POLICIES]
    # grains of 2 or 3 place no bets, so every mean ties at 1 and the first grain goes
    + [("closest-to-equilibrium", (3, 2, 3), (2, 3))],
    ids=[*dissipative.REMOVAL_POLICIES, "closest-to-equilibrium-ties"],
)
def test_churn_run_matches_the_reference_run(derived_keys, policy, sizes, injected):
    # past the keyed steps and one block boundary of the topology stream
    steps = rngmod.KEYED_STEPS + rngmod.CHUNK + 5
    cfg = DissipativeConfig(
        steps=steps, grain_sizes=sizes, seed=7, injection_prob=0.3, removal_prob=0.3,
        injection_size_range=injected, removal_policy=policy,
    )
    result = run_dissipative(cfg, bins=20)
    # each step's topology stream once, keyed or in a block
    topology = [k for k in derived_keys.streams + derived_keys.blocks if k[1] == rngmod.TOPOLOGY]
    assert sorted(topology) == [(7, rngmod.TOPOLOGY, 0, t) for t in range(1, steps + 1)]
    assert any(k[1] == rngmod.TOPOLOGY for k in derived_keys.blocks)
    tracks = _assert_matches_churn_run(result, cfg, bins=20)
    assert any(t.death for t in tracks.values()) and any(t.birth for t in tracks.values())


def _assert_matches_churn_run(result, cfg, bins):
    """Assert ``result`` is the reference ``churn_run`` of ``cfg``, field for
    field on every pooled row and on every grain's birth, death and
    snapshots; returns the reference tracks."""
    pooled, tracks = churn_run(cfg, bins)
    assert len(result.pooled) == len(pooled) == cfg.steps + 1
    assert all(same_snapshot(a, b) for a, b in zip(result.pooled, pooled))
    assert sorted(result.grain_tracks) == sorted(tracks)
    for gid, grain in result.grain_tracks.items():
        track = tracks[gid]
        assert (grain.size, grain.birth_step, grain.death_step) == (
            track.size, track.birth, track.death
        )
        assert len(grain.snapshots) == len(track.snapshots)
        assert all(same_snapshot(a, b) for a, b in zip(grain.snapshots, track.snapshots))
    return tracks


@st.composite
def _churn_configs(draw, steps=st.integers(0, 2 * BLOCK_STEPS + 20)):
    sizes = tuple(draw(st.lists(st.integers(2, 40), min_size=1, max_size=4)))
    lo = draw(st.integers(2, 40))
    probability = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 0.05) | st.floats(0.0, 1.0)
    return DissipativeConfig(
        steps=draw(steps),
        grain_sizes=sizes,
        seed=draw(st.integers(0, 2**64 - 1)),
        bets_fraction=draw(st.floats(0.01, 1.0)),
        bets_per_grain=draw(st.none() | st.integers(1, min(sizes) // 2)),
        injection_prob=draw(probability),
        injection_size_range=(lo, draw(st.integers(lo, 40))),
        removal_prob=draw(probability),
        removal_policy=draw(st.sampled_from(dissipative.REMOVAL_POLICIES)),
    )


# past the keyed steps and one block boundary of the derived streams
LONG_RUN = rngmod.KEYED_STEPS + rngmod.CHUNK + 5


def _sparse_examples(test):
    """Sparse churn runs past ``LONG_RUN``, one per removal policy and bet mode."""
    for i, policy in enumerate(dissipative.REMOVAL_POLICIES):
        for per_grain in (None, 2):
            cfg = DissipativeConfig(
                steps=LONG_RUN + BLOCK_STEPS + i, grain_sizes=(24, 5, 40), seed=100 + i,
                bets_per_grain=per_grain, injection_prob=0.02, injection_size_range=(4, 30),
                removal_prob=0.03, removal_policy=policy,
            )
            test = example(cfg=cfg, bins=12)(test)
    return test


@settings(max_examples=50, deadline=None, derandomize=True)
@given(cfg=_churn_configs(), bins=st.integers(1, 30))
@example(
    cfg=DissipativeConfig(
        steps=LONG_RUN, grain_sizes=(2, 40, 17), seed=11, bets_per_grain=1,
        injection_prob=1.0, injection_size_range=(2, 9), removal_prob=1.0,
        removal_policy="random",
    ),
    bins=7,
)
@example(
    cfg=DissipativeConfig(
        steps=LONG_RUN, grain_sizes=(12, 3), seed=2**64 - 1, bets_fraction=0.7,
        injection_prob=0.5, injection_size_range=(2, 40), removal_prob=1.0,
        removal_policy="closest-to-equilibrium",
    ),
    bins=30,
)
@_sparse_examples
def test_any_churn_run_matches_the_reference_run(cfg, bins):
    _assert_matches_churn_run(run_dissipative(cfg, bins), cfg, bins)


def test_a_finished_run_keeps_no_derived_stream_block():
    # a grain's stepper drops its last block once it serves the last step
    steps = rngmod.KEYED_STEPS + rngmod.CHUNK + 5
    result = run_dissipative(DissipativeConfig(steps=steps, grain_sizes=(6, 8), seed=3))
    assert all(grain.streams._words.size == 0 for grain in result.grains)


def test_superposed_requires_living_grains():
    with pytest.raises(ValueError, match="living grains"):
        superposed_distribution([], step=0)


# ---------------------------------------------------------------------------
# convergence timing

def test_convergence_time_first_sustained_window():
    series = [1.0, 0.52, 0.51, 0.49, 0.50]
    assert convergence_time(series, eps_eq=0.05, sustain=3) == 1
    assert convergence_time(series, eps_eq=0.05, sustain=5) is None


def test_convergence_time_window_must_fit():
    inside = [0.5] * 49
    assert convergence_time(inside, eps_eq=0.05, sustain=50) is None
    assert convergence_time(inside + [0.5], eps_eq=0.05, sustain=50) == 0


def test_convergence_time_excursion_resets_window():
    series = [0.5, 0.5, 0.9, 0.5, 0.5, 0.5]
    assert convergence_time(series, eps_eq=0.05, sustain=3) == 3


def test_convergence_time_of_a_grain_mean_column():
    cfg = DissipativeConfig(steps=120, grain_sizes=(8,), seed=0)
    track = run_dissipative(cfg).grain_tracks[0]
    t = convergence_time(track.snapshots.column("mean_posterior"), eps_eq=0.2, sustain=10)
    means = [snapshot.mean_posterior for snapshot in track.snapshots]
    assert t is not None and t == convergence_time(means, eps_eq=0.2, sustain=10)


def test_convergence_time_validates_arguments():
    with pytest.raises(ValueError):
        convergence_time([0.5], eps_eq=0.0)
    with pytest.raises(ValueError):
        convergence_time([0.5], sustain=0)
