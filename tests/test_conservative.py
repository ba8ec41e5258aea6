"""Unit tests for the closed-ensemble simulation."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betsim import conservative
from betsim import rng as rngmod
from betsim.conservative import (
    DEFAULT_SMOOTHING_WINDOW,
    ConservativeConfig,
    Trajectory,
    run_conservative,
    smooth_series,
    step_conservative,
)
from betsim.core import EnsembleState
from betsim.io import emit_trajectory_csv
from oracle import array_bet_step, closed_run, forced_run, recorded_run, same_snapshot


def _fresh(n: int) -> EnsembleState:
    """A fresh ensemble of n participants, as ``Trajectory.fresh`` starts one."""
    return Trajectory.fresh(n, 0, 0).ensemble


def test_fresh_population_virtual_win():
    state = _fresh(5)
    assert state.wins.tolist() == [1, 1, 1, 1, 1]
    assert state.losses.tolist() == [0, 0, 0, 0, 0]
    assert state.posteriors().tolist() == [1.0] * 5


def test_fresh_population_too_small():
    with pytest.raises(ValueError, match="at least 2 microstates"):
        Trajectory.fresh(1, 0, 0)


def test_config_validation():
    with pytest.raises(ValueError, match="n_microstates"):
        ConservativeConfig(steps=1, n_microstates=1)
    with pytest.raises(ValueError, match="bets_per_step"):
        ConservativeConfig(steps=1, n_microstates=4, bets_per_step=3)
    with pytest.raises(ValueError, match="steps"):
        ConservativeConfig(steps=-1)
    with pytest.raises(ValueError, match="seed"):
        ConservativeConfig(steps=1, seed=-3)


@pytest.mark.parametrize("counts", [
    {"steps": 2.5}, {"steps": 3.0}, {"n_microstates": 10.5}, {"bets_per_step": 1.0},
    {"seed": 2.5}, {"seed": 2.0},
])
def test_config_refuses_counts_that_are_not_integers(counts):
    # steps=2.5 used to be accepted, then failed in the run with a TypeError,
    # and seed=2.5 ran as seed 2
    name = next(iter(counts))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        ConservativeConfig(**{"steps": 3, **counts})


def test_with_seed_returns_new_config():
    cfg = ConservativeConfig(steps=3, seed=1)
    other = cfg.with_seed(9)
    assert other.seed == 9 and cfg.seed == 1
    assert other.steps == cfg.steps


# ---------------------------------------------------------------------------
# stepping

def test_step_rejects_overdraw():
    state = _fresh(5)
    with pytest.raises(ValueError, match="cannot draw 3 disjoint pairs from 5"):
        step_conservative(state, rngmod.stream(0, rngmod.GENERIC), bets_per_step=3)
    with pytest.raises(ValueError, match="bets_per_step must be >= 1"):
        step_conservative(state, rngmod.stream(0, rngmod.GENERIC), bets_per_step=0)
    assert state.wins.tolist() == [1] * 5 and state.total_wins == 5  # untouched


def test_step_deterministic_per_stream():
    a, b = _fresh(20), _fresh(20)
    step_conservative(a, rngmod.stream(7, rngmod.BETS, 0, 3), bets_per_step=5)
    step_conservative(b, rngmod.stream(7, rngmod.BETS, 0, 3), bets_per_step=5)
    assert a.wins.tolist() == b.wins.tolist()
    assert a.losses.tolist() == b.losses.tolist()
    c = _fresh(20)
    step_conservative(c, rngmod.stream(7, rngmod.BETS, 0, 4), bets_per_step=5)
    assert (a.wins.tolist(), a.losses.tolist()) != (c.wins.tolist(), c.losses.tolist())


def test_draw_pairing_disjoint_and_sized():
    # A random step of b bets touches exactly 2b distinct participants:
    # b each gain one win and the other b each gain one loss.
    state = _fresh(10)
    step_conservative(state, rngmod.stream(0, rngmod.GENERIC), bets_per_step=4)
    winners = np.flatnonzero(state.wins > 1)
    losers = np.flatnonzero(state.losses > 0)
    assert len(winners) == 4 and len(losers) == 4
    assert len(set(winners.tolist()) | set(losers.tolist())) == 8
    assert state.wins.max() == 2 and state.losses.max() == 1


def test_resolve_bet_rejects_self_pair():
    state = _fresh(6)
    with pytest.raises(ValueError, match="itself"):
        step_conservative(state, None, forced=[((4, 4), 4)])
    assert state.wins.tolist() == [1] * 6 and state.total_wins == 6  # untouched


def test_step_coin_picks_either_side():
    state = _fresh(2)
    for t in range(50):
        step_conservative(state, rngmod.stream(1, rngmod.BETS, 0, t))
    assert state.wins.sum() == 52 and state.losses.sum() == 50
    assert (state.losses > 0).all(), "a fair coin should pick both sides eventually"


def test_step_forced_validations():
    state = _fresh(6)
    with pytest.raises(ValueError, match="outside range"):
        step_conservative(state, None, forced=[((0, 6), 0)])
    with pytest.raises(ValueError, match="outside range"):
        step_conservative(state, None, forced=[((-1, 2), 2)])
    with pytest.raises(ValueError, match="itself"):
        step_conservative(state, None, forced=[((2, 2), 2)])
    with pytest.raises(ValueError, match="not part of pair"):
        step_conservative(state, None, forced=[((0, 1), 2)])
    with pytest.raises(ValueError, match="disjoint"):
        step_conservative(state, None, forced=[((0, 1), 0), ((1, 2), 2)])
    with pytest.raises(ValueError, match="rng required"):
        step_conservative(state, None)


def test_step_forced_books_one_win_one_loss():
    state = _fresh(4)
    step_conservative(state, None, forced=[((0, 3), 3)])
    assert state.wins.tolist() == [1, 1, 1, 2]
    assert state.losses.tolist() == [1, 0, 0, 0]


@pytest.mark.parametrize("forced", [None, [((0, 1), 0)]], ids=["random", "forced"])
def test_step_keeps_any_valid_gap(forced):
    # wins minus losses is 8 here, not the size 4 of a fresh ensemble
    state = EnsembleState([5, 1, 2, 2], [0, 0, 1, 1])
    rng = None if forced is not None else np.random.default_rng(0)
    for _ in range(3):
        step_conservative(state, rng, 1, forced)
        assert state.total_wins - state.total_losses == 8
        assert (state.total_wins, state.total_losses) == (state.wins.sum(), state.losses.sum())
    assert state.total_losses == 5


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(0, 40),
    data=st.data(),
)
def test_conservation_invariant(n, seed, steps, data):
    """Total wins minus total losses equals the population size forever.

    Each step books its bets on 2 * bets distinct participants, each of
    whom gains exactly one win or one loss, and the carried totals stay
    equal to the column sums.
    """
    bets = data.draw(st.integers(1, n // 2))
    state = _fresh(n)
    for t in range(steps):
        wins, losses = state.wins.copy(), state.losses.copy()
        step_conservative(state, rngmod.stream(seed, rngmod.BETS, 0, t), bets_per_step=bets)
        total_wins, total_losses = int(state.wins.sum()), int(state.losses.sum())
        assert (state.total_wins, state.total_losses) == (total_wins, total_losses)
        assert total_wins - total_losses == n
        assert total_losses == bets * (t + 1)
        won, lost = state.wins - wins, state.losses - losses
        assert np.isin(won, (0, 1)).all() and np.isin(lost, (0, 1)).all()
        assert int(won.sum()) == int(lost.sum()) == bets
        assert np.count_nonzero(won + lost) == 2 * bets


# ---------------------------------------------------------------------------
# smoothing

def _brute_smooth(values, window):
    return [
        float(np.mean(values[max(0, i - window + 1): i + 1]))
        for i in range(len(values))
    ]


@given(
    values=st.lists(st.floats(-10, 10, allow_nan=False, width=32), min_size=0, max_size=50),
    window=st.integers(1, 60),
)
def test_smooth_series_matches_brute_force(values, window):
    got = smooth_series(values, window)
    assert got.shape == (len(values),)
    expect = _brute_smooth(values, window)
    assert np.allclose(got, expect, atol=1e-9)


def test_smooth_series_window_one_is_identity():
    x = [0.2, 0.9, 0.4]
    assert np.allclose(smooth_series(x, 1), x, atol=1e-12)


def test_smooth_series_rejects_bad_window():
    with pytest.raises(ValueError):
        smooth_series([1.0], 0)


# ---------------------------------------------------------------------------
# full runs

def test_run_snapshot_count_and_steps():
    traj = run_conservative(ConservativeConfig(steps=17, n_microstates=8, seed=2))
    assert len(traj.snapshots) == 18
    assert [s.step for s in traj.snapshots] == list(range(18))
    # a run keeps no ledger rows: a sink that wants them keeps them
    assert not hasattr(traj, "wins") and not hasattr(traj, "losses")


def test_run_zero_steps():
    traj = run_conservative(ConservativeConfig(steps=0, n_microstates=4, seed=0))
    assert len(traj.snapshots) == 1
    assert traj.snapshots[0].mean_posterior == 1.0


def test_run_reproducible_and_seed_sensitive():
    cfg = ConservativeConfig(steps=200, n_microstates=12, bets_per_step=3, seed=4)
    a = run_conservative(cfg)
    b = run_conservative(cfg)
    means_a = [s.mean_posterior for s in a.snapshots]
    assert means_a == [s.mean_posterior for s in b.snapshots]
    c = run_conservative(cfg.with_seed(5))
    assert means_a != [s.mean_posterior for s in c.snapshots]


def test_run_recorded_ledgers_consistent():
    cfg = ConservativeConfig(steps=25, n_microstates=6, bets_per_step=2, seed=9)
    traj, all_wins, all_losses = recorded_run(cfg)
    assert all_wins.shape == all_losses.shape == (26, 6)
    assert all_wins.dtype == all_losses.dtype == np.int64
    for t, (wins, losses) in enumerate(zip(all_wins, all_losses)):
        assert int(wins.sum()) == 6 + 2 * t
        assert int(losses.sum()) == 2 * t
        # posteriors recomputed from the recorded rows are the run's own
        posteriors = EnsembleState(wins, losses).posteriors()
        assert traj.snapshots[t].mean_posterior == float(posteriors.mean())


def test_run_smoothed_series_definition(tmp_path):
    traj = run_conservative(ConservativeConfig(steps=40, n_microstates=10, seed=3))
    path = tmp_path / "trajectory.csv"
    emit_trajectory_csv(traj.snapshots, path)
    column = [line.split(",")[2] for line in path.read_text().splitlines()[1:]]
    means = [s.mean_posterior for s in traj.snapshots]
    expect = smooth_series(means, DEFAULT_SMOOTHING_WINDOW)
    assert column == [format(float(x), ".12g") for x in expect]


def test_run_entropy_bounded_by_pair_count():
    cfg = ConservativeConfig(steps=300, n_microstates=14, bets_per_step=3, seed=6)
    traj = run_conservative(cfg)
    cap = math.log(math.comb(14, 2))
    assert all(s.entropy <= cap + 1e-12 for s in traj.snapshots)


def test_run_forced_schedule_length_checked():
    cfg = ConservativeConfig(steps=3, n_microstates=5, bets_per_step=2, seed=0)
    with pytest.raises(ValueError, match="forced_schedule"):
        run_conservative(cfg, forced_schedule=[[((0, 1), 0)]])


def test_forced_run_derives_no_stream(derived_keys):
    cfg = ConservativeConfig(steps=4, n_microstates=5, bets_per_step=1, seed=0)
    schedule = [[((0, 1), 0)], [((2, 3), 3)], [((1, 4), 4)], [((0, 2), 2)]]
    _, wins, _ = recorded_run(cfg, schedule)
    assert derived_keys.streams == derived_keys.blocks == []
    assert wins[-1].tolist() == [2, 1, 2, 2, 2]
    # a random run derives each step's stream once, one key at a time or in
    # a block, and no block passes its last step
    steps = rngmod.KEYED_STEPS + rngmod.CHUNK + 5
    run_conservative(ConservativeConfig(steps=steps, n_microstates=5, bets_per_step=1, seed=0))
    assert sorted(derived_keys.streams + derived_keys.blocks) == [
        (0, rngmod.BETS, 0, t) for t in range(1, steps + 1)
    ]
    assert derived_keys.blocks


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 1000), seed=st.integers(0, 2**64 - 1), steps=st.integers(1, 6))
def test_one_bet_step_matches_the_array_draws(n, seed, steps):
    # the scalar one-bet path books what the array formula books, and
    # leaves each generator in the same state, step after step
    got, want = _fresh(n), _fresh(n)
    got_rng, want_rng = rngmod.stream(seed), rngmod.stream(seed)
    for _ in range(steps):
        step_conservative(got, got_rng)
        array_bet_step(want, want_rng, 1)
        assert got.wins.tolist() == want.wins.tolist()
        assert got.losses.tolist() == want.losses.tolist()
        assert (got.total_wins, got.total_losses) == (want.total_wins, want.total_losses)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("bets", [1, 3])
def test_run_matches_per_step_seeding(bets):
    # past the keyed steps and two block boundaries, field for field
    steps = rngmod.KEYED_STEPS + 2 * rngmod.CHUNK + 3
    cfg = ConservativeConfig(steps=steps, n_microstates=12, bets_per_step=bets, seed=2**63 + 9)
    traj, got_wins, got_losses = recorded_run(cfg)
    snapshots, wins, losses = closed_run(cfg.seed, 12, bets, steps)
    assert (traj.id, traj.size, traj.birth_step, traj.death_step) == (0, 12, 0, None)
    assert len(traj.snapshots) == len(snapshots) == steps + 1
    assert all(same_snapshot(a, b) for a, b in zip(traj.snapshots, snapshots))
    assert np.array_equal(got_wins, wins) and np.array_equal(got_losses, losses)
    assert traj.ensemble.wins.tolist() == wins[-1].tolist()
    assert traj.ensemble.losses.tolist() == losses[-1].tolist()
    assert traj.ensemble.total_losses == bets * steps


def test_recorded_trajectory_steps_past_its_last_step():
    # the snapshots grow, as a grain's do when a run's state is stepped
    # past config.steps, and each step books the reference's rows
    traj = Trajectory.fresh(10, 0, 2)
    rows = np.concatenate([traj.advance(t, 1)[0] for t in range(1, 6)])
    snapshots, wins, losses = closed_run(0, 10, 1, 5)
    assert np.array_equal(rows[:, 0], wins[1:]) and np.array_equal(rows[:, 1], losses[1:])
    assert len(traj.snapshots) == len(snapshots) == 6
    assert all(same_snapshot(a, b) for a, b in zip(traj.snapshots, snapshots))
    with pytest.raises(ValueError, match="next step, 6"):
        traj.advance(7, 1)


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(2, 800),
    seed=st.integers(0, 2**64 - 1),
    gid=st.integers(0, 5),
    birth=st.integers(0, 40),
    data=st.data(),
)
def test_a_block_of_steps_matches_the_reference_run(size, seed, gid, birth, data):
    # one advance books a block of random steps in one pass; the reference
    # books each step with array draws on its own SeedSequence-keyed stream
    # and divides its ledgers through EnsembleState
    bets = data.draw(st.integers(1, size // 2), label="bets")
    lead = data.draw(st.integers(0, rngmod.KEYED_STEPS + 4), label="lead")
    steps = data.draw(st.integers(1, 130), label="steps")
    traj = Trajectory.fresh(size, seed, birth + lead + steps, gid, birth)
    rows = [traj.advance(t, bets)[0] for t in range(birth + 1, birth + lead + 1)]
    block, got = traj.advance(birth + lead + 1, bets, steps)
    rows = np.concatenate(rows + [block])
    snapshots, wins, losses = closed_run(seed, size, bets, lead + steps, gid, birth)
    want = [EnsembleState(w, l).posteriors() for w, l in zip(wins[lead + 1:], losses[lead + 1:])]
    assert np.array_equal(got, want)
    assert traj.ensemble.wins.tolist() == wins[-1].tolist()
    assert traj.ensemble.losses.tolist() == losses[-1].tolist()
    booked = bets * (lead + steps)
    assert (traj.ensemble.total_wins, traj.ensemble.total_losses) == (size + booked, booked)
    assert np.array_equal(rows[:, 0], wins[1:]) and np.array_equal(rows[:, 1], losses[1:])
    assert len(traj.snapshots) == len(snapshots) == lead + steps + 1
    assert all(same_snapshot(a, b) for a, b in zip(traj.snapshots, snapshots))


@st.composite
def _forced_step(draw, n):
    """One forced step among n: from none up to n // 2 disjoint pairs of a
    shuffle, each won by a drawn side."""
    order = draw(st.permutations(range(n)))
    pairs = draw(st.integers(0, n // 2))
    return [
        ((order[2 * m], order[2 * m + 1]), order[2 * m + draw(st.integers(0, 1))])
        for m in range(pairs)
    ]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_a_forced_block_books_what_plain_python_books(n, data):
    # a forced block, with an empty step somewhere in it, against the same
    # schedule booked in Python lists and divided by posterior_win
    schedule = data.draw(st.lists(_forced_step(n), max_size=12), label="schedule")
    schedule.insert(data.draw(st.integers(0, len(schedule)), label="empty at"), [])
    traj = Trajectory.fresh(n, 0, len(schedule))
    rows, got = traj.advance(1, 1, len(schedule), schedule)
    wins, losses, posteriors = forced_run(n, schedule)
    assert got.tolist() == posteriors[1:]
    assert traj.ensemble.wins.tolist() == wins[-1]
    assert traj.ensemble.losses.tolist() == losses[-1]
    assert (traj.ensemble.total_wins, traj.ensemble.total_losses) == (sum(wins[-1]), sum(losses[-1]))
    assert rows[:, 0].tolist() == wins[1:] and rows[:, 1].tolist() == losses[1:]
    assert [s.mean_posterior for s in traj.snapshots] == [
        float(np.mean(p)) for p in posteriors
    ]


def test_block_ledger_check_catches_a_repeated_index(monkeypatch):
    # a step whose draws name one participant twice books one win where the
    # totals carry two, so its row's column sums miss its totals
    draw, calls = conservative._draw, []

    def repeating_draw(rng, n, bets):
        winners, losers = draw(rng, n, bets)
        calls.append(None)
        if len(calls) == 2:
            winners = np.full_like(winners, winners[0])
        return winners, losers

    monkeypatch.setattr(conservative, "_draw", repeating_draw)
    traj = Trajectory.fresh(20, 0, 10)
    with pytest.raises(AssertionError, match="ledger check failed at step 2: the wins and "
                                             "losses sum to 24 and 6, the totals are 26 and 6"):
        traj.advance(1, 3, 4)
    assert len(calls) == 4  # every step was drawn before the block was checked
    # step_conservative, the one-step case, checks its step the same way
    calls.clear()
    state = _fresh(20)
    step_conservative(state, rngmod.stream(0), 3)
    with pytest.raises(AssertionError):
        step_conservative(state, rngmod.stream(1), 3)


def test_ledger_check_holds_under_python_O():
    # python -O strips assert statements, and the check is a raise: a step
    # whose winners repeat an index still fails, in a fresh interpreter
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from betsim import conservative\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "draw = conservative._draw\n"
        "def repeating_draw(rng, n, bets):\n"
        "    winners, losers = draw(rng, n, bets)\n"
        "    return np.full_like(winners, winners[0]), losers\n"
        "conservative._draw = repeating_draw\n"
        "conservative.Trajectory.fresh(20, 0, 10).advance(1, 3, 4)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == (
        "AssertionError: ledger check failed at step 1: the wins and losses sum to 21 and 3, "
        "the totals are 23 and 3"
    )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 40),
    seed=st.integers(0, 2**64 - 1),
    steps=st.integers(0, 3 * conservative.BLOCK_STEPS),
    sink=st.booleans(),
    data=st.data(),
)
def test_a_run_books_the_same_with_or_without_a_sink(n, seed, steps, sink, data):
    # the sink is handed every block, the birth first, with the run's own
    # posteriors; whether it is given or not, the run is the reference's
    bets = data.draw(st.integers(1, n // 2), label="bets")
    cfg = ConservativeConfig(steps=steps, n_microstates=n, bets_per_step=bets, seed=seed)
    blocks = []
    traj = run_conservative(cfg, (lambda *block: blocks.append(block)) if sink else None)
    snapshots, wins, losses = closed_run(seed, n, bets, steps)
    assert len(traj.snapshots) == len(snapshots) == steps + 1
    assert all(same_snapshot(a, b) for a, b in zip(traj.snapshots, snapshots))
    assert traj.ensemble.wins.tolist() == wins[-1].tolist()
    if sink:
        firsts = [0, *range(1, steps + 1, conservative.BLOCK_STEPS)]
        assert [first for first, _, _ in blocks] == firsts
        rows = np.concatenate([rows for _, rows, _ in blocks])
        assert np.array_equal(rows[:, 0], wins) and np.array_equal(rows[:, 1], losses)
        want = [EnsembleState(w, l).posteriors() for w, l in zip(wins, losses)]
        assert np.array_equal(np.concatenate([p for _, _, p in blocks]), want)
