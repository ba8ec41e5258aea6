"""Stream derivation: same key, same draws; any key change, fresh stream."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betsim import rng
from oracle import seeded_stream


def test_same_key_same_draws():
    a = rng.stream(7, rng.BETS, 3, 12).random(64)
    b = rng.stream(7, rng.BETS, 3, 12).random(64)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "other",
    [
        (8, rng.BETS, 3, 12),
        (7, rng.TOPOLOGY, 3, 12),
        (7, rng.BETS, 4, 12),
        (7, rng.BETS, 3, 13),
    ],
)
def test_any_component_change_gives_new_stream(other):
    base = rng.stream(7, rng.BETS, 3, 12).random(64)
    alt = rng.stream(*other).random(64)
    assert not np.array_equal(base, alt)


def test_purpose_slots_are_distinct():
    slots = (rng.BETS, rng.TOPOLOGY, rng.RETURNS, rng.GENERIC)
    assert len(set(slots)) == len(slots)


def test_negative_component_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        rng.stream(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        rng.stream(0, rng.BETS, -2, 0)


def test_draw_count_does_not_leak_between_steps():
    # consuming a different number of draws at step 0 must not shift step 1
    s0 = rng.stream(5, rng.GENERIC, 0, 0)
    s0.random(3)
    first = rng.stream(5, rng.GENERIC, 0, 1).random(8)
    s0b = rng.stream(5, rng.GENERIC, 0, 0)
    s0b.random(1000)
    second = rng.stream(5, rng.GENERIC, 0, 1).random(8)
    assert np.array_equal(first, second)


U64 = st.integers(0, 2**64 - 1)


@settings(max_examples=300, deadline=None)
@given(seed=U64, purpose=U64, sub=U64, step=U64)
def test_stream_is_the_seed_sequence_of_the_key(seed, purpose, sub, step):
    got = rng.stream(seed, purpose, sub, step)
    want = seeded_stream(seed, purpose, sub, step)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(0, 2**63, size=3).tolist() == want.integers(0, 2**63, size=3).tolist()


@settings(max_examples=200, deadline=None)
@given(
    seed=U64,
    purpose=st.integers(0, 3),
    sub=st.integers(0, 2**40),
    steps=st.lists(
        st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)), max_size=12
    ),
)
def test_block_states_are_numpy_seeding(seed, purpose, sub, steps):
    # one-word steps (below 2**32) and two-word steps mix in one block
    words = rng.stream_states(seed, purpose, sub, steps)
    assert words.shape == (len(steps), 4) and words.dtype == np.uint64
    for t, row in zip(steps, words.tolist()):
        want = np.random.PCG64(np.random.SeedSequence((seed, purpose, sub, t))).state
        assert want["state"] == _state(row)


def test_block_states_take_both_step_widths_in_one_block():
    steps = [2**32 - 1, 2**32, 0, 2**64 - 1, 7]
    words = rng.stream_states(2**63 + 5, rng.BETS, 2, steps)
    for t, row in zip(steps, words.tolist()):
        want = rng.stream(2**63 + 5, rng.BETS, 2, t).bit_generator.state["state"]
        assert want == _state(row)


def _state(row):
    state_h, state_l, inc_h, inc_l = row
    return {"state": state_h << 64 | state_l, "inc": inc_h << 64 | inc_l}


def test_stepper_serves_every_step_across_chunk_boundaries():
    # keyed steps, two block boundaries, and steps past the last
    last = rng.KEYED_STEPS + 2 * rng.CHUNK + 3
    stepper = rng.StreamStepper(11, rng.BETS, 1, last)
    for t in range(1, last + 4):
        gen = stepper.at(t)
        assert gen.bit_generator.state == seeded_stream(11, rng.BETS, 1, t).bit_generator.state
        gen.random(t % 3)  # draws at step t leave step t + 1 as it was


def test_stepper_derives_no_step_past_the_last(derived_keys):
    last = rng.KEYED_STEPS + rng.CHUNK + 5
    stepper = rng.StreamStepper(3, rng.BETS, 0, last)
    for t in range(1, last + 3):
        stepper.at(t)
    # the first requests and the steps past the last one key at a time,
    # the rest in blocks that end at the last
    keyed = [*range(1, rng.KEYED_STEPS + 1), last + 1, last + 2]
    assert derived_keys.streams == [(3, rng.BETS, 0, t) for t in keyed]
    blocks = range(rng.KEYED_STEPS + 1, last + 1)
    assert derived_keys.blocks == [(3, rng.BETS, 0, t) for t in blocks]
