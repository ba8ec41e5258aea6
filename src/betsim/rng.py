"""Deterministic random-stream derivation.

Every random draw in the package flows through numpy's PCG64 bit
generator, seeded through a SeedSequence keyed on a fixed-length tuple
``(seed, purpose, sub, step)``.  Deriving a fresh generator per
(purpose, substream, step) triple has two consequences we rely on:

* replay is exact no matter how many draws a given step consumes
  (rejection samplers included), because no state leaks across steps;
* independent substreams (e.g. the grains of a dissipative run) can be
  processed in any order, or in parallel, without coordination.

Every per-step stream of a simulation, a population's bets or a churn
run's topology, comes from a ``StreamStepper``, which alone chooses how
it is derived: its first requests one key at a time with ``stream``, the
rest through ``stream_states``, which derives the PCG64 states of a
block of steps in numpy arithmetic, the same states that ``stream``
seeds, and loads them into one reused generator.
"""
from __future__ import annotations

import numpy as np

# purpose slots for the second key component
BETS = 0       # pairwise betting inside one ensemble or grain
TOPOLOGY = 1   # grain injection/removal decisions
RETURNS = 2    # synthetic return generation
GENERIC = 3    # one-off streams (tests, demos)

# requests a StreamStepper serves one key at a time before it derives blocks
KEYED_STEPS = 16
# steps whose states a StreamStepper derives at a time
CHUNK = 256

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
# numpy's SeedSequence: hash constants of mix_entropy (A) and generate_state (B)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is a user seed: an unsigned
    64-bit integer, in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def _key_words(key) -> list[int]:
    """The uint32 words SeedSequence assembles from a tuple of nonnegative
    ints: each int's 32-bit words, least significant first (one 0 word for
    0), in tuple order."""
    words = []
    for k in key:
        if k < 0:
            raise ValueError(f"stream key components must be nonnegative, got {tuple(key)}")
        words.append(k & _MASK32)
        k >>= 32
        while k:
            words.append(k & _MASK32)
            k >>= 32
    return words


def stream(seed: int, purpose: int = GENERIC, sub: int = 0, step: int = 0) -> np.random.Generator:
    """Derive an independent, deterministic generator for one task.

    The generator is ``Generator(PCG64(SeedSequence((seed, purpose, sub,
    step))))``; SeedSequence is given the tuple's words, which it would
    assemble from the tuple itself, so the entropy is the same.

    Parameters
    ----------
    seed : int
        User-facing 64-bit unsigned seed.
    purpose : int
        One of the purpose slots above; keeps unrelated draws apart.
    sub : int
        Substream index (e.g. grain id). 0 when unused.
    step : int
        Step index. 0 when unused.
    """
    words = _key_words((int(seed), int(purpose), int(sub), int(step)))
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _hashmix(values, consts):
    """SeedSequence's hashmix of uint32 ``values``: one call per row of
    ``consts[:-1]``, each xor-ing its constant and multiplying by the next."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ (v >> 16)


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` hash constants init * mult**k (mod 2**32), as a uint32 column."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _mix(x, y):
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


def _mulhi64(a, b: int):
    """High 64 bits of the 128-bit products of uint64 ``a`` and ``b``."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(ah, al, bh, bl):
    lo = al + bl
    return ah + bh + (lo < al), lo


def stream_states(seed: int, purpose: int, sub: int, steps) -> np.ndarray:
    """The PCG64 ``state`` and ``inc`` that ``stream(seed, purpose, sub, t)``
    seeds, for every t in ``steps`` (ints in [0, 2**64)): one uint64 row
    per step of the high and low words of ``state``, then of ``inc``.

    This is numpy's SeedSequence on the key's words (mix_entropy into a
    pool of 4, then generate_state(4, uint64)) and PCG64's seeding step,
    each step a column of uint32/uint64 arrays.  A step of one word and
    one of two words can share a block: the second word enters the pool
    only on its own rows.
    """
    t = np.asarray(steps, dtype=np.uint64).reshape(-1)
    prefix = _key_words((int(seed), int(purpose), int(sub)))
    lo, hi = (t & _MASK32).astype(np.uint32), (t >> 32).astype(np.uint32)
    words = [np.full(t.size, w, dtype=np.uint32) for w in prefix] + [lo, hi]
    # the key is 3 ints and the step, so at least 4 words: the pool takes
    # the first 4 and the rest are mixed in after
    calls = _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1) + _POOL_SIZE * (len(words) - _POOL_SIZE)
    ca = _hash_consts(_INIT_A, _MULT_A, calls + 1)
    pool = _hashmix(np.stack(words[:_POOL_SIZE]), ca[:_POOL_SIZE + 1])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], ca[k:k + len(dst) + 1]))
        k += len(dst)
    for i in range(_POOL_SIZE, len(words)):
        mixed = _mix(pool, _hashmix(words[i], ca[k:k + _POOL_SIZE + 1]))
        # only a two-word step has its last word
        pool = mixed if i < len(words) - 1 else np.where(hi > 0, mixed, pool)
        k += _POOL_SIZE
    cb = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)
    out = _hashmix(np.tile(pool, (2, 1)), cb).astype(np.uint64)
    # little-endian pairs of uint32 words: seed high and low, then inc high and low
    sh, sl, ih, il = out[0::2] | (out[1::2] << 32)
    # PCG64 seeding: inc = 2 * initseq + 1, state = (inc + initstate) * MULT + inc
    inc_h, inc_l = (ih << 1) | (il >> 63), (il << 1) | 1
    xh, xl = _add128(inc_h, inc_l, sh, sl)
    mh, ml = _PCG_MULT >> 64, _PCG_MULT & _MASK64
    state_h, state_l = _add128(_mulhi64(xl, ml) + xl * mh + xh * ml, xl * ml, inc_h, inc_l)
    return np.stack([state_h, state_l, inc_h, inc_l], axis=1)


class StreamStepper:
    """The generators of ``stream(seed, purpose, sub, t)`` for one population.

    ``at(t)`` serves the first ``KEYED_STEPS`` requests, and any step past
    ``last``, with ``stream`` itself, so a population that lives a few
    steps costs what one key at a time costs.  Later requests load the
    state that ``stream`` would seed for step t into one reused PCG64,
    deriving the states of up to ``CHUNK`` steps at a time, never past
    ``last``, and dropping them once step ``last`` is served.  The
    reused generator is built with the first derived block, so a stepper
    that derives none never builds one.  Each returned generator is
    valid until the next ``at`` call.
    """

    def __init__(self, seed: int, purpose: int, sub: int, last: int):
        self._key = (seed, purpose, sub)
        self._last = last
        self._keyed = 0
        self._gen: np.random.Generator | None = None  # built with the first derived block
        self._first = 0
        self._words = np.empty((0, 4), dtype=np.uint64)  # stream_states rows from step _first

    def at(self, t: int) -> np.random.Generator:
        if self._keyed < KEYED_STEPS or not 0 <= t <= self._last:
            self._keyed += 1
            return stream(*self._key, t)
        i = t - self._first
        if not 0 <= i < len(self._words):
            steps = np.arange(t, min(t + CHUNK, self._last + 1), dtype=np.uint64)
            self._words = stream_states(*self._key, steps)
            self._first, i = t, 0
            if self._gen is None:
                self._gen = np.random.Generator(np.random.PCG64(0))
        state_h, state_l, inc_h, inc_l = self._words[i].tolist()
        if t == self._last:
            self._words = self._words[:0].copy()  # no later step is derived from the block
        self._gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_h << 64 | state_l, "inc": inc_h << 64 | inc_l},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._gen
