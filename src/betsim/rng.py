"""Deterministic random-stream derivation.

Every random draw in the package flows through numpy's PCG64 bit
generator, seeded through a SeedSequence keyed on a fixed-length tuple
``(seed, purpose, sub, step)``.  Deriving a fresh generator per
(purpose, substream, step) triple has two consequences we rely on:

* replay is exact no matter how many draws a given step consumes
  (rejection samplers included), because no state leaks across steps;
* independent substreams (e.g. the grains of a dissipative run) can be
  processed in any order, or in parallel, without coordination.
"""
from __future__ import annotations

import numpy as np

# purpose slots for the second key component
BETS = 0       # pairwise betting inside one ensemble or grain
TOPOLOGY = 1   # grain injection/removal decisions
RETURNS = 2    # synthetic return generation
GENERIC = 3    # one-off streams (tests, demos)


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is a user seed: an unsigned
    64-bit integer, in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def stream(seed: int, purpose: int = GENERIC, sub: int = 0, step: int = 0) -> np.random.Generator:
    """Derive an independent, deterministic generator for one task.

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
    key = (int(seed), int(purpose), int(sub), int(step))
    if any(k < 0 for k in key):
        raise ValueError(f"stream key components must be nonnegative, got {key}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=key)))
