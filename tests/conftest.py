"""Fixtures shared by the test modules."""
import os
from types import SimpleNamespace

import pytest

from betsim import rng as rngmod


@pytest.fixture
def derived_keys(monkeypatch):
    """Records every stream key derived while the test runs.

    ``streams`` lists the (seed, purpose, sub, step) keys passed to
    ``rng.stream``; ``blocks`` lists one such key for each state that
    ``rng.stream_states`` derives.
    """
    keys = SimpleNamespace(streams=[], blocks=[])
    stream, stream_states = rngmod.stream, rngmod.stream_states

    def counting_stream(seed, purpose=rngmod.GENERIC, sub=0, step=0):
        keys.streams.append((seed, purpose, sub, step))
        return stream(seed, purpose, sub, step)

    def counting_states(seed, purpose, sub, steps):
        keys.blocks.extend((seed, purpose, sub, int(t)) for t in steps)
        return stream_states(seed, purpose, sub, steps)

    monkeypatch.setattr(rngmod, "stream", counting_stream)
    monkeypatch.setattr(rngmod, "stream_states", counting_states)
    return keys


@pytest.fixture(autouse=True)
def _no_child_left():
    """Every process a test forks has exited and been reaped when it ends."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
