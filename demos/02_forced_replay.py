"""Exact bookkeeping under a hand-written bet schedule.

Instead of drawing random pairings, run_conservative accepts a forced
schedule: a list per step of ((buyer, seller), winner) entries.  That
turns the simulator into a deterministic ledger machine, which makes
it easy to check the posterior rule by hand.

Each participant starts with one virtual win.  After every step the
sum of wins minus the sum of losses still equals the population size.
"""
import numpy as np

from betsim import ConservativeConfig, run_conservative
from betsim.core import EnsembleState

# five participants, one or two bets per step
SCHEDULE = [
    [((0, 1), 1)],
    [((0, 2), 2), ((3, 4), 3)],
    [((1, 3), 1)],
]


def ledgers(config, schedule):
    """The (steps + 1, 2, N) ledgers after each step of a forced run, the
    birth first: the run hands each block it books to a sink, which keeps
    the rows."""
    blocks = []
    run_conservative(config, lambda first, rows, posteriors: blocks.append(rows), schedule)
    return np.concatenate(blocks)


cfg = ConservativeConfig(steps=len(SCHEDULE), n_microstates=5, bets_per_step=2, seed=0)
rows = ledgers(cfg, SCHEDULE)

for step, (wins, losses) in enumerate(rows):
    post = EnsembleState(wins, losses).posteriors()
    print(f"after step {step}:" if step else "initial state:")
    for i in range(5):
        print(f"  participant {i}: wins={wins[i]} losses={losses[i]} posterior={post[i]:.4f}")
    total = int(wins.sum()) - int(losses.sum())
    print(f"  wins minus losses = {total} (population 5)")
    print()

# replaying the same schedule reproduces the run byte for byte
assert (rows == ledgers(cfg, SCHEDULE)).all()
print("replay with the same schedule is identical")
