"""Relaxation of a closed betting ensemble.

Fifty participants start from the same single-win ledger, so every
posterior begins at 1.0 and the entropy of the win-count macrostate is
zero.  Random pairwise bets then shuffle wins around without creating
or destroying any.  Run long enough, the mean posterior settles at 1/2
and the entropy climbs toward its combinatorial ceiling.
"""
import math

from betsim import ConservativeConfig, run_conservative, smooth_series
from betsim.conservative import DEFAULT_SMOOTHING_WINDOW

N = 50
STEPS = 2000

cfg = ConservativeConfig(steps=STEPS, n_microstates=N, bets_per_step=1, seed=7)
traj = run_conservative(cfg)
smoothed = smooth_series([s.mean_posterior for s in traj.snapshots], DEFAULT_SMOOTHING_WINDOW)

cap = math.log(math.comb(N, 2))
print(f"closed ensemble, {N} participants, {STEPS} steps, one bet per step")
print(f"entropy ceiling ln C({N},2) = {cap:.4f}")
print()
print(f"{'step':>6} {'mean':>8} {'smoothed':>9} {'entropy':>8} {'classes':>8}")
for t in (0, 1, 10, 100, 500, 1000, 2000):
    s = traj.snapshots[t]
    sm = smoothed[t]
    print(f"{s.step:>6} {s.mean_posterior:>8.4f} {sm:>9.4f} {s.entropy:>8.4f} {s.distinct_classes:>8}")

final = traj.snapshots[-1]
print()
print(f"final mean posterior {final.mean_posterior:.4f} (equilibrium value is 0.5)")
print(f"final entropy {final.entropy:.4f}, {final.entropy / cap:.1%} of ceiling")
assert final.entropy <= cap + 1e-12
