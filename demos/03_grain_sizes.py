"""Bigger grains take longer to relax.

A dissipative run holds several independent sub-ensembles (grains).
With a flat bet budget per grain, a grain of 400 members needs many
more steps to pull its mean posterior down to 1/2 than a grain of 40,
because each step redistributes the same number of wins across a
larger population.

The second half of the script shows the open-system machinery: grains
can be injected and removed while the run is in flight, and the pooled
snapshot always reflects whoever is alive.
"""
from betsim import DissipativeConfig, convergence_time, run_dissipative

SIZES = (40, 120, 400)

cfg = DissipativeConfig(steps=1500, grain_sizes=SIZES, seed=3, bets_per_grain=1)
result = run_dissipative(cfg)

print("one bet per grain per step, so relaxation time grows with grain size")
print()
for track in sorted(result.grain_tracks.values(), key=lambda t: t.size):
    means = track.snapshots.column("mean_posterior")
    t_eq = convergence_time(means, eps_eq=0.05, sustain=50)
    print(f"  grain of {track.size:>3} members: settled within 0.05 of 1/2 at step {t_eq}")

last = result.pooled[-1]
print()
print(f"pooled mean over all grains at step {last.step}: {last.mean:.4f}")

# open system: inject small grains often, retire the oldest one sometimes
churn = DissipativeConfig(
    steps=80,
    grain_sizes=(30, 30),
    seed=5,
    bets_per_grain=1,
    injection_prob=0.15,
    injection_size_range=(10, 20),
    removal_prob=0.08,
    removal_policy="oldest",
)
open_run = run_dissipative(churn)
born = sum(1 for t in open_run.grain_tracks.values() if t.birth_step > 0)
died = sum(1 for t in open_run.grain_tracks.values() if t.death_step is not None)
alive = sum(1 for t in open_run.grain_tracks.values() if t.death_step is None)
print()
print(f"open run: {len(open_run.grain_tracks)} grains ever existed, "
      f"{born} injected, {died} removed, {alive} alive at the end")
print(f"pooled population at the end: {open_run.pooled[-1].population}")
