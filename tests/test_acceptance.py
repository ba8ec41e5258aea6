"""End-to-end acceptance checks for the whole package.

Each test covers one end-to-end guarantee and prints a single
``acceptance [...]: PASS/FAIL`` line (visible with ``pytest -v -s`` or in
the captured output of a failing run).  The two expensive batches, the
closed-ensemble equilibrium runs and the grain-size ordering runs, are
module-scoped fixtures shared by the checks that need them.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from betsim.cli import dispatch
from betsim.conservative import ConservativeConfig
from betsim.core import EnsembleState
from betsim.dissipative import DissipativeConfig, convergence_time, run_dissipative
from betsim.inference import (
    EXPONENTIAL,
    GAUSSIAN_KNOWN_MEAN,
    DataSet,
    InvGammaParams,
    ModelSpec,
    conjugate_variance_posterior,
    log_evidence,
    model_posteriors,
    select_model,
)
from betsim import rng as rngmod
from betsim.superstat import MixingModel, generate_returns, sample_moments
from oracle import (
    closed_form_log_evidence,
    exact_mean_posterior,
    exact_pooled_counts,
    exact_pooled_excess_kurtosis,
    recorded_run,
)


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"acceptance [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared batches

@pytest.fixture(scope="module")
def equilibrium_runs():
    """20 closed-ensemble runs, N=50, 5000 steps: (trajectory, wins, losses)
    each, with the ledgers after every step kept by the run's sink."""
    return [
        recorded_run(ConservativeConfig(steps=5000, n_microstates=50, bets_per_step=1, seed=seed))
        for seed in range(20)
    ]


@pytest.fixture(scope="module")
def ordering_runs():
    """20 open-ensemble runs with one bet per grain per step.

    The flat budget makes the per-capita bet rate scale as 1/size, which
    is the regime where relaxation time grows with grain size (with equal
    per-capita rates the expected trajectory of the grain mean is
    size-independent, so no ordering can emerge; see the grain-size
    ordering test below).
    """
    results = []
    for seed in range(20):
        cfg = DissipativeConfig(steps=3000, seed=seed, bets_per_grain=1)
        results.append(run_dissipative(cfg))
    return results


# ---------------------------------------------------------------------------
# 1. five-participant forced replay

# Forced bets per step: ((buyer, seller), winner), indices A..E = 0..4.
REPLAY_SCHEDULE = [
    [((0, 1), 1)],
    [((0, 2), 2), ((3, 4), 3)],
    [((0, 1), 0), ((2, 3), 2)],
    [((0, 3), 3), ((1, 4), 4)],
    [((0, 3), 3), ((2, 4), 4)],
    [((0, 1), 1), ((3, 4), 3)],
]

REPLAY_WINS = [
    (1, 1, 1, 1, 1),
    (1, 2, 1, 1, 1),
    (1, 2, 2, 2, 1),
    (2, 2, 3, 2, 1),
    (2, 2, 3, 3, 2),
    (2, 2, 3, 4, 3),
    (2, 3, 3, 5, 3),
]

REPLAY_LOSSES = [
    (0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0),
    (2, 0, 0, 0, 1),
    (2, 1, 0, 1, 1),
    (3, 2, 0, 1, 1),
    (4, 2, 1, 1, 1),
    (5, 2, 1, 1, 2),
]

# Recorded non-integer posteriors as (snapshot, participant, value, decimals).
# Tolerance is half an ulp of the recorded print: two-decimal values match
# to +/-0.005, the three one-decimal values (0.5, 0.5, 0.6) to +/-0.05.
REPLAY_POSTERIORS = [
    (2, 0, 0.16, 2), (2, 4, 0.27, 2),
    (3, 0, 0.33, 2), (3, 1, 0.5, 1), (3, 3, 0.5, 1), (3, 4, 0.33, 2),
    (4, 0, 0.28, 2), (4, 1, 0.37, 2), (4, 3, 0.6, 1), (4, 4, 0.54, 2),
    (5, 0, 0.24, 2), (5, 1, 0.39, 2), (5, 2, 0.66, 2), (5, 3, 0.72, 2), (5, 4, 0.66, 2),
    (6, 0, 0.22, 2), (6, 1, 0.51, 2), (6, 2, 0.67, 2), (6, 3, 0.77, 2), (6, 4, 0.51, 2),
]

# Recorded ensemble means (two-decimal prints) for snapshots 2..6.
REPLAY_MEANS = {2: 0.69, 3: 0.53, 4: 0.56, 5: 0.53, 6: 0.54}


def test_forced_schedule_replay():
    t0 = time.monotonic()
    cfg = ConservativeConfig(steps=6, n_microstates=5, bets_per_step=2, seed=0)
    traj, run_wins, run_losses = recorded_run(cfg, REPLAY_SCHEDULE)
    assert len(traj.snapshots) == 7

    for t, (wins, losses) in enumerate(zip(REPLAY_WINS, REPLAY_LOSSES)):
        assert tuple(run_wins[t].tolist()) == wins, f"wins mismatch at snapshot {t}"
        assert tuple(run_losses[t].tolist()) == losses, f"losses mismatch at snapshot {t}"

    posteriors = [EnsembleState(w, l).posteriors() for w, l in zip(run_wins, run_losses)]
    bad = []
    for t, i, recorded, decimals in REPLAY_POSTERIORS:
        got = float(posteriors[t][i])
        tol = 0.5 * 10.0 ** (-decimals) + 1e-9
        if abs(got - recorded) > tol:
            bad.append((t, i, recorded, got))
    assert not bad, f"posterior mismatches: {bad}"

    # participants with no losses sit at posterior 1 exactly
    for t in range(7):
        for i in range(5):
            if run_losses[t, i] == 0:
                assert posteriors[t][i] == 1.0

    # snapshot 1, participant A: one win of seven total, one loss of one
    # total, so 1/7.  (A recorded table shows 0.5 here; the update rule
    # gives 1/7 and the computed value is the asserted one.)
    assert posteriors[1][0] == pytest.approx(1.0 / 7.0, abs=1e-12)

    for t, mean in REPLAY_MEANS.items():
        got = traj.snapshots[t].mean_posterior
        assert abs(got - mean) <= 0.005 + 1e-9, f"mean at snapshot {t}: {got} vs {mean}"

    elapsed = time.monotonic() - t0
    _report("forced replay", elapsed < 1.0,
            f"integers exact, 20 posteriors at print precision, {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. closed-ensemble equilibrium

def test_closed_ensemble_equilibrium(equilibrium_runs):
    t0 = time.monotonic()
    cap = math.log(math.comb(50, 2))
    decile_ok = 0
    init_ent, fin_ent = [], []
    cap_ok = True
    for traj, _, _ in equilibrium_runs:
        means = np.array([s.mean_posterior for s in traj.snapshots])
        decile = means[-len(means) // 10:]
        if 0.45 <= float(decile.mean()) <= 0.55:
            decile_ok += 1
        ents = np.array([s.entropy for s in traj.snapshots])
        if not (ents <= cap + 1e-12).all():
            cap_ok = False
        init_ent.append(ents[0])
        fin_ent.append(ents[-1])
    med_i, med_f = float(np.median(init_ent)), float(np.median(fin_ent))
    elapsed = time.monotonic() - t0
    ok = decile_ok >= 18 and med_f > med_i and cap_ok and elapsed < 30.0
    _report("closed-ensemble equilibrium", ok,
            f"final-decile mean in [0.45,0.55] for {decile_ok}/20 seeds, "
            f"median entropy {med_i:.3f} -> {med_f:.3f}, cap ln C(50,2)={cap:.4f} "
            f"never exceeded: {cap_ok}, check {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. conservation law

def test_win_loss_conservation(equilibrium_runs):
    n = 50
    checked = 0
    for _, run_wins, run_losses in equilibrium_runs:
        for wins, losses in zip(run_wins, run_losses):
            assert int(wins.sum()) - int(losses.sum()) == n
            checked += 1
    _report("conservation", True,
            f"total wins - total losses == {n} at all {checked} recorded steps")


# ---------------------------------------------------------------------------
# 4. grain-size convergence ordering

SIZES = (750, 225, 150, 425)


def _grain_convergence_times(result):
    times = {}
    for gid, size in enumerate(SIZES):
        track = result.grain_tracks[gid]
        series = [s.mean_posterior for s in track.snapshots]
        times[size] = convergence_time(series, eps_eq=0.05, sustain=50)
    return times


def test_grain_size_convergence_ordering(ordering_runs):
    t0 = time.monotonic()
    positive = 0
    per_size = {s: [] for s in SIZES}
    for result in ordering_runs:
        times = _grain_convergence_times(result)
        assert all(t is not None for t in times.values()), "a grain never settled"
        rho = stats.spearmanr(list(times.keys()), list(times.values())).statistic
        if rho > 0:
            positive += 1
        for s, t in times.items():
            per_size[s].append(t)
    medians = {s: float(np.median(v)) for s, v in per_size.items()}
    ordered = medians[150] < medians[225] < medians[425] < medians[750]
    elapsed = time.monotonic() - t0
    ok = positive >= 14 and ordered and elapsed < 300.0
    _report("grain-size ordering", ok,
            f"size/time Spearman > 0 in {positive}/20 seeds, medians "
            f"{medians[150]:.0f} < {medians[225]:.0f} < {medians[425]:.0f} < "
            f"{medians[750]:.0f}: {ordered}, check {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. pooled tails at partial convergence

def test_pooled_tails_at_partial_convergence(ordering_runs):
    # At the step where the second of the four original grains settles,
    # the pooled posterior distribution should carry positive excess
    # kurtosis in at least 16/20 seeds.  The pooled population at that
    # moment is dominated by the two laggard grains (76% of the mass),
    # and a balanced two-lobe mixture on [0, 1] is platykurtic, so this
    # check fails; the heavy-tail signature appears only after all
    # grains have centered.  The check is kept at its stated threshold
    # rather than weakened.
    kurt_positive = 0
    kurts = []
    for result in ordering_runs:
        times = sorted(_grain_convergence_times(result).values())
        second = times[1]
        snap = result.pooled[second]
        kurts.append(snap.excess_kurtosis)
        if snap.excess_kurtosis > 0:
            kurt_positive += 1
    _report("pooled tails at partial convergence", kurt_positive >= 16,
            f"pooled excess kurtosis > 0 in {kurt_positive}/20 seeds "
            f"(median {float(np.median(kurts)):.2f})")


# ---------------------------------------------------------------------------
# 6. dispersion grows with the square root of the horizon

def test_dispersion_scales_with_sqrt_horizon():
    model = MixingModel(kind="constant", sigma0=1.0)
    base = generate_returns(model, 100_000, 1, rngmod.stream(0, rngmod.RETURNS, 0, 1))
    s1 = float(np.std(base.samples))
    worst = 0.0
    for tau in (4, 16, 64):
        series = generate_returns(model, 100_000, tau, rngmod.stream(0, rngmod.RETURNS, 0, tau))
        ratio = float(np.std(series.samples)) / s1
        worst = max(worst, abs(ratio / math.sqrt(tau) - 1.0))
    _report("sqrt-horizon dispersion", worst < 0.05,
            f"worst relative deviation from sqrt(tau): {worst:.4f}")


# ---------------------------------------------------------------------------
# 7. inverse-gamma mixture kurtosis

def test_inverse_gamma_mixture_kurtosis():
    # variance mixed by InvGamma(alpha, beta) gives a Student-t with
    # nu = 2 alpha degrees of freedom; nu = 8 has excess kurtosis
    # 6/(nu-4) = 1.5
    model = MixingModel(kind="inverse-gamma", alpha=4.0, beta=4.0)
    series = generate_returns(model, 1_000_000, 1, rngmod.stream(0, rngmod.RETURNS))
    kurt = sample_moments(series).excess_kurtosis
    _report("variance-mixture kurtosis", abs(kurt - 1.5) <= 0.15,
            f"sample excess kurtosis {kurt:.4f}, analytic 1.5 +/- 0.15")


# ---------------------------------------------------------------------------
# 8. conjugate correctness

def test_conjugate_posterior_and_evidence():
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    worst_l1, worst_rel = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        mu = float(rng.uniform(-3, 3))
        x = rng.normal(mu, float(rng.uniform(0.3, 3.0)), n)
        prior = InvGammaParams(float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.5, 5.0)))
        data = DataSet(x, mu=mu)

        post = conjugate_variance_posterior(prior, data)
        dist = stats.invgamma(post.alpha, scale=post.beta)
        grid = np.geomspace(dist.ppf(1e-10), dist.ppf(1 - 1e-10), 20_001)
        s = data.squared_deviation_sum()
        log_un = (-(data.n / 2.0) * np.log(2 * np.pi * grid) - s / (2 * grid)
                  - (prior.alpha + 1) * np.log(grid) - prior.beta / grid)
        un = np.exp(log_un - log_un.max())
        un /= np.trapezoid(un, grid)
        worst_l1 = max(worst_l1, float(np.trapezoid(np.abs(un - dist.pdf(grid)), grid)))

        spec = ModelSpec(id="g", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=prior)
        lq = log_evidence(spec, data)
        lc = closed_form_log_evidence(data, prior)
        worst_rel = max(worst_rel, abs(lq - lc) / max(1.0, abs(lc)))
    elapsed = time.monotonic() - t0
    ok = worst_l1 < 1e-3 and worst_rel < 1e-6 and elapsed < 60.0
    _report("conjugate correctness", ok,
            f"worst grid L1 {worst_l1:.2e}, worst evidence deviation {worst_rel:.2e}, "
            f"{elapsed:.1f}s for 100 cases")


# ---------------------------------------------------------------------------
# 9. model comparison sanity

def test_model_comparison_sanity():
    prior = InvGammaParams(3.0, 2.0)
    gauss = ModelSpec(id="gaussian-known-mean", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=prior)
    twin = ModelSpec(id="twin", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=prior)
    exp_spec = ModelSpec(id="exponential", likelihood_kind=EXPONENTIAL, prior=prior)

    x = np.random.default_rng(7).normal(0.0, 1.3, 40)
    twins = model_posteriors([gauss, twin], [0.5, 0.5], DataSet(x, mu=0.0))
    total = sum(p.posterior_prob for p in twins)
    assert abs(total - 1.0) <= 1e-12
    assert twins[0].posterior_prob == pytest.approx(0.5, abs=1e-12)
    assert twins[1].posterior_prob == pytest.approx(0.5, abs=1e-12)
    assert select_model(twins).best is None, "identical models must tie"

    wins = 0
    for rep in range(100):
        rg = np.random.default_rng((987, rep))
        theta = 1.0 / rg.gamma(3.0, 1.0 / 2.0)  # rate drawn from the prior
        xs = rg.exponential(1.0 / theta, 500)
        posts = model_posteriors([exp_spec, gauss], [0.5, 0.5], DataSet(xs, mu=0.0))
        assert abs(sum(p.posterior_prob for p in posts) - 1.0) <= 1e-12
        if posts[0].posterior_prob > posts[1].posterior_prob:
            wins += 1
    _report("model comparison sanity", wins >= 95,
            f"identical models split 0.5/0.5 exactly; generating model "
            f"favored in {wins}/100 replications at n=500")


# ---------------------------------------------------------------------------
# 10. byte-identical reruns

CONFIGS = {
    "cons.ini": """\
[conservative]
steps = 60
n_microstates = 12
bets_per_step = 3
seed = 5
""",
    "diss.ini": """\
[dissipative]
steps = 50
grain_sizes = 150, 225, 425, 750
seed = 3
bets_per_grain = 1

[io]
histogram_bins = 20
histogram_every = 25
""",
    "gen.ini": """\
[superstat]
kind = inverse-gamma
alpha = 4.0
beta = 4.0
n = 500
tau = 2
seed = 11
""",
    "fit.ini": """\
[inference]
mu = 0.0
prior_alpha = 3.0
prior_beta = 2.0

[io]
input = returns_a/returns.csv
""",
    "cmp.ini": """\
[inference]
models = exponential, gaussian-known-mean
model_priors = 0.5, 0.5
model_alphas = 3.0, 3.0
model_betas = 2.0, 2.0

[io]
input = positive.csv
""",
    "ing.ini": """\
[superstat]
tau = 2

[io]
input = prices.csv
""",
}


def test_rerun_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, body in CONFIGS.items():
        (tmp_path / name).write_text(body)
    rng = np.random.default_rng(1)
    prices = 100 * np.exp(np.cumsum(rng.normal(0.0005, 0.01, 80)))
    with open(tmp_path / "prices.csv", "w") as fh:
        fh.write("t,price\n")
        for i, p in enumerate(prices):
            fh.write(f"{i},{p:.6f}\n")
    pos = np.random.default_rng(2).exponential(0.8, 200)
    with open(tmp_path / "positive.csv", "w") as fh:
        fh.write("i,value\n")
        for i, v in enumerate(pos):
            fh.write(f"{i},{float(v)!r}\n")

    jobs = [
        ("sim-conservative", "cons.ini", "cons"),
        ("sim-dissipative", "diss.ini", "diss"),
        ("gen-returns", "gen.ini", "returns"),
        ("fit-variance", "fit.ini", "fit"),
        ("compare-models", "cmp.ini", "cmp"),
        ("ingest", "ing.ini", "ing"),
    ]
    # gen-returns must run before fit-variance reads returns_a
    compared = 0
    for cmd, cfg, slug in jobs:
        out_a, out_b = f"{slug}_a", f"{slug}_b"
        assert dispatch([cmd, "--config", cfg, "--out", out_a]) == 0
        assert dispatch([cmd, "--config", cfg, "--out", out_b]) == 0
        names_a = sorted(os.listdir(tmp_path / out_a))
        names_b = sorted(os.listdir(tmp_path / out_b))
        assert names_a == names_b and names_a, f"{cmd}: file sets differ"
        for name in names_a:
            a = (tmp_path / out_a / name).read_bytes()
            b = (tmp_path / out_b / name).read_bytes()
            assert a == b, f"{cmd}/{name}: reruns differ"
            compared += 1
    _report("deterministic reruns", True,
            f"all 6 commands byte-identical across reruns ({compared} files)")


# ---------------------------------------------------------------------------
# 11. grain means against the exact law of one ledger

EXACT_STEPS = (50, 200, 500, 1000, 2000, 3000)


def test_grain_means_match_the_exact_ledger_law(ordering_runs):
    # one bet per grain and step; the bound |z| <= 4 on each 20-seed mean
    # was fixed before the check first ran
    worst = 0.0
    for gid, size in enumerate(SIZES):
        for t in EXACT_STEPS:
            means = np.array([r.grain_tracks[gid].snapshots[t].mean_posterior
                              for r in ordering_runs])
            z = (means.mean() - exact_mean_posterior(size, 1, t)) / (
                means.std(ddof=1) / math.sqrt(means.size))
            worst = max(worst, abs(float(z)))
    _report("exact grain means", worst <= 4.0,
            f"max |z| of the 20-seed grain means against the exact expectation "
            f"over {len(SIZES) * len(EXACT_STEPS)} grain-steps: {worst:.2f}")


# ---------------------------------------------------------------------------
# 12. pooled histograms against the exact law of one ledger

POOLED_STEPS = (50, 200, 1000, 3000)


def test_pooled_counts_match_the_exact_ledger_law(ordering_runs):
    # one bet per grain and step; every bin whose expected count is at
    # least 5, and the bound |z| <= 5 on each 20-seed mean, with z from
    # the seeds' sample SD, were fixed before the check first ran
    bins = ordering_runs[0].bins
    worst, where, compared = 0.0, None, 0
    for t in POOLED_STEPS:
        counts = np.array([r.pooled[t].counts for r in ordering_runs])
        expected = exact_pooled_counts(SIZES, 1, t, bins)
        tested = np.flatnonzero(expected >= 5)
        spread = counts[:, tested].std(axis=0, ddof=1) / math.sqrt(len(counts))
        z = (counts[:, tested].mean(axis=0) - expected[tested]) / spread
        k = int(np.argmax(np.abs(z)))
        if not abs(z[k]) <= worst:  # NaN too, from a bin with no spread
            worst, where = float(abs(z[k])), (t, int(tested[k]))
        compared += tested.size
    _report("exact pooled counts", worst <= 5.0,
            f"max |z| of the 20-seed pooled bin counts against the exact expectation "
            f"over {compared} bins with an expected count >= 5: {worst:.2f}, at (step, bin) {where}")


# ---------------------------------------------------------------------------
# 13. pooled kurtosis at partial convergence against the exact law of one ledger

def test_pooled_kurtosis_matches_the_exact_ledger_law(ordering_runs):
    # at each seed's pooled_tails step, the second grain's convergence time;
    # the bound |simulated - expected| <= 0.15 on every seed was fixed
    # before the check first ran
    worst, where, simulated, expected = 0.0, None, [], []
    for seed, result in enumerate(ordering_runs):
        second = sorted(_grain_convergence_times(result).values())[1]
        simulated.append(result.pooled[second].excess_kurtosis)
        expected.append(exact_pooled_excess_kurtosis(SIZES, 1, second))
        gap = abs(simulated[-1] - expected[-1])
        if not gap <= worst:  # NaN too
            worst, where = gap, (seed, second)
    _report("exact pooled kurtosis", worst <= 0.15,
            f"max |simulated - expected| pooled excess kurtosis of 20 seeds: {worst:.3f}, "
            f"at (seed, step) {where}; expected {min(expected):.2f} to {max(expected):.2f}, "
            f"simulated {min(simulated):.2f} to {max(simulated):.2f}")
