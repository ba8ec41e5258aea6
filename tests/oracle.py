"""Reference implementations the tests compare the package against.

``posterior_win`` evaluates the posterior-win rule for one ledger
against explicit ensemble totals, one Python division at a time; the
tests check the vectorized ``betsim.core.EnsembleState.posteriors``
against it.
``population_moments`` is the ``np.mean`` formulation of the moments
that ``betsim.superstat.sample_moments`` and the block summary's rows
must reproduce bit for bit.
``reference_snapshot`` summarises one population the plain way, one
sort, a ``searchsorted`` pair count and ``np.histogram`` counts; the
package's block summary must give each row the same fields.
``read_returns_csv`` and ``ingest_price_csv`` parse one row at a time
with ``csv.reader`` and ``float``; ``betsim.io`` reads in blocks and
must give the same arrays, or the same ``DataError`` text, on any file.
``closed_form_log_evidence`` is the conjugate evidence of a known-mean
Gaussian under an inverse-gamma prior, which the quadrature in
``betsim.inference.log_evidence`` must match.  ``log_evidence`` is that
quadrature as it stood before its grids were nested: a fresh
``np.linspace`` grid per estimate, ``np.geomspace`` in the domain scan,
and the public likelihood plus the inverse-gamma log-density on every
call; the package must return the same float, or raise the same error.  A domain
whose upper end underflows to 0 is refused with a ``ConvergenceError``
before the scan, as the package refuses it.
``exact_mean_posterior`` is the expected posterior of one participant of a
grain, from the exact law of its ledger, and ``exact_pooled_counts`` and
``exact_pooled_excess_kurtosis`` the expected pooled histogram and the
excess kurtosis of the expected pooled mixture of grains that follow that
law; the acceptance runs' grain means, pooled counts and pooled kurtosis
are tested against them.
``seeded_stream`` seeds a generator through SeedSequence on the key tuple,
and ``array_bet_step`` books random bets with array draws; the reference
runs ``closed_run`` and ``grain_run`` use both at every step, and
summarise every step with ``reference_snapshot``, so the package's
block-derived streams, one-bet scalar draws, block bookings and block
summaries must give the same trajectories.  ``churn_run`` does the same
for a run that injects and removes grains, drawing each step's topology
from its own keyed stream.  ``forced_run`` books a forced schedule in
plain Python lists, with ``posterior_win`` after each step.
``recorded_run`` is not a reference: it runs ``run_conservative`` with a
sink that keeps the ledger rows, for the tests that read them.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import gammaln

from betsim.conservative import run_conservative
from betsim.core import EnsembleState, MacroSnapshot, Moments, _posteriors
from betsim.errors import ConvergenceError, DataError
from betsim.inference import (
    DOMAIN_SCAN_ROUNDS,
    GAUSSIAN_KNOWN_MEAN,
    INITIAL_NODES,
    MAX_NODES,
    _invgamma_log_density,
    _logsumexp,
    exponential_loglik,
    gaussian_variance_loglik,
)


@dataclass(frozen=True)
class BetLedger:
    """Win/loss record of a single participant.

    Counts only ever increase; a freshly initialized participant starts
    at one win and zero losses, so ``wins >= 1`` throughout a run.
    """

    wins: int
    losses: int

    def __post_init__(self):
        if self.wins < 0 or self.losses < 0:
            raise ValueError(f"ledger counts must be nonnegative, got {self!r}")


@dataclass(frozen=True)
class EnsembleTotals:
    """Column sums of all ledgers in one ensemble."""

    total_wins: int
    total_losses: int

    def __post_init__(self):
        if self.total_wins < 0 or self.total_losses < 0:
            raise ValueError(f"totals must be nonnegative, got {self!r}")


def posterior_win(ledger: BetLedger, totals: EnsembleTotals) -> float:
    """Posterior probability of profit for one ledger.

    With fair marginal odds P(win) = P(loss) = 0.5 the marginals cancel
    and the posterior reduces to ``L_w / (L_w + L_l)`` where the
    likelihoods are empirical frequencies ``L_w = wins/total_wins`` and
    ``L_l = losses/total_losses``.  When the ensemble has recorded no
    losses at all, the loss likelihood is defined as 0 and the
    posterior is 1.

    Raises
    ------
    ValueError
        If the ledger is empty (wins = losses = 0, undefined), or the
        totals cannot contain the ledger.
    """
    if ledger.wins == 0 and ledger.losses == 0:
        raise ValueError("posterior undefined for an empty ledger (0 wins, 0 losses)")
    if totals.total_wins < 1:
        raise ValueError("ensemble totals must include at least one win")
    if ledger.wins > totals.total_wins or ledger.losses > totals.total_losses:
        raise ValueError(f"ledger {ledger!r} inconsistent with totals {totals!r}")
    l_w = ledger.wins / totals.total_wins
    l_l = 0.0 if totals.total_losses == 0 else ledger.losses / totals.total_losses
    return l_w / (l_w + l_l)


def population_moments(values) -> Moments:
    """Population (biased) moments; excess kurtosis = m4/m2^2 - 3.

    A zero-variance population is flagged degenerate with NaN skewness
    and kurtosis rather than raising.  When the variance is positive but
    its square underflows to 0, skewness and kurtosis are taken from the
    deviations divided by their largest magnitude, which leaves the
    ratios unchanged.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("moments undefined for an empty collection")
    mean = float(v.mean())
    d = v - mean
    m2 = float(np.mean(d * d))
    if m2 == 0.0:
        return Moments(mean, 0.0, math.nan, math.nan, True)
    e, s2 = d, m2
    if m2 * m2 == 0.0:
        e = d / np.abs(d).max()
        s2 = float(np.mean(e * e))
    m3 = float(np.mean(e * e * e))
    m4 = float(np.mean(e * e * e * e))
    return Moments(mean, m2, m3 / s2**1.5, m4 / (s2 * s2) - 3.0, False)


def reference_snapshot(posteriors, step: int, bins: int | None = None) -> MacroSnapshot:
    """One population's snapshot: moments of the values in their given
    order, classes split on sorted gaps larger than 1e-9, heterogeneous
    pairs counted by searchsorted on the sorted values, and with ``bins``
    the counts of ``np.histogram`` over [0, 1]."""
    v = np.asarray(posteriors, dtype=np.float64)
    m = population_moments(v)
    p = np.sort(v)
    eps = 1e-9
    classes = int(np.count_nonzero(np.diff(p) > eps)) + 1 if p.size else 0
    pairs = int(np.searchsorted(p, p - eps, side="left").sum())
    counts = None if bins is None else np.histogram(v, bins, (0.0, 1.0))[0]
    return MacroSnapshot(
        step=int(step), mean_posterior=m.mean, variance=m.variance, skewness=m.skewness,
        excess_kurtosis=m.excess_kurtosis, entropy=math.log(max(1, pairs)),
        distinct_classes=classes, heterogeneous_pairs=pairs, counts=counts,
    )


def _read_pairs(path, headers):
    """The header, stripped and lower-cased, then (lineno, first, second) rows."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = csv.reader(handle)
            header = next(rows, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            header = ",".join(h.strip().lower() for h in header)
            if header not in headers:
                allowed = " or ".join(map(repr, headers))
                raise DataError(f"{path}: header must be {allowed}, got {header!r}")
            yield header
            for lineno, row in enumerate(rows, start=2):
                if len(row) != 2:
                    raise DataError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
                yield lineno, row[0], row[1]
    except csv.Error as exc:
        raise DataError(f"{path}: line {rows.line_num}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_returns_csv(path) -> np.ndarray:
    """The samples of an ``i,value`` file; the index column is not read."""
    pairs = _read_pairs(path, ("i,value",))
    next(pairs)
    values: list[float] = []
    for lineno, _, raw in pairs:
        try:
            values.append(float(raw))
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad value {raw!r}") from None
    if not values:
        raise DataError(f"{path}: no data rows")
    samples = np.asarray(values)
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{path}: line {i + 2}: value {samples[i]} is not finite")
    return samples


def ingest_price_csv(path, tau: int) -> np.ndarray:
    """Log-returns over horizon tau of a ``t,price`` or ``date,price`` file."""
    if tau < 1:
        raise DataError(f"tau must be >= 1, got {tau}")
    pairs = _read_pairs(path, ("t,price", "date,price"))
    numeric_time = next(pairs) == "t,price"
    times: list = []
    prices: list[float] = []
    for lineno, t_raw, p_raw in pairs:
        t_raw, p_raw = t_raw.strip(), p_raw.strip()
        if numeric_time:
            try:
                t_val = float(t_raw)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: bad time value {t_raw!r}") from None
        else:
            if not t_raw:
                raise DataError(f"{path}: line {lineno}: empty date")
            t_val = t_raw
        try:
            price = float(p_raw)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad price value {p_raw!r}") from None
        if not math.isfinite(price) or price <= 0:
            raise DataError(f"{path}: line {lineno}: price must be positive, got {p_raw}")
        if times and not t_val > times[-1]:
            raise DataError(f"{path}: line {lineno}: time index must be strictly increasing")
        times.append(t_val)
        prices.append(price)
    if len(prices) < tau + 1:
        raise DataError(f"{path}: need at least tau+1 = {tau + 1} rows, got {len(prices)}")
    p = np.asarray(prices, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore"):
        samples = np.log(p[tau:] / p[:-tau])
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"{path}: lines {i + 2} and {i + tau + 2}: log-return {samples[i]} is not finite"
        )
    return samples


def closed_form_log_evidence(data, prior) -> float:
    """log of the integral of N(x | mu, sigma2) InvGamma(sigma2 | alpha, beta):
    -n/2 ln(2 pi) + alpha ln(beta) + ln Gamma(a2) - ln Gamma(alpha) - a2 ln(b2),
    with a2 = alpha + n/2 and b2 = beta + S/2 the posterior parameters."""
    n, s = data.n, data.squared_deviation_sum()
    a2, b2 = prior.alpha + n / 2.0, prior.beta + s / 2.0
    return float(-n / 2.0 * math.log(2 * math.pi) + prior.alpha * math.log(prior.beta)
                 + gammaln(a2) - gammaln(prior.alpha) - a2 * math.log(b2))


def _log_integrand(model, data):
    """theta -> log of likelihood * prior, the evidence integrand."""
    gaussian = model.likelihood_kind == GAUSSIAN_KNOWN_MEAN
    loglik = gaussian_variance_loglik if gaussian else exponential_loglik
    a, b = model.prior.alpha, model.prior.beta
    return lambda theta: loglik(data, theta) + _invgamma_log_density(a, b)(theta)


def _integration_domain(model, integrand) -> tuple[float, float]:
    """Prior quantile range, widened until the integrand peak is interior."""
    from scipy.special import gammainccinv
    a, b = model.prior.alpha, model.prior.beta
    with np.errstate(divide="ignore", over="ignore"):
        lo = max(float(1.0 / gammainccinv(a, 1e-10) * b), 1e-300)
        hi = float(1.0 / gammainccinv(a, 1.0 - 1e-10) * b)
    if hi == 0.0:
        raise ConvergenceError(
            f"evidence quadrature for model {model.id!r}: the prior's upper quantile "
            f"underflows to 0, so the domain [{lo!r}, 0.0] is empty"
        )
    if hi == math.inf:
        if lo >= 1e300:
            raise ConvergenceError(
                f"evidence quadrature for model {model.id!r}: the integration domain "
                f"[{lo!r}, inf] is not finite"
            )
        hi = 1e300
    for _ in range(DOMAIN_SCAN_ROUNDS):
        grid = np.geomspace(lo, hi, 513)
        g = integrand(grid)
        gmax = float(g.max())
        grew = False
        if g[0] - gmax > -46.0 and lo > 1e-300:
            lo = max(lo / 8.0, 1e-300)
            grew = True
        if g[-1] - gmax > -46.0 and hi < 1e300:
            hi *= 8.0
            grew = True
        if not grew:
            return lo, hi
    raise ConvergenceError(
        f"evidence quadrature for model {model.id!r}: the integration domain "
        f"[{lo!r}, {hi!r}] still has the integrand peak at an edge after "
        f"{DOMAIN_SCAN_ROUNDS} rounds of widening"
    )


def log_evidence(model, data) -> float:
    """The evidence quadrature evaluated afresh on every grid: doubling
    trapezoid on ``np.linspace`` nodes in u = ln theta."""
    if data.n == 0:
        return 0.0
    integrand = _log_integrand(model, data)
    lo, hi = _integration_domain(model, integrand)
    u_lo, u_hi = np.log(lo), np.log(hi)

    def estimate(nodes: int) -> float:
        u = np.linspace(u_lo, u_hi, nodes)
        theta = np.exp(u)
        g = integrand(theta) + u
        w = np.full(nodes, (u_hi - u_lo) / (nodes - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return _logsumexp(g, w)

    nodes = INITIAL_NODES
    prev = estimate(nodes)
    if not math.isfinite(prev):
        raise ConvergenceError(
            f"evidence quadrature for model {model.id!r}: the first estimate is {prev!r}"
        )
    for doublings in itertools.count(1):
        nodes = 2 * nodes - 1
        cur = estimate(nodes)
        if abs(cur - prev) <= model.rel_tol * max(1.0, abs(cur)):
            return cur
        if 2 * nodes - 1 > MAX_NODES:
            raise ConvergenceError(
                f"evidence quadrature for model {model.id!r} did not converge "
                f"after {doublings} doublings ({nodes} nodes, at most {MAX_NODES}); "
                f"last two estimates {prev!r} and {cur!r}",
                estimates=(prev, cur),
            )
        prev = cur


def exact_mean_posterior(n: int, b: int, t: int) -> float:
    """E[posterior] of one participant after step t of a grain of n with b
    bets per step, which is also the grain's expected mean posterior.

    Each step's pairs are a uniform prefix of a fresh shuffle, so the
    participant bets with probability q = 2b/n, independently across
    steps, and wins each bet with probability 1/2: after t steps it holds
    1 + j wins and k - j losses, k ~ Binomial(t, q) and j ~ Binomial(k,
    1/2).  The totals are W = n + bt and L = bt.
    """
    if t == 0:
        return 1.0
    p_bets = stats.binom.pmf(np.arange(t + 1), t, 2 * b / n)
    # the bet counts left out have probability below t * 1e-20 together
    k = np.flatnonzero(p_bets > 1e-20)[:, None]
    j = np.arange(k.max() + 1)[None, :]
    prob = p_bets[k] * stats.binom.pmf(j, k, 0.5)  # 0 for j > k
    l_w = (1 + j) / (n + b * t)
    l_l = np.maximum(k - j, 0) / (b * t)
    return float(np.sum(prob * l_w / (l_w + l_l)))


def _posterior_law(n: int, b: int, t: int):
    """The posteriors one participant of a grain of n with b bets per step
    can hold after step t, and their probabilities, as two arrays of one
    shape: the law of ``exact_mean_posterior``'s ledger, with each
    posterior from ``betsim.core._posteriors``."""
    p_bets = stats.binom.pmf(np.arange(t + 1), t, 2 * b / n)
    k = np.flatnonzero(p_bets > 1e-20)[:, None]
    j = np.arange(k.max() + 1)[None, :]
    prob = p_bets[k] * stats.binom.pmf(j, k, 0.5)  # 0 for j > k
    return _posteriors(1 + j, np.maximum(k - j, 0), n + b * t, b * t), prob


def exact_pooled_counts(sizes, b: int, t: int, bins: int) -> np.ndarray:
    """Expected pooled histogram after step t of grains of the given sizes
    with b bets per step each: the sum over grains of N_g times the
    probability that one participant's posterior falls in each bin.

    A participant's ledger follows the law of ``exact_mean_posterior``;
    its posterior is binned by ``np.histogram``, so a value on a bin edge
    lands where the package puts it.
    """
    expected = np.zeros(bins)
    for n in sizes:
        posteriors, prob = _posterior_law(n, b, t)
        expected += n * np.histogram(posteriors, bins, (0.0, 1.0), weights=prob)[0]
    return expected


def exact_pooled_excess_kurtosis(sizes, b: int, t: int) -> float:
    """Excess kurtosis of the expected pooled mixture after step t of grains
    of the given sizes with b bets per step each: the law of one
    participant's posterior in each grain, weighted by the grain's size."""
    laws = [_posterior_law(n, b, t) for n in sizes]
    values = np.concatenate([p.ravel() for p, _ in laws])
    weights = np.concatenate([n * w.ravel() for n, (_, w) in zip(sizes, laws)])
    weights /= weights.sum()
    d = values - np.sum(weights * values)
    m2 = np.sum(weights * d**2)
    return float(np.sum(weights * d**4) / m2**2 - 3.0)


BETS = 0  # betsim.rng.BETS, the purpose slot of bet streams
TOPOLOGY = 1  # betsim.rng.TOPOLOGY, the purpose slot of injection and removal streams


def seeded_stream(seed: int, purpose: int, sub: int, step: int) -> np.random.Generator:
    """The generator keyed (seed, purpose, sub, step): PCG64 seeded through
    a SeedSequence on the key tuple."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, purpose, sub, step))))


def array_bet_step(state: EnsembleState, rng: np.random.Generator, bets: int) -> None:
    """Book ``bets`` random bets in place: the leading 2 * bets entries of a
    shuffle of range(n) pair up, and one coin per pair, drawn as an array,
    picks the pair's first index on heads."""
    idx = rng.permutation(state.size)[: 2 * bets]
    heads = rng.integers(0, 2, size=bets) == 0
    state.wins[np.where(heads, idx[0::2], idx[1::2])] += 1
    state.losses[np.where(heads, idx[1::2], idx[0::2])] += 1
    state.total_wins += bets
    state.total_losses += bets


def closed_run(seed: int, n: int, bets: int, steps: int, sub: int = 0, birth: int = 0):
    """A closed population born at step ``birth`` and run ``steps`` steps on
    the bet streams keyed (seed, BETS, sub, t): its snapshots and its
    (steps + 1, n) win and loss ledgers."""
    state = EnsembleState(np.ones(n), np.zeros(n))
    snapshots = [reference_snapshot(state.posteriors(), birth)]
    wins, losses = [state.wins.copy()], [state.losses.copy()]
    for t in range(birth + 1, birth + steps + 1):
        array_bet_step(state, seeded_stream(seed, BETS, sub, t), bets)
        snapshots.append(reference_snapshot(state.posteriors(), t))
        wins.append(state.wins.copy())
        losses.append(state.losses.copy())
    return snapshots, np.array(wins), np.array(losses)


def forced_run(n: int, schedule):
    """A fresh population of n booked through a forced schedule, one list of
    ((i, j), winner) bets per step, in plain Python lists: its win and loss
    ledgers and its posteriors (from ``posterior_win``) at the birth and
    after each step."""
    wins, losses = [1] * n, [0] * n
    rows = []
    for step in [[]] + list(schedule):  # the birth books nothing
        for (i, j), winner in step:
            wins[winner] += 1
            losses[i + j - winner] += 1
        totals = EnsembleTotals(sum(wins), sum(losses))
        posteriors = [posterior_win(BetLedger(w, l), totals) for w, l in zip(wins, losses)]
        rows.append((list(wins), list(losses), posteriors))
    return [list(column) for column in zip(*rows)]


def grain_run(seed: int, sizes, bets, steps: int, bins: int):
    """Grains of the given sizes and per-step bets, none injected or removed:
    each grain's snapshots, the pooled snapshots, and the final ensembles."""
    grains = [EnsembleState(np.ones(size), np.zeros(size)) for size in sizes]
    tracks = [[reference_snapshot(g.posteriors(), 0)] for g in grains]
    pooled = [reference_snapshot(np.concatenate([g.posteriors() for g in grains]), 0, bins)]
    for t in range(1, steps + 1):
        posts = []
        for gid, (grain, b) in enumerate(zip(grains, bets)):
            if b >= 1:
                array_bet_step(grain, seeded_stream(seed, BETS, gid, t), b)
            posts.append(grain.posteriors())
            tracks[gid].append(reference_snapshot(posts[-1], t))
        pooled.append(reference_snapshot(np.concatenate(posts), t, bins))
    return tracks, pooled, grains


@dataclass
class ChurnTrack:
    """One grain of ``churn_run``: its size, birth and death steps (death
    None while it lives) and one snapshot per step it lived."""

    size: int
    birth: int
    death: int | None
    snapshots: list


def churn_run(cfg, bins: int):
    """A dissipative run of ``cfg`` with injection and removal, one step at a
    time: the pooled snapshots and a ``ChurnTrack`` per grain id.

    Each step every living grain books its bets with ``array_bet_step`` on
    the stream keyed (seed, BETS, id, t).  Then, when the run churns, the
    stream keyed (seed, TOPOLOGY, 0, t) draws the injection coin, the
    injected grain's size, the removal coin and, under the ``random``
    policy, the index of the grain to remove; ``closest-to-equilibrium``
    removes the first living grain whose ``np.mean`` posterior is nearest
    0.5.  Every row is summarised with ``reference_snapshot``.
    """
    def bets(size):
        if cfg.bets_per_grain is not None:
            return min(cfg.bets_per_grain, size // 2)
        return int(cfg.bets_fraction * size / 2)

    tracks: dict[int, ChurnTrack] = {}
    living: list[tuple[int, EnsembleState]] = []  # (id, ensemble) in birth order

    def inject(size, t):
        grain = EnsembleState(np.ones(size), np.zeros(size))
        gid = len(tracks)
        tracks[gid] = ChurnTrack(size, t, None, [reference_snapshot(grain.posteriors(), t)])
        living.append((gid, grain))

    def pool(t):
        return reference_snapshot(np.concatenate([g.posteriors() for _, g in living]), t, bins)

    for size in cfg.grain_sizes:
        inject(size, 0)
    pooled = [pool(0)]
    for t in range(1, cfg.steps + 1):
        for gid, grain in living:
            b = bets(grain.size)
            if b >= 1:
                array_bet_step(grain, seeded_stream(cfg.seed, BETS, gid, t), b)
            tracks[gid].snapshots.append(reference_snapshot(grain.posteriors(), t))
        if cfg.injection_prob > 0 or cfg.removal_prob > 0:
            topo = seeded_stream(cfg.seed, TOPOLOGY, 0, t)
            if topo.random() < cfg.injection_prob:
                lo, hi = cfg.injection_size_range
                inject(int(topo.integers(lo, hi + 1)), t)
            if topo.random() < cfg.removal_prob and len(living) > 1:
                if cfg.removal_policy == "oldest":
                    k = 0
                elif cfg.removal_policy == "random":
                    k = int(topo.integers(0, len(living)))
                else:
                    gaps = [abs(float(np.mean(g.posteriors())) - 0.5) for _, g in living]
                    k = gaps.index(min(gaps))
                tracks[living.pop(k)[0]].death = t
        pooled.append(pool(t))
    return pooled, tracks


def same_snapshot(a: MacroSnapshot, b: MacroSnapshot) -> bool:
    """Field for field equality, NaN equal to NaN and counts compared by value."""
    fields = ("step", "mean_posterior", "variance", "skewness", "excess_kurtosis", "entropy",
              "distinct_classes", "heterogeneous_pairs")
    if any(not np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True) for f in fields):
        return False
    if a.counts is None or b.counts is None:
        return a.counts is None and b.counts is None
    return np.array_equal(a.counts, b.counts)


def recorded_run(config, forced_schedule=None):
    """``run_conservative`` with a sink that keeps every block it is handed:
    the trajectory and its (steps + 1, n) win and loss ledgers, the birth
    first.  The blocks must come in step order, each with one posterior
    row per ledger row."""
    blocks = []

    def sink(first, rows, posteriors):
        assert first == sum(len(block) for block in blocks)
        assert posteriors.shape == (len(rows), rows.shape[2])
        blocks.append(rows)

    traj = run_conservative(config, sink, forced_schedule)
    rows = np.concatenate(blocks)
    return traj, rows[:, 0], rows[:, 1]
