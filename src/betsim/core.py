"""Ledger mathematics shared by both simulation regimes.

A market participant ("microstate") carries a ledger of wins and
losses.  Conditional on the ensemble totals and fair marginal odds,
Bayes' rule turns a ledger into a posterior probability of profit.
Macro-level observables (mean posterior, moments, Boltzmann entropy
over heterogeneous pairs) are computed from the posterior population.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Posteriors are exact rationals evaluated in floating point, so ties
# between equal ledgers are near-exact; 1e-9 separates genuine classes.
EPS_CLASS = 1e-9


@dataclass(frozen=True)
class Moments:
    """Population moments of a value collection.

    ``degenerate`` is set when the variance is zero; skewness and
    excess kurtosis are NaN in that case rather than raising.
    """

    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    degenerate: bool


@dataclass(frozen=True)
class MacroSnapshot:
    """Aggregate observables of one posterior population at one step.

    The population is one ensemble, one grain, or every living grain
    pooled together.  ``entropy`` is the Boltzmann entropy (k_B = 1,
    nats) of ``max(1, heterogeneous_pairs)``; skewness and excess
    kurtosis are NaN for a degenerate (zero-variance) population.
    ``counts`` is set only on pooled rows: the posterior histogram over
    fixed-width bins on [0, 1], summing to the pooled population.
    """

    step: int
    mean_posterior: float
    variance: float
    skewness: float
    excess_kurtosis: float
    entropy: float
    distinct_classes: int
    heterogeneous_pairs: int
    counts: np.ndarray | None = None

    @property
    def mean(self) -> float:
        """Alias of ``mean_posterior``."""
        return self.mean_posterior

    @property
    def population(self) -> int:
        """Pooled population size; pooled rows only."""
        return int(self.counts.sum())


class EnsembleState:
    """Mutable, array-backed population of bet ledgers.

    A run owns its state exclusively: it adds bets to ``wins``/``losses``
    in place and to ``total_wins``/``total_losses``, their column sums, so
    the ledgers are checked once, here.  Posteriors are recomputed from
    the ledgers and totals on demand, so they can never drift out of sync.
    """

    __slots__ = ("wins", "losses", "total_wins", "total_losses")

    def __init__(self, wins: Iterable[int], losses: Iterable[int]):
        wins = np.asarray(wins, dtype=np.int64).copy()
        losses = np.asarray(losses, dtype=np.int64).copy()
        if wins.ndim != 1 or wins.shape != losses.shape:
            raise ValueError("wins and losses must be 1-d arrays of equal length")
        if wins.size == 0:
            raise ValueError("ensemble must contain at least one microstate")
        if (wins < 0).any() or (losses < 0).any():
            raise ValueError("ledger counts must be nonnegative")
        if ((wins == 0) & (losses == 0)).any():
            raise ValueError("posterior undefined for an empty ledger (0 wins, 0 losses)")
        self.wins, self.losses = wins, losses
        self.total_wins, self.total_losses = int(wins.sum()), int(losses.sum())
        if self.total_wins < 1:
            raise ValueError("ensemble totals must include at least one win")

    @property
    def size(self) -> int:
        return int(self.wins.size)

    def posteriors(self) -> np.ndarray:
        return _posteriors(self.wins, self.losses, self.total_wins, self.total_losses)


def _posteriors(wins: np.ndarray, losses: np.ndarray, total_wins: int, total_losses: int):
    """Posterior probability of profit for every ledger of one ensemble.

    With fair marginal odds P(win) = P(loss) = 0.5 the marginals cancel
    and each posterior reduces to ``L_w / (L_w + L_l)`` where the
    likelihoods are empirical frequencies ``L_w = wins/total_wins`` and
    ``L_l = losses/total_losses`` over the ensemble's totals.  When the
    ensemble has recorded no losses at all, the loss likelihood is
    defined as 0 and every posterior is 1.  The ledgers are not checked
    here: an ``EnsembleState`` checks them once.
    """
    l_w = wins / total_wins
    if total_losses == 0:
        # loss likelihood defined as 0: every posterior is exactly 1
        return np.ones(wins.shape, dtype=np.float64)
    l_l = losses / total_losses
    return l_w / (l_w + l_l)


def boltzmann_entropy(omega: float) -> float:
    """Boltzmann entropy ln(omega) in nats (k_B normalized to 1)."""
    if omega <= 0:
        raise ValueError(f"entropy undefined for omega <= 0, got {omega}")
    return math.log(omega)


@functools.lru_cache(maxsize=8)
def histogram_edges(bins: int) -> np.ndarray:
    """The ``bins + 1`` edges of ``bins`` fixed-width bins on [0, 1].

    These are the edges ``np.histogram(v, bins, (0.0, 1.0))`` uses.  The
    array is built once per ``bins`` value and returned read-only.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    edges = np.linspace(0.0, 1.0, bins + 1)
    edges.setflags(write=False)
    return edges


def _census(p: np.ndarray, eps: float) -> tuple[int, int]:
    """(distinct classes, heterogeneous pairs) of a sorted population.

    Classes split the sorted values on gaps larger than ``eps``
    (transitive closure of the tolerance relation).  Sorting also
    reduces the pair census to ranks: for each right endpoint r, the
    values p_j < p_r - eps are the first searchsorted(p, p_r - eps) of
    the array, and those are exactly r's heterogeneous partners to its
    left, so the count stays exact in O(N log N) instead of O(N^2).
    """
    if p.size < 2:
        return p.size, 0
    classes = int(np.count_nonzero((p[1:] - p[:-1]) > eps)) + 1
    return classes, int(np.add.reduce(np.searchsorted(p, p - eps, side="left")))


def _sorted_census(posteriors, eps: float) -> tuple[int, int]:
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _census(np.sort(np.asarray(posteriors, dtype=np.float64)), eps)


def distinct_posterior_classes(posteriors: Sequence[float], eps: float = EPS_CLASS) -> int:
    """Count equivalence classes under |p_i - p_j| <= eps clustering."""
    return _sorted_census(posteriors, eps)[0]


def heterogeneous_pair_count(posteriors: Sequence[float], eps: float = EPS_CLASS) -> int:
    """Number of unordered pairs (i, j) with |p_i - p_j| > eps."""
    return _sorted_census(posteriors, eps)[1]


def population_moments(values: Sequence[float]) -> Moments:
    """Population (biased) moments; excess kurtosis = m4/m2^2 - 3.

    A zero-variance population is flagged degenerate with NaN skewness
    and kurtosis rather than raising.  Each moment is the pairwise sum
    ``np.add.reduce`` divided by n, which is what ``np.mean`` computes,
    and each power of the deviations is one product on the previous one.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    if n == 0:
        raise ValueError("moments undefined for an empty collection")
    mean = float(np.add.reduce(v) / n)
    d = v - mean
    d2 = d * d
    m2 = float(np.add.reduce(d2) / n)
    if m2 == 0.0:
        return Moments(mean, 0.0, math.nan, math.nan, True)
    d3 = d2 * d
    m3 = float(np.add.reduce(d3) / n)
    m4 = float(np.add.reduce(d3 * d) / n)
    return Moments(mean, m2, m3 / m2**1.5, m4 / (m2 * m2) - 3.0, False)


def macro_snapshot(
    posteriors: Sequence[float], step: int, bins: int | None = None
) -> MacroSnapshot:
    """Aggregate one posterior population into a snapshot.

    Moments come from the array in its given order; classes and pairs
    (at tolerance ``EPS_CLASS``) from a single sort of it.  With
    ``bins`` set, ``counts`` is the histogram over ``histogram_edges(bins)``
    taken from the same sort: bin k holds the values in
    [edges[k], edges[k + 1]), and the last bin is closed at 1.0, as in
    ``np.histogram``.
    """
    v = np.asarray(posteriors, dtype=np.float64)
    mom = population_moments(v)
    p = np.sort(v)
    classes, pairs = _census(p, EPS_CLASS)
    counts = None
    if bins is not None:
        bounds = np.searchsorted(p, histogram_edges(bins), side="left")
        bounds[-1] = p.size  # the last bin takes 1.0 as well
        counts = np.diff(bounds)
    return MacroSnapshot(
        step=int(step),
        mean_posterior=mom.mean,
        variance=mom.variance,
        skewness=mom.skewness,
        excess_kurtosis=mom.excess_kurtosis,
        entropy=boltzmann_entropy(max(1, pairs)),
        distinct_classes=classes,
        heterogeneous_pairs=pairs,
        counts=counts,
    )
