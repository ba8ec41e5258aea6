"""Reference implementations the tests compare the package against.

``posterior_win`` evaluates the posterior-win rule for one ledger
against explicit ensemble totals, one Python division at a time; the
tests check the vectorized ``betsim.core.posterior_win_many`` against it.
``population_moments`` is the ``np.mean`` formulation of the moments
that ``betsim.core.population_moments`` must reproduce bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from betsim.core import Moments


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
    and kurtosis rather than raising.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("moments undefined for an empty collection")
    mean = float(v.mean())
    d = v - mean
    m2 = float(np.mean(d * d))
    if m2 == 0.0:
        return Moments(mean, 0.0, math.nan, math.nan, True)
    m3 = float(np.mean(d * d * d))
    m4 = float(np.mean(d * d * d * d))
    return Moments(mean, m2, m3 / m2**1.5, m4 / (m2 * m2) - 3.0, False)
