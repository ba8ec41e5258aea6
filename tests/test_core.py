"""Unit tests for the ledger mathematics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from betsim.core import (
    EnsembleState,
    boltzmann_entropy,
    distinct_posterior_classes,
    heterogeneous_pair_count,
    macro_snapshot,
    pair_combination_count,
    population_moments,
    posterior_win_many,
)
from oracle import BetLedger, EnsembleTotals, posterior_win


# ---------------------------------------------------------------------------
# posterior of a single ledger

def test_posterior_no_losses_anywhere_is_one():
    got = posterior_win(BetLedger(3, 0), EnsembleTotals(10, 0))
    assert got == 1.0


def test_posterior_own_losses_zero_is_one():
    got = posterior_win(BetLedger(2, 0), EnsembleTotals(9, 4))
    assert got == 1.0


def test_posterior_no_wins_is_zero():
    assert posterior_win(BetLedger(0, 3), EnsembleTotals(7, 5)) == 0.0


def test_posterior_known_fractions():
    # five-participant worked example: 1 win of 6 total, 1 loss of 1
    assert posterior_win(BetLedger(1, 1), EnsembleTotals(6, 1)) == pytest.approx(1 / 7)
    # later snapshots of the same ledger history
    assert posterior_win(BetLedger(1, 2), EnsembleTotals(8, 3)) == pytest.approx(3 / 19)
    assert posterior_win(BetLedger(2, 3), EnsembleTotals(12, 7)) == pytest.approx(7 / 25)
    assert posterior_win(BetLedger(2, 5), EnsembleTotals(16, 11)) == pytest.approx(11 / 51)


def test_posterior_empty_ledger_rejected():
    with pytest.raises(ValueError, match="empty ledger"):
        posterior_win(BetLedger(0, 0), EnsembleTotals(5, 5))


def test_posterior_totals_must_contain_ledger():
    with pytest.raises(ValueError, match="inconsistent"):
        posterior_win(BetLedger(6, 0), EnsembleTotals(5, 2))
    with pytest.raises(ValueError, match="at least one win"):
        posterior_win(BetLedger(0, 2), EnsembleTotals(0, 4))


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        BetLedger(-1, 0)
    with pytest.raises(ValueError):
        EnsembleTotals(3, -2)


@given(
    wins=st.integers(1, 50),
    losses=st.integers(0, 50),
    extra_w=st.integers(0, 200),
    extra_l=st.integers(1, 200),
)
def test_posterior_monotone_in_ledger(wins, losses, extra_w, extra_l):
    """With totals held fixed, wins help and losses hurt."""
    totals = EnsembleTotals(wins + extra_w + 1, losses + extra_l)
    base = posterior_win(BetLedger(wins, losses), totals)
    assert 0.0 <= base <= 1.0
    more_wins = posterior_win(BetLedger(wins + 1, losses), totals)
    assert more_wins >= base
    if losses + 1 <= totals.total_losses:
        more_losses = posterior_win(BetLedger(wins, losses + 1), totals)
        assert more_losses <= base


@given(
    wins=st.lists(st.integers(0, 30), min_size=1, max_size=40),
    losses=st.lists(st.integers(0, 30), min_size=1, max_size=40),
)
def test_vectorized_matches_scalar(wins, losses):
    n = min(len(wins), len(losses))
    w = np.array(wins[:n])
    l = np.array(losses[:n])
    # avoid empty ledgers, and guarantee at least one win in the totals
    w[w + l == 0] = 1
    if w.sum() == 0:
        w[0] = 1
    totals = EnsembleTotals(int(w.sum()), int(l.sum()))
    many = posterior_win_many(w, l)
    for i in range(n):
        assert many[i] == pytest.approx(
            posterior_win(BetLedger(int(w[i]), int(l[i])), totals), abs=1e-15
        )


def test_vectorized_rejects_empty_ledger():
    with pytest.raises(ValueError, match="empty ledger"):
        posterior_win_many(np.array([1, 0]), np.array([2, 0]))


# ---------------------------------------------------------------------------
# configuration counting and entropy

def test_pair_combination_small_case():
    # 5 states, pairs of 2: C(5,2) + C(3,2) = 10 + 3
    assert pair_combination_count(5, 2) == 13


def test_pair_combination_no_extra_term_when_remainder_small():
    # N - k <= 2 leaves no room for a second disjoint pair
    assert pair_combination_count(4, 2) == 6
    assert pair_combination_count(3, 2) == 3


def test_pair_combination_large_arguments_exact():
    n = 10_000
    got = pair_combination_count(n, 2)
    assert got == math.comb(n, 2) + math.comb(n - 2, 2)


def test_pair_combination_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pair_combination_count(2, 3)
    with pytest.raises(ValueError):
        pair_combination_count(5, 0)


def test_boltzmann_entropy_values():
    assert boltzmann_entropy(1) == 0.0
    assert boltzmann_entropy(13) == pytest.approx(math.log(13))
    with pytest.raises(ValueError):
        boltzmann_entropy(0)


def test_ensemble_entropy_floors_at_zero():
    # fully homogeneous population: no heterogeneous pairs, entropy 0
    assert macro_snapshot([0.5, 0.5, 0.5], 0).entropy == 0.0


# ---------------------------------------------------------------------------
# posterior population census

def _brute_pairs(values, eps):
    n = len(values)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if abs(values[i] - values[j]) > eps
    )


@settings(max_examples=200)
@given(
    values=st.lists(
        st.floats(0.0, 1.0, allow_nan=False, width=32), min_size=0, max_size=60
    ),
    eps=st.sampled_from([1e-9, 1e-3, 0.05, 0.2]),
)
def test_heterogeneous_pairs_match_brute_force(values, eps):
    assert heterogeneous_pair_count(values, eps) == _brute_pairs(values, eps)


def test_distinct_classes_counts_gap_splits():
    assert distinct_posterior_classes([]) == 0
    assert distinct_posterior_classes([0.4]) == 1
    assert distinct_posterior_classes([0.4, 0.4 + 1e-12, 0.7]) == 2
    assert distinct_posterior_classes([0.1, 0.2, 0.3], eps=0.15) == 1


@given(values=st.lists(st.floats(0.0, 1.0, allow_nan=False, width=32), min_size=1, max_size=40))
def test_census_permutation_invariant(values):
    shuffled = list(reversed(values))
    assert heterogeneous_pair_count(values) == heterogeneous_pair_count(shuffled)
    assert distinct_posterior_classes(values) == distinct_posterior_classes(shuffled)
    assert 1 <= distinct_posterior_classes(values) <= len(values)


# ---------------------------------------------------------------------------
# moments

def test_population_moments_match_reference():
    rng = np.random.default_rng(31)
    x = rng.normal(0.3, 1.7, 500)
    m = population_moments(x)
    assert m.mean == pytest.approx(float(np.mean(x)))
    assert m.variance == pytest.approx(float(np.var(x)))
    assert m.skewness == pytest.approx(float(stats.skew(x, bias=True)))
    assert m.excess_kurtosis == pytest.approx(float(stats.kurtosis(x, bias=True)))
    assert not m.degenerate


def test_population_moments_degenerate():
    m = population_moments([0.5, 0.5, 0.5])
    assert m.degenerate
    assert m.variance == 0.0
    assert math.isnan(m.skewness) and math.isnan(m.excess_kurtosis)


# ---------------------------------------------------------------------------
# ensemble state and snapshots

def test_ensemble_state_validation():
    with pytest.raises(ValueError):
        EnsembleState([], [])
    with pytest.raises(ValueError):
        EnsembleState([1, 2], [0])
    with pytest.raises(ValueError):
        EnsembleState([1, -2], [0, 0])


def test_ensemble_state_posteriors_consistent():
    state = EnsembleState([1, 2, 1], [2, 0, 1])
    post = state.posteriors()
    totals = EnsembleTotals(int(state.wins.sum()), int(state.losses.sum()))
    assert totals == EnsembleTotals(4, 3)
    for i in range(state.size):
        ledger = BetLedger(int(state.wins[i]), int(state.losses[i]))
        assert post[i] == pytest.approx(posterior_win(ledger, totals))


def test_macro_snapshot_aggregates():
    state = EnsembleState([1, 2, 1, 3], [2, 0, 1, 1])
    post = state.posteriors()
    snap = macro_snapshot(post, step=7)
    assert snap.step == 7
    assert snap.mean_posterior == pytest.approx(float(post.mean()))
    assert snap.heterogeneous_pairs == _brute_pairs(list(post), 1e-9)
    assert snap.entropy == pytest.approx(
        math.log(max(1, snap.heterogeneous_pairs))
    )
    assert snap.distinct_classes == distinct_posterior_classes(post)
