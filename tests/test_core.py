"""Unit tests for the ledger mathematics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from betsim.core import (
    CENSUS_BATCH_ROWS,
    EPS_CLASS,
    SNAPSHOT_FIELDS,
    EnsembleState,
    MacroSnapshot,
    Snapshots,
    _posteriors,
    distinct_posterior_classes,
    heterogeneous_pair_count,
    macro_snapshot,
)
from betsim.superstat import sample_moments
from oracle import BetLedger, EnsembleTotals, posterior_win, reference_snapshot, same_snapshot
from oracle import population_moments as reference_moments


def _summary(block, first_step, bins=None):
    """A record of capacity 0 with ``block`` added as its rows."""
    record = Snapshots(0, bins)
    record.add(block, first_step)
    return record


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
    many = EnsembleState(w, l).posteriors()
    for i in range(n):
        assert many[i] == pytest.approx(
            posterior_win(BetLedger(int(w[i]), int(l[i])), totals), abs=1e-15
        )


# ---------------------------------------------------------------------------
# configuration counting and entropy

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


def _brute_classes(values, eps):
    # connected components of the graph joining values within eps
    n = len(values)
    label = list(range(n))

    def root(i):
        while label[i] != i:
            i = label[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= eps:
                label[root(i)] = root(j)
    return len({root(i) for i in range(n)})


def _tied_posteriors(rng, n, top):
    # small ledgers: many exact ties, and equal ratios such as 1:1 and
    # 2:2 that meet within an ulp or two
    wins = rng.integers(0, top + 1, n)
    losses = rng.integers(0, top + 1, n)
    losses[(wins == 0) & (losses == 0)] = 1
    wins[0] = max(wins[0], 1)
    return EnsembleState(wins, losses).posteriors()


def test_snapshot_census_matches_brute_force_on_tied_posteriors():
    rng = np.random.default_rng(8)
    arrays = [np.array([0.0, EPS_CLASS, 2 * EPS_CLASS, 0.5, 0.5, 1.0])]  # gaps of exactly eps
    for n in list(range(1, 40)) + [60, 90]:
        arrays += [_tied_posteriors(rng, n, top) for top in (1, 2, 3, 6)]
    for post in arrays:
        snap = macro_snapshot(post, 0)
        values = post.tolist()
        assert snap.heterogeneous_pairs == _brute_pairs(values, EPS_CLASS)
        assert snap.distinct_classes == _brute_classes(values, EPS_CLASS)


# ---------------------------------------------------------------------------
# moments

def test_population_moments_match_reference():
    rng = np.random.default_rng(31)
    x = rng.normal(0.3, 1.7, 500)
    m = sample_moments(x)
    assert m.mean == pytest.approx(float(np.mean(x)))
    assert m.variance == pytest.approx(float(np.var(x)))
    assert m.skewness == pytest.approx(float(stats.skew(x, bias=True)))
    assert m.excess_kurtosis == pytest.approx(float(stats.kurtosis(x, bias=True)))
    assert not m.degenerate


def test_population_moments_degenerate():
    m = sample_moments([0.5, 0.5, 0.5, 0.5])  # it takes 4 values or more
    assert m.degenerate
    assert m.variance == 0.0
    assert math.isnan(m.skewness) and math.isnan(m.excess_kurtosis)


def test_moments_of_a_variance_whose_square_underflows():
    # seven equal values of 3e-80: the mean's rounding leaves a positive
    # variance whose square underflows to 0
    m = sample_moments([3e-80] * 7)
    assert 0.0 < m.variance and m.variance * m.variance == 0.0 and not m.degenerate
    assert math.isfinite(m.skewness) and math.isfinite(m.excess_kurtosis)
    assert dataclasses.astuple(m) == dataclasses.astuple(reference_moments([3e-80] * 7))
    # the ratios do not depend on the scale
    x = np.array([1.0, 2.0, 2.0, 3.0, 10.0])
    tiny, plain = sample_moments(x * 1e-100), sample_moments(x)
    assert tiny.skewness == pytest.approx(plain.skewness, rel=1e-12)
    assert tiny.excess_kurtosis == pytest.approx(plain.excess_kurtosis, rel=1e-12)
    # in a block, such a row sits beside ordinary and degenerate rows
    rows = np.array([[3e-80] * 5, x * 1e-100, x / 10, [0.5] * 5])
    block = _summary(rows, 4)
    assert all(same_snapshot(block[k], reference_snapshot(rows[k], 4 + k)) for k in range(4))


def _moment_inputs(rng, n):
    yield rng.uniform(0.0, 1.0, n)
    yield rng.normal(0.3, 1.7, n)
    yield rng.choice([0.25, 1 / 3, 0.5, 0.75], n)  # ties
    yield np.full(n, 0.3)  # constant
    yield _tied_posteriors(rng, n, 3)
    yield rng.uniform(0.0, 1.0, 2 * n)[::2]  # a strided view


def test_population_moments_equal_the_mean_formulation():
    # a one-row block's moments at any size, and sample_moments from 4 values on
    rng = np.random.default_rng(21)
    for n in list(range(1, 40)) + [150, 225, 425, 750, 1550, 100003]:
        for values in _moment_inputs(rng, n):
            want = dataclasses.astuple(reference_moments(values))
            row = _summary(values.reshape(1, -1), 0)[0]
            got = (row.mean_posterior, row.variance, row.skewness, row.excess_kurtosis,
                   row.variance == 0.0)
            assert np.array_equal(got, want, equal_nan=True), (n, got, want)
            if n >= 4:
                got = dataclasses.astuple(sample_moments(values))
                assert np.array_equal(got, want, equal_nan=True), (n, got, want)


# ---------------------------------------------------------------------------
# ensemble state and snapshots

def test_ensemble_state_validation():
    with pytest.raises(ValueError):
        EnsembleState([], [])
    with pytest.raises(ValueError):
        EnsembleState([1, 2], [0])
    with pytest.raises(ValueError):
        EnsembleState([1, -2], [0, 0])
    with pytest.raises(ValueError, match="at least one win"):
        EnsembleState([0, 0], [1, 2])


def test_ensemble_state_rejects_an_empty_ledger():
    with pytest.raises(ValueError, match="empty ledger"):
        EnsembleState([1, 0, 2], [0, 0, 1])


def test_ensemble_state_carries_its_column_sums():
    state = EnsembleState([1, 2, 1], [2, 0, 1])
    assert (state.total_wins, state.total_losses) == (4, 3)
    assert type(state.total_wins) is int and type(state.total_losses) is int
    assert np.array_equal(state.posteriors(), _posteriors(state.wins, state.losses, 4, 3))


def test_ensemble_state_posteriors_consistent():
    state = EnsembleState([1, 2, 1], [2, 0, 1])
    post = state.posteriors()
    totals = EnsembleTotals(int(state.wins.sum()), int(state.losses.sum()))
    assert totals == EnsembleTotals(4, 3)
    for i in range(state.size):
        ledger = BetLedger(int(state.wins[i]), int(state.losses[i]))
        assert post[i] == pytest.approx(posterior_win(ledger, totals))


def test_posteriors_of_a_block_whose_early_rows_hold_no_loss():
    # the rows of a birth and of two empty steps, then of two steps with bets:
    # per-row totals of 0 losses give exactly 1, and every row is what its
    # ledgers give with int totals, and what the scalar rule gives
    wins = np.array([[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1], [2, 1, 1, 1], [2, 1, 2, 1]])
    losses = np.array([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 1, 0, 1]])
    total_wins, total_losses = wins.sum(axis=1, keepdims=True), losses.sum(axis=1, keepdims=True)
    got = _posteriors(wins, losses, total_wins, total_losses)
    assert got[:3].tolist() == [[1.0] * 4] * 3
    for row, w, l in zip(got, wins, losses):
        totals = EnsembleTotals(int(w.sum()), int(l.sum()))
        assert np.array_equal(row, _posteriors(w, l, totals.total_wins, totals.total_losses))
        assert row.tolist() == [
            posterior_win(BetLedger(int(a), int(b)), totals) for a, b in zip(w, l)
        ]


@pytest.mark.parametrize("t", [0, 1, 7])
def test_posteriors_broadcast_a_grid_of_ledgers(t):
    # the call oracle.exact_pooled_counts makes: a row of win counts against a
    # (bets booked, wins booked) grid of loss counts, with scalar totals
    n, b = 20, 2
    k = np.arange(t + 1)[:, None]
    j = np.arange(t + 1)[None, :]
    losses = np.maximum(k - j, 0)
    got = _posteriors(1 + j, losses, n + b * t, b * t)
    l_w = (1 + j) / (n + b * t)
    l_l = losses / max(b * t, 1)
    assert got.shape == (t + 1, t + 1)
    assert np.array_equal(got, l_w / (l_w + l_l))


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


HISTOGRAM_BINS = list(range(1, 120)) + [127, 200, 333, 500, 999, 1000, 1024, 4096]


def _histogram_inputs(bins, rng):
    edges = np.linspace(0.0, 1.0, bins + 1)
    below = np.nextafter(edges, -np.inf)
    above = np.nextafter(edges, np.inf)
    yield edges
    yield below[below >= 0.0]
    yield above[above <= 1.0]
    yield np.array([0.0, 1.0, 1.0, 0.0])
    yield rng.uniform(0.0, 1.0, 3 * bins + 1)
    yield _tied_posteriors(rng, 2 * bins + 3, 40)


def test_snapshot_counts_equal_numpy_histogram():
    rng = np.random.default_rng(5)
    for bins in HISTOGRAM_BINS:
        for values in _histogram_inputs(bins, rng):
            counts = macro_snapshot(values, 0, bins).counts
            want, _ = np.histogram(values, bins, (0.0, 1.0))
            assert counts.dtype == np.int64
            assert np.array_equal(counts, want), bins


def test_snapshot_without_bins_has_no_counts():
    assert macro_snapshot([0.2, 0.7], 0).counts is None
    with pytest.raises(ValueError, match="bins"):
        macro_snapshot([0.2, 0.7], 0, 0)


# ---------------------------------------------------------------------------
# block summaries and their columnar record


@st.composite
def _posterior_rows(draw, n, bins):
    """One row of n values: values in [0, 1], bin edges and 1.0, all ones,
    one repeated value (zero variance), or runs spaced 0.6 eps apart,
    whose classes span more than eps.  Values are 0 or at least 1e-6, as
    posteriors of ledgers are: a variance whose powers underflow divides
    by zero, in the reference as in the package."""
    edges = np.linspace(0.0, 1.0, (bins or 10) + 1).tolist()
    value = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    kind = draw(st.sampled_from(["values", "ones", "constant", "chain", "chain and values"]))
    if kind == "ones":
        return [1.0] * n
    if kind == "constant":
        return [draw(value)] * n
    values = st.lists(st.one_of(value, st.sampled_from(edges)), min_size=n, max_size=n)
    if kind == "values":
        return draw(values)
    start = draw(st.one_of(st.floats(0.0, 0.9), st.sampled_from(edges[:-1])))
    row = [start + k * 0.6 * EPS_CLASS for k in range(n)]
    if kind == "chain and values":
        row[: n // 2] = draw(values)[: n // 2]
    return draw(st.permutations(row))


@st.composite
def _posterior_blocks(draw):
    """(block, bins): one row up to a block past CENSUS_BATCH_ROWS rows."""
    rows = draw(st.one_of(st.just(1), st.integers(2, CENSUS_BATCH_ROWS + 4)))
    n = draw(st.integers(1, 30))
    bins = draw(st.one_of(st.none(), st.integers(1, 12)))
    return np.array([draw(_posterior_rows(n, bins)) for _ in range(rows)]), bins


@st.composite
def _splits(draw, rows):
    """The row counts of a split of ``rows`` rows into consecutive blocks."""
    cuts = draw(st.sets(st.integers(1, rows - 1), max_size=rows - 1)) if rows > 1 else set()
    bounds = [0, *sorted(cuts), rows]
    return [b - a for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=200, deadline=None)
@given(block_bins=_posterior_blocks(), first=st.integers(0, 10**6), data=st.data())
def test_block_summary_equals_the_reference_summary(block_bins, first, data):
    # any split of the block into consecutive blocks, added to a record of
    # capacity 0, one that fills and doubles, or one reserved for every row,
    # gives the reference rows, with the record's bin count at every row
    block, bins = block_bins
    capacity = data.draw(st.integers(0, len(block)), label="capacity")
    record, start = Snapshots(capacity, bins), 0
    for size in data.draw(_splits(len(block)), label="split"):
        record.add(block[start:start + size], first + start)
        start += size
    assert len(record) == len(block)
    want = [reference_snapshot(row, first + k, bins) for k, row in enumerate(block)]
    assert all(same_snapshot(a, b) for a, b in zip(record, want))
    assert all(same_snapshot(record[k], want[k]) for k in range(-len(block), len(block)))
    assert record.column("step").tolist() == list(range(first, first + len(block)))
    if bins is not None:
        assert all(row.counts.shape == (bins,) for row in record)
        record[0].counts[:] = -1  # a row's counts are its own copy
        assert same_snapshot(record[0], want[0])
    for k in (len(block), -len(block) - 1):
        with pytest.raises(IndexError):
            record[k]
    record.trim()
    assert all(same_snapshot(a, b) for a, b in zip(record, want))


def test_block_census_matches_brute_force_on_tied_posteriors():
    # blocks of equal-length rows take the census from class sizes; a
    # row of 0.6 eps steps has a class that spans more than eps
    rng = np.random.default_rng(9)
    for n in (2, 3, 5, 12, 40):
        rows = [_tied_posteriors(rng, n, top) for top in (1, 2, 3, 6) for _ in range(3)]
        rows.append(0.25 + 0.6 * EPS_CLASS * np.arange(n))
        got = _summary(np.array(rows), 0)
        assert len(rows) >= CENSUS_BATCH_ROWS
        for snap, row in zip(got, rows):
            assert snap.heterogeneous_pairs == _brute_pairs(row.tolist(), EPS_CLASS)
            assert snap.distinct_classes == _brute_classes(row.tolist(), EPS_CLASS)


def test_snapshot_record_keeps_a_column_per_row_field():
    # counts comes last, so a row built from the columns by position takes
    # each value in its own field, with the type its field declares
    fields = dataclasses.fields(MacroSnapshot)
    assert [*SNAPSHOT_FIELDS, "counts"] == [f.name for f in fields]
    record = _summary(np.array([[0.25, 0.5, 1.0]]), 7)
    row = record[0]
    assert same_snapshot(row, reference_snapshot([0.25, 0.5, 1.0], 7))
    for f in fields[:-1]:
        assert type(getattr(row, f.name)).__name__ == f.type
        assert record.column(f.name).dtype == (np.int64 if f.type == "int" else np.float64)
