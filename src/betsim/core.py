"""Ledger mathematics shared by both simulation regimes.

A market participant ("microstate") carries a ledger of wins and
losses.  Conditional on the ensemble totals and fair marginal odds,
Bayes' rule turns a ledger into a posterior probability of profit.
Macro-level observables (mean posterior, moments, Boltzmann entropy
over heterogeneous pairs) are computed from the posterior population,
a block of steps at a time, and kept as columns.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

# Posteriors are exact rationals evaluated in floating point, so ties
# between equal ledgers are near-exact; 1e-9 separates genuine classes.
EPS_CLASS = 1e-9
# blocks of at least this many rows take the census from class sizes, which
# costs 20-30 us for any block of up to 8 rows of 60 to 750 values; counted
# one by one, each row costs 7-12 us
CENSUS_BATCH_ROWS = 3


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
    Runs keep their snapshots as the columns of a ``Snapshots`` record,
    whose rows are these.
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


def _posteriors(wins: np.ndarray, losses: np.ndarray, total_wins, total_losses):
    """Posterior probability of profit for every ledger of one ensemble.

    With fair marginal odds P(win) = P(loss) = 0.5 the marginals cancel
    and each posterior reduces to ``L_w / (L_w + L_l)`` where the
    likelihoods are empirical frequencies ``L_w = wins/total_wins`` and
    ``L_l = losses/total_losses`` over the ensemble's totals.  An ensemble
    that has recorded no losses at all holds only zero loss counts, which
    are divided by 1: the loss likelihood is 0, and every posterior is
    ``L_w / L_w``, exactly 1.  The ledgers are not checked here: an
    ``EnsembleState`` checks them once.

    The totals are ints, or for a block of ledger rows, one ``(rows, 1)``
    column each; a row's values are then the ones its ledgers give with
    its own totals, bit for bit.
    """
    l_w = wins / total_wins
    l_l = losses / np.maximum(total_losses, 1)
    l_l += l_w  # l_w + l_l: IEEE addition commutes
    return np.divide(l_w, l_l, out=l_l)


@functools.lru_cache(maxsize=8)
def histogram_edges(bins: int) -> np.ndarray:
    """The ``bins + 1`` edges of ``bins`` fixed-width bins on [0, 1].

    These are the edges ``np.histogram(v, bins, (0.0, 1.0))`` uses.  The
    array is built once per ``bins`` value and returned read-only.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    # past the largest possible array: np.linspace fails on an empty one from 2**63 - 3 on
    if (bins + 1) * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"{bins} bins: the float64 edges exceed the largest possible array")
    edges = np.linspace(0.0, 1.0, bins + 1)
    edges.setflags(write=False)
    return edges


def _row_census(p: np.ndarray, eps: float) -> tuple[int, int]:
    """(distinct classes, heterogeneous pairs) of one sorted row, exactly.

    Classes split the row on gaps larger than ``eps`` (transitive
    closure of the tolerance relation).  Sorting reduces the pair census
    to ranks: for each value p_r, the values p_j < p_r - eps are the
    first searchsorted(p, p_r - eps) of the row, and those are exactly
    r's heterogeneous partners to its left.
    """
    if p.size < 2:
        return p.size, 0
    classes = int(np.count_nonzero((p[1:] - p[:-1]) > eps)) + 1
    return classes, int(np.add.reduce(np.searchsorted(p, p - eps, side="left")))


def _census(p: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(distinct classes, heterogeneous pairs) of each row of a row-sorted block.

    A block of fewer than ``CENSUS_BATCH_ROWS`` rows is counted row by
    row.  A larger one is counted in one pass from its class sizes, as
    C(N, 2) minus each class's C(c, 2).  That is ``_row_census``'s count
    for every row whose classes each lie within eps of their largest
    value (the first value is not below last - eps) and clear of the
    previous class (its last value is below first - eps): each value's
    partners to its left are then exactly the earlier classes.  Any
    other row is counted by ``_row_census``.
    """
    rows, n = p.shape
    if rows < CENSUS_BATCH_ROWS:
        classes, pairs = zip(*(_row_census(row, eps) for row in p))
        return np.array(classes), np.array(pairs)
    flat = p.reshape(-1)
    starts = np.empty(flat.size, dtype=bool)
    starts[1:] = (flat[1:] - flat[:-1]) > eps
    starts[::n] = True  # every row starts a class
    first = np.flatnonzero(starts)  # flat index of each class's first value
    ends = np.empty_like(first)  # and one past its last
    ends[:-1] = first[1:]
    ends[-1] = flat.size
    classes = np.bincount(first // n, minlength=rows)
    offsets = np.cumsum(classes) - classes  # each row's first class
    lo, hi = flat[first], flat[ends - 1]
    clear = np.empty(first.size, dtype=bool)
    clear[1:] = hi[:-1] < lo[1:] - eps
    clear[offsets] = True  # a row's first class has no previous class
    fits = (lo >= hi - eps) & clear
    sizes = ends - first
    pairs = n * (n - 1) // 2 - np.add.reduceat(sizes * (sizes - 1) // 2, offsets)
    for r in np.flatnonzero(~np.logical_and.reduceat(fits, offsets)).tolist():
        pairs[r] = _row_census(p[r], eps)[1]
    return classes, pairs


def _sorted_census(posteriors, eps: float) -> tuple[int, int]:
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _row_census(np.sort(np.asarray(posteriors, dtype=np.float64).reshape(-1)), eps)


def distinct_posterior_classes(posteriors: Sequence[float], eps: float = EPS_CLASS) -> int:
    """Count equivalence classes under |p_i - p_j| <= eps clustering."""
    return _sorted_census(posteriors, eps)[0]


def heterogeneous_pair_count(posteriors: Sequence[float], eps: float = EPS_CLASS) -> int:
    """Number of unordered pairs (i, j) with |p_i - p_j| > eps."""
    return _sorted_census(posteriors, eps)[1]


def _means(v: np.ndarray):
    """The mean of a row, or of each row of a 2-d block, as ``np.mean``
    computes it."""
    return np.add.reduce(v, axis=-1) / v.shape[-1]


def _moments(v: np.ndarray):
    """Population moments of each row of a 2-d block: mean and variance
    as arrays, skewness and excess kurtosis as lists (NaN where the
    variance is zero).

    Each moment is the pairwise sum ``np.add.reduce`` along the row
    divided by n, which is what ``np.mean`` computes on the row, and each
    power of the deviations is one product on the previous one.  The
    ratios are taken in Python floats, whose power and division differ
    from numpy's array loops in the last bit.  A row whose variance is
    positive but so small that its square underflows to 0 takes its
    ratios from ``_scaled_ratios`` instead.
    """
    n = v.shape[1]
    mean = _means(v)
    d = v - mean[:, None]
    dk = d * d
    m2 = np.add.reduce(dk, axis=1) / n
    s3 = np.add.reduce(np.multiply(dk, d, out=dk), axis=1).tolist()
    s4 = np.add.reduce(np.multiply(dk, d, out=dk), axis=1).tolist()
    skewness, kurtosis = [], []
    for r, (a2, b3, b4) in enumerate(zip(m2.tolist(), s3, s4)):
        if a2 == 0.0:
            skewness.append(math.nan)
            kurtosis.append(math.nan)
        elif a2 * a2 == 0.0:
            skew, kurt = _scaled_ratios(d[r])
            skewness.append(skew)
            kurtosis.append(kurt)
        else:
            skewness.append(b3 / n / a2**1.5)
            kurtosis.append(b4 / n / (a2 * a2) - 3.0)
    return mean, m2, skewness, kurtosis


def _scaled_ratios(d: np.ndarray) -> tuple[float, float]:
    """Skewness and excess kurtosis of one row of deviations, taken from the
    deviations divided by their largest magnitude: the ratios do not change
    with the scale, and the powers of the scaled deviations do not underflow."""
    n = d.size
    e = d / np.max(np.abs(d))
    ek = e * e
    m2 = float(np.add.reduce(ek)) / n
    m3 = float(np.add.reduce(np.multiply(ek, e, out=ek))) / n
    m4 = float(np.add.reduce(np.multiply(ek, e, out=ek))) / n
    return m3 / m2**1.5, m4 / (m2 * m2) - 3.0


# the fields of MacroSnapshot that Snapshots keeps as one column each, in
# order, and those of them typed int (annotations are strings here)
SNAPSHOT_FIELDS = tuple(f.name for f in fields(MacroSnapshot) if f.name != "counts")
_INT_FIELDS = tuple(f.name for f in fields(MacroSnapshot) if f.type == "int")


def _resized(a: np.ndarray, rows: int) -> np.ndarray:
    """A copy of ``a`` with ``rows`` rows: its leading rows, then unset ones."""
    out = np.empty((rows,) + a.shape[1:], dtype=a.dtype)
    keep = min(rows, len(a))
    out[:keep] = a[:keep]
    return out


class Snapshots:
    """The snapshots of one population, one array per ``MacroSnapshot`` field.

    Pooled records also keep their histogram counts, as one ``(rows,
    bins)`` array.  Rows are appended a block at a time with ``extend``;
    the arrays are sized for ``capacity`` rows and double when a block
    does not fit.  ``len``, iteration and indexing (negative indices
    too) give ``MacroSnapshot`` rows, and ``column`` gives one field of
    every row.
    """

    __slots__ = ("_columns", "_counts", "_rows")

    def __init__(self, capacity: int = 0, bins: int | None = None):
        self._columns = [
            np.empty(capacity, dtype=np.int64 if name in _INT_FIELDS else np.float64)
            for name in SNAPSHOT_FIELDS
        ]
        self._counts = None if bins is None else np.empty((capacity, bins), dtype=np.int64)
        self._rows = 0

    @classmethod
    def _of(cls, columns: list[np.ndarray], counts: np.ndarray | None) -> "Snapshots":
        """A record of exactly the rows of these columns."""
        record = cls.__new__(cls)
        record._columns, record._counts, record._rows = columns, counts, len(columns[0])
        return record

    def __len__(self) -> int:
        return self._rows

    def __getitem__(self, k: int) -> MacroSnapshot:
        n = self._rows
        if not -n <= k < n:
            raise IndexError(f"snapshot {k} out of range for {n} snapshots")
        k %= n
        counts = None if self._counts is None else self._counts[k].copy()
        return MacroSnapshot(*(c[k].item() for c in self._columns), counts=counts)

    def __iter__(self):
        counts = self._counts
        rows = zip(*(c[: self._rows].tolist() for c in self._columns))
        for k, row in enumerate(rows):
            yield MacroSnapshot(*row, counts=None if counts is None else counts[k].copy())

    def column(self, name: str) -> np.ndarray:
        """One field of every row, as a read-only view of the record."""
        view = self._columns[SNAPSHOT_FIELDS.index(name)][: self._rows]
        view.setflags(write=False)
        return view

    def extend(self, block: "Snapshots") -> None:
        """Append the rows of ``block``, which the record may keep as its own
        arrays: no row of a block is written after it is made."""
        n, m = self._rows, block._rows
        if n == 0 and m > len(self._columns[0]):
            self._columns, self._counts, self._rows = list(block._columns), block._counts, m
            return
        if n + m > len(self._columns[0]):
            self._reserve(max(n + m, 2 * len(self._columns[0])))
        for mine, new in zip(self._columns, block._columns):
            mine[n:n + m] = new
        if self._counts is not None:
            self._counts[n:n + m] = block._counts
        self._rows = n + m

    def trim(self) -> None:
        """Release the room reserved for rows that were never appended."""
        if len(self._columns[0]) > self._rows:
            self._reserve(self._rows)

    def _reserve(self, rows: int) -> None:
        self._columns = [_resized(c, rows) for c in self._columns]
        if self._counts is not None:
            self._counts = _resized(self._counts, rows)


def block_snapshots(posteriors: np.ndarray, first_step: int, bins: int | None = None) -> Snapshots:
    """Summarise a block of posterior populations, one row per step.

    Row k of the ``(steps, N)`` array ``posteriors`` is the population at
    step ``first_step + k``.  Moments come from each row in its given
    order; classes and pairs (at tolerance ``EPS_CLASS``) from one sort
    of the block along its rows.  With ``bins`` set, each row's counts
    are its histogram over ``histogram_edges(bins)``, taken from the same
    sort: bin k holds the values in [edges[k], edges[k + 1]), and the
    last bin is closed at 1.0, as in ``np.histogram``.
    """
    v = np.asarray(posteriors, dtype=np.float64)
    steps, n = v.shape
    if n == 0:
        raise ValueError("moments undefined for an empty collection")
    mean, variance, skewness, kurtosis = _moments(v)
    p = np.sort(v, axis=1)
    classes, pairs = _census(p, EPS_CLASS)
    entropy = [math.log(max(1, x)) for x in pairs.tolist()]  # Boltzmann's, k_B = 1
    counts = None
    if bins is not None:
        edges = histogram_edges(bins)
        bounds = np.empty((steps, bins + 1), dtype=np.int64)
        for k in range(steps):
            bounds[k] = np.searchsorted(p[k], edges, side="left")
        bounds[:, -1] = n  # the last bin takes 1.0 as well
        counts = bounds[:, 1:] - bounds[:, :-1]
    return Snapshots._of([
        np.arange(first_step, first_step + steps, dtype=np.int64), mean, variance,
        np.array(skewness), np.array(kurtosis), np.array(entropy), classes, pairs,
    ], counts)


def macro_snapshot(
    posteriors: Sequence[float], step: int, bins: int | None = None
) -> MacroSnapshot:
    """Aggregate one posterior population into a snapshot: the one-row
    case of ``block_snapshots``."""
    v = np.asarray(posteriors, dtype=np.float64).reshape(1, -1)
    return block_snapshots(v, step, bins)[0]
