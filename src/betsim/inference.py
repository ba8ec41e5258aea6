"""Bayesian machinery for volatility models.

Likelihoods (Gaussian with known mean, exponential), the conjugate
inverse-gamma update for the Gaussian variance, marginal likelihood
("evidence") by adaptive log-space quadrature, posterior model
probabilities, and model selection.  Everything runs in log space
with log-sum-exp: linear-space densities underflow once n reaches the
thousands.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError
from .superstat import _invgamma_log_density

GAUSSIAN_KNOWN_MEAN = "gaussian-known-mean"
EXPONENTIAL = "exponential"
LIKELIHOOD_KINDS = (GAUSSIAN_KNOWN_MEAN, EXPONENTIAL)
INITIAL_NODES = 129  # nodes of the evidence quadrature's first grid
# the largest grid the quadrature may build: 128 * 2**13 + 1 nodes, 13
# doublings, about 8 MB per float64 array it evaluates on the grid
MAX_NODES = 1_048_577
DOMAIN_SCAN_ROUNDS = 200  # each round widens an edge of the domain by 8x


@dataclass(frozen=True)
class InvGammaParams:
    """Inverse-gamma hyperparameters (shape alpha, scale beta)."""

    alpha: float
    beta: float

    def __post_init__(self):
        # not x > 0 rejects NaN; an infinite beta, which a conjugate update
        # can produce, stays accepted
        if not self.alpha > 0 or not self.beta > 0:
            raise ValueError(f"alpha and beta must be positive, got {self!r}")


class DataSet:
    """Sufficient statistics of samples with a known mean mu.

    The samples are read once, here, and not kept: the likelihoods read
    only n, S = sum (x - mu)^2, sum x and whether every sample is
    positive.  A sum that overflows raises ValueError only when used.
    """

    __slots__ = ("n", "mu", "all_positive", "_squared_deviation_sum", "_sample_sum")

    def __init__(self, samples, mu: float = 0.0):
        v = np.asarray(samples, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.isfinite(v).all():
            raise ValueError("samples must be finite")
        if not np.isfinite(mu):
            raise ValueError("mu must be finite")
        self.n = int(v.size)
        self.mu = float(mu)
        self.all_positive = bool((v > 0).all())
        with np.errstate(over="ignore"):
            # x - 0.0 is x, bit for bit: skip the n-sized copy, unless the
            # samples are strided, which BLAS would sum in another order
            d = v if self.mu == 0.0 and v.flags.c_contiguous else v - self.mu
            self._squared_deviation_sum = float(d @ d)
            self._sample_sum = float(v.sum())

    def squared_deviation_sum(self) -> float:
        """S = sum (x - mu)^2; raises ValueError when it overflows."""
        if not math.isfinite(self._squared_deviation_sum):
            raise ValueError("the sum of squared deviations overflows the float range")
        return self._squared_deviation_sum

    def sample_sum(self) -> float:
        """sum x; raises ValueError when it overflows."""
        if not math.isfinite(self._sample_sum):
            raise ValueError("the sum of the samples overflows the float range")
        return self._sample_sum

    def __repr__(self):
        return f"DataSet(n={self.n}, mu={self.mu})"


@dataclass(frozen=True)
class ModelSpec:
    """One candidate model: likelihood kind, prior, quadrature tolerance.

    The evidence quadrature starts on a grid of ``INITIAL_NODES`` nodes;
    each refinement doubles the interval count, evaluating the integrand
    only at the new midpoints, until two estimates agree within
    ``rel_tol``, and never past ``MAX_NODES`` nodes.
    """

    id: str
    likelihood_kind: str
    prior: InvGammaParams
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.likelihood_kind not in LIKELIHOOD_KINDS:
            raise ValueError(
                f"likelihood_kind must be one of {LIKELIHOOD_KINDS}, got {self.likelihood_kind!r}"
            )
        if not self.rel_tol > 0:  # NaN too: it would refine to MAX_NODES
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class ModelPosterior:
    """Evidence and posterior probability of one model."""

    model_id: str
    prior_prob: float
    log_evidence: float
    posterior_prob: float


@dataclass(frozen=True)
class ModelChoice:
    """Selection outcome: ``best`` is None when models are tied."""

    best: int | None
    tied: tuple[int, ...]


def _gaussian_factors(sigma2):
    """The Gaussian likelihood's factors that depend only on sigma2:
    ln(2 pi sigma2) and 2 sigma2."""
    return np.log(2.0 * np.pi * sigma2), 2.0 * sigma2


def _gaussian_loglik(n: int, s: float, log_2pi_sigma2, two_sigma2):
    """-(n/2) ln(2 pi sigma2) - S / (2 sigma2) from ``_gaussian_factors``."""
    return -0.5 * n * log_2pi_sigma2 - s / two_sigma2


def _exponential_factors(theta):
    """The exponential likelihood's factors that depend only on theta:
    ln theta and theta."""
    return np.log(theta), theta


def _exponential_loglik(n: int, total: float, log_theta, theta):
    """n ln(theta) - theta * sum x from ``_exponential_factors``."""
    return n * log_theta - theta * total


def _positive_sample_sum(data: DataSet) -> float:
    """sum x of samples that must all be strictly positive."""
    if not data.all_positive:
        raise ValueError("exponential likelihood requires strictly positive samples")
    return data.sample_sum()


# likelihood kind -> (theta -> its two factors, the log-likelihood from n,
# the data statistic and the factors, data -> that statistic, checked)
_LIKELIHOODS = {
    GAUSSIAN_KNOWN_MEAN: (_gaussian_factors, _gaussian_loglik, DataSet.squared_deviation_sum),
    EXPONENTIAL: (_exponential_factors, _exponential_loglik, _positive_sample_sum),
}


def gaussian_variance_loglik(data: DataSet, sigma2):
    """Log-likelihood of a known-mean Gaussian at variance sigma2:
    -(n/2) ln(2 pi sigma2) - S / (2 sigma2) with S = sum (x - mu)^2.

    The normalization constant is kept: the evidence integral needs
    absolute values.  ``sigma2`` may be a scalar or an array.
    """
    s2 = np.asarray(sigma2, dtype=np.float64)
    if (s2 <= 0).any():
        raise ValueError("sigma2 must be positive")
    s = data.squared_deviation_sum()
    # 2 pi sigma2 overflows for sigma2 above about 2.9e307: the result is -inf
    with np.errstate(over="ignore"):
        out = _gaussian_loglik(data.n, s, *_gaussian_factors(s2))
    return float(out) if np.isscalar(sigma2) else out


def exponential_loglik(data: DataSet, theta):
    """Log-likelihood of i.i.d. Exponential(rate theta) samples:
    n ln(theta) - theta * sum x.  Samples must be strictly positive.
    """
    th = np.asarray(theta, dtype=np.float64)
    if (th <= 0).any():
        raise ValueError("theta must be positive")
    total = _positive_sample_sum(data)
    with np.errstate(over="ignore"):  # theta * sum x may overflow: the result is -inf
        out = _exponential_loglik(data.n, total, *_exponential_factors(th))
    return float(out) if np.isscalar(theta) else out


def conjugate_variance_posterior(prior: InvGammaParams, data: DataSet) -> InvGammaParams:
    """Closed-form update: InvGamma(alpha + n/2, beta + S/2)."""
    return InvGammaParams(prior.alpha + data.n / 2.0, prior.beta + data.squared_deviation_sum() / 2.0)


def _logsumexp(a, b=None) -> float:
    """log(sum(b * exp(a))) of 1-D float64 arrays, bit for bit
    ``scipy.special.logsumexp`` of scipy 1.17.1, without its array-API
    dispatch.

    The max-split algorithm of Blanchard, Higham & Higham (IMA J. Numer.
    Anal. 2021): zero weights drop their entries, the maximal entries
    are split off with total weight m, and the result is
    log1p(s / m) + log(m) + max, NaN for a negative sum.  Only when that
    is not finite does the direct log(sum(b * exp(a))) stand instead.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _logsumexp_unguarded(a, np.ones_like(a) if b is None else b)


def _logsumexp_unguarded(a, b) -> float:
    """``_logsumexp`` under the caller's ``np.errstate``, which must ignore
    divide, invalid and over."""
    kept = np.where(b == 0, -np.inf, a)
    a_max = kept.max()
    top = kept == a_max
    m = (b * top).sum()
    # scipy leaves s = 0 undivided; dividing it gives 0 again, or a
    # non-finite result that the direct sum below replaces anyway
    s = (b * np.exp(np.where(top, -np.inf, kept) - a_max)).sum() / m
    out = np.log1p(-s - 2 if s < -1 else s) + np.log(np.abs(m)) + a_max
    # scipy's NaN for a negative sum is not finite either
    if np.sign(s + 1) * np.sign(m) < 0 or not np.isfinite(out):
        out = np.log((b * np.exp(a)).sum())
    return float(out)


# the level of the domain scan's 513-node table
_SCAN = -1
# levels of at most this many nodes are tabled; the finer ones, which only
# a climb toward MAX_NODES reaches, are built for the call and dropped
_TABLED_NODES = 65_537
# the most node tables kept
_NODE_TABLES = 32


class _NodeTable(NamedTuple):
    """The evidence integrand's terms that depend only on the node theta,
    as read-only arrays."""

    u: np.ndarray | None        # ln theta, the Jacobian term; None on the scan
    weights: np.ndarray | None  # trapezoid weights of the level's whole grid; None on the scan
    prior: np.ndarray           # the prior's log-density
    f1: np.ndarray              # ln(2 pi theta) or ln theta, by likelihood kind
    f2: np.ndarray              # 2 theta or theta


def _level_nodes(level: int) -> int:
    """Nodes of the grid at ``level`` doublings from ``INITIAL_NODES``."""
    return (INITIAL_NODES - 1) * 2**level + 1


def _build_node_table(kind: str, alpha: float, beta: float, lo: float, hi: float,
                      level: int) -> _NodeTable:
    """The node table of a likelihood kind and prior on [lo, hi].

    ``_SCAN`` is the domain scan's ``_scan_grid(lo, hi)``, in theta.  Level
    0 is ``np.linspace(ln lo, ln hi, INITIAL_NODES)`` in u = ln theta, and
    level k the nodes a doubling adds, ``_midpoints`` of the grid of
    ``_level_nodes(k)``, with that whole grid's weights.
    """
    if level == _SCAN:
        theta, u, weights = _scan_grid(lo, hi), None, None
    else:
        u_lo, u_hi = np.log(lo), np.log(hi)
        nodes = _level_nodes(level)
        # contiguous: numpy's SIMD exp and log may round strided input otherwise
        u = np.linspace(u_lo, u_hi, nodes) if level == 0 else _midpoints(u_lo, u_hi, nodes)
        theta = np.exp(u)
        weights = np.full(nodes, (u_hi - u_lo) / (nodes - 1))
        weights[0] *= 0.5
        weights[-1] *= 0.5
    factors = _LIKELIHOODS[kind][0]
    table = _NodeTable(u, weights, _invgamma_log_density(alpha, beta)(theta), *factors(theta))
    for a in table:
        if a is not None:
            a.flags.writeable = False
    return table


@functools.lru_cache(maxsize=_NODE_TABLES)
def _node_table(kind: str, alpha: float, beta: float, lo: float, hi: float,
                level: int) -> _NodeTable:
    """``_build_node_table``, cached on its arguments.

    Evidences of one likelihood kind and prior mostly land on one domain
    (the ``evidence`` benchmark's 462 per pass, 1e4 to 1e7 samples under
    InvGamma(3, 2), all land on [0.0686, 2370.76]), so they share their
    tables.  Only levels of at most ``_TABLED_NODES`` nodes come here.
    A level of N nodes holds about 24 N bytes (u, the prior and the
    factors at its N/2 new nodes, the weights at all N).  So an entry
    holds at most 1,572,872 bytes, at 65,537 nodes, and the
    ``_NODE_TABLES`` entries at most about 50.3 MB.  One kind, prior and
    domain climbing to 32,769 nodes keeps about 1.6 MB, and a climb to
    the node cap about 3.2 MB.  The arrays are read-only and an entry
    never changes once built, so threads share them safely.
    """
    return _build_node_table(kind, alpha, beta, lo, hi, level)


def _prior_range(model: ModelSpec) -> tuple[float, float]:
    """The prior's [1e-10, 1-1e-10] quantile range, where the domain scan
    starts, under the caller's ``np.errstate``, which must ignore divide
    and over.  Raises :class:`ConvergenceError` when it is empty or not
    finite.
    """
    from scipy.special import gammainccinv  # deferred: scipy is slow to import
    a, b = model.prior.alpha, model.prior.beta
    # inverse-gamma quantile q: b / Q^-1(a, q), Q the upper regularized
    # incomplete gamma function.  Q^-1 underflows for a shape below about
    # 0.03, and b / Q^-1 overflows for a scale near the float maximum; hi
    # then starts at the ceiling, unless lo is past it as well
    lo = max(float(1.0 / gammainccinv(a, 1e-10) * b), 1e-300)
    hi = float(1.0 / gammainccinv(a, 1.0 - 1e-10) * b)
    if hi == 0.0:  # b / Q^-1 underflows for a shape near the float maximum and a tiny scale
        raise ConvergenceError(f"evidence quadrature for model {model.id!r}: the prior's upper "
                               f"quantile underflows to 0, so the domain [{lo!r}, 0.0] is empty")
    if hi == math.inf:
        if lo >= 1e300:
            raise ConvergenceError(
                f"evidence quadrature for model {model.id!r}: the integration domain "
                f"[{lo!r}, inf] is not finite"
            )
        hi = 1e300
    return lo, hi


def _integration_domain(model: ModelSpec, lo: float, hi: float, scan) -> tuple[float, float]:
    """[lo, hi] widened until the integrand peak is interior.

    ``scan(lo, hi)`` is the integrand, log of likelihood * prior, on
    ``_scan_grid(lo, hi)``.  Both ends grow until the scanned integrand
    has dropped at least 46 nats (factor ~1e-20) below the peak, so
    truncation error is negligible at the target tolerance.  Raises
    :class:`ConvergenceError` when ``DOMAIN_SCAN_ROUNDS`` rounds leave
    the peak at an edge: the quadrature would miss it.
    """
    for _ in range(DOMAIN_SCAN_ROUNDS):
        g = scan(lo, hi)
        gmax = float(g.max())
        grew = False
        # differences, not gmax - 46: past |gmax| ~ 2e17 that is gmax itself
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


def _scan_grid(lo: float, hi: float) -> np.ndarray:
    """``np.geomspace(lo, hi, 513)`` for positive ends, bit for bit: its own
    arithmetic without its sign and dtype set-up."""
    grid = np.power(10.0, np.linspace(np.log10(lo), np.log10(hi), 513))
    grid[0], grid[-1] = lo, hi
    return grid


def _midpoints(u_lo, u_hi, nodes: int) -> np.ndarray:
    """The odd nodes of ``np.linspace(u_lo, u_hi, nodes)``, bit for bit,
    as a contiguous array.

    linspace's node i is i * step + u_lo, with step = (u_hi - u_lo) /
    (nodes - 1).  A doubling halves the step exactly, so the coarser
    grid's nodes are the finer grid's even nodes.
    """
    return np.arange(1, nodes, 2) * ((u_hi - u_lo) / (nodes - 1)) + u_lo


def log_evidence(model: ModelSpec, data: DataSet) -> float:
    """log of the marginal likelihood, integral of L(theta) pi(theta).

    Trapezoidal quadrature on a log-spaced grid (the substitution
    u = ln theta keeps wide domains well conditioned), accumulated with
    betsim's own log-sum-exp, fixed to the algorithm of scipy 1.17.1's
    ``scipy.special.logsumexp`` whatever scipy is installed.  The grid is
    doubled until two successive estimates agree within ``rel_tol``,
    measured as |new - old| <= rel_tol * max(1, |new|).  The grids are
    nested (Trefethen & Weideman, SIAM Rev. 2014): a doubling evaluates
    the integrand only at the new midpoints, reuses its values at every
    earlier node, and sums the whole grid in node order, so each
    estimate equals that of evaluating ``np.linspace(ln lo, ln hi,
    nodes)`` afresh, bit for bit.

    Only n and one sum of the data reach a node: every term that depends
    on the node alone (u, the trapezoid weights, the prior's
    log-density and the likelihood's two factors of theta) comes from a
    node table keyed on (likelihood kind, alpha, beta, lo, hi, level),
    built once and shared by every evidence on that prior and domain
    (``_node_table``; levels finer than ``_TABLED_NODES`` nodes are
    built per call).  At a node the integrand is
    ((-(n/2) f1 - S / f2) + prior) + u for the Gaussian and
    ((n f1 - f2 sum x) + prior) + u for the exponential, in the order
    the public likelihoods and prior compute it, so the tables change no
    value, bit for bit.

    An empty data set short-circuits to 0 (the evidence of no data
    is 1).  Raises :class:`ConvergenceError`, carrying the last two
    estimates, when the estimates have not settled before the next grid
    would pass ``MAX_NODES``, and at once, without them, when the
    domain is empty, the domain or the first estimate is not finite, or
    the domain scan cannot bracket the integrand peak.  A data set that
    the likelihood cannot take raises ValueError, as the likelihood does.
    """
    if data.n == 0:
        return 0.0
    kind, alpha, beta = model.likelihood_kind, model.prior.alpha, model.prior.beta
    _, loglik, statistic = _LIKELIHOODS[kind]
    # non-finite terms are the quadrature's own outcomes: an overflowing
    # 2 theta or theta * sum x gives -inf, a huge prior shape NaN
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo, hi = _prior_range(model)
        n, stat = data.n, statistic(data)

        def scan(lo, hi):
            t = _node_table(kind, alpha, beta, lo, hi, _SCAN)
            return loglik(n, stat, t.f1, t.f2) + t.prior

        lo, hi = _integration_domain(model, lo, hi, scan)

        def level(k: int):
            build = _node_table if _level_nodes(k) <= _TABLED_NODES else _build_node_table
            t = build(kind, alpha, beta, lo, hi, k)
            # + u is the Jacobian d theta = theta du
            return loglik(n, stat, t.f1, t.f2) + t.prior + t.u, t.weights

        g, weights = level(0)
        prev = _logsumexp_unguarded(g, weights)
        if not math.isfinite(prev):
            raise ConvergenceError(
                f"evidence quadrature for model {model.id!r}: the first estimate is {prev!r}"
            )
        for doublings in itertools.count(1):
            new, weights = level(doublings)
            nodes = weights.size
            finer = np.empty(nodes)
            finer[0::2] = g
            finer[1::2] = new
            g = finer
            cur = _logsumexp_unguarded(g, weights)
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


def model_posteriors(models, priors, data: DataSet) -> list[ModelPosterior]:
    """Posterior probability of each model given prior weights.

    Computed in log space; the result is explicitly renormalized so the
    probabilities sum to 1 to machine precision.
    """
    models = list(models)
    priors = np.asarray(priors, dtype=np.float64)
    if len(models) == 0:
        raise ValueError("at least one model is required")
    if priors.shape != (len(models),):
        raise ValueError("priors must align one-to-one with models")
    if (priors < 0).any():
        raise ValueError("prior probabilities must be nonnegative")
    if abs(float(priors.sum()) - 1.0) > 1e-9:
        raise ValueError(f"model priors must sum to 1, got {float(priors.sum())!r}")
    log_ev = np.array([log_evidence(m, data) for m in models])
    with np.errstate(divide="ignore"):  # a zero prior is a legitimate -inf
        log_post = log_ev + np.log(priors)
    post = np.exp(log_post - _logsumexp(log_post))
    post = post / post.sum()
    return [
        ModelPosterior(m.id, float(p), float(le), float(pp))
        for m, p, le, pp in zip(models, priors, log_ev, post)
    ]


def select_model(posteriors) -> ModelChoice:
    """Pick the model whose ratio against every other exceeds 1.

    Accepts ModelPosterior records or raw probabilities.  When several
    models share the maximum (within 1e-12), no best is declared:
    ``best`` is None and ``tied`` lists the contenders.
    """
    probs = [getattr(p, "posterior_prob", p) for p in posteriors]
    if not probs:
        raise ValueError("no models to select from")
    top = max(probs)
    tied = tuple(i for i, p in enumerate(probs) if abs(p - top) <= 1e-12)
    return ModelChoice(best=tied[0] if len(tied) == 1 else None, tied=tied)
