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


def _gaussian_loglik(n: int, s: float, log_2pi_sigma2, two_sigma2, out=None):
    """-(n/2) ln(2 pi sigma2) - S / (2 sigma2) from ``_gaussian_factors``,
    into the array ``out`` when it is given."""
    out = np.multiply(-0.5 * n, log_2pi_sigma2, out=out)
    out -= s / two_sigma2
    return out


def _exponential_factors(theta):
    """The exponential likelihood's factors that depend only on theta:
    ln theta and theta."""
    return np.log(theta), theta


def _exponential_loglik(n: int, total: float, log_theta, theta, out=None):
    """n ln(theta) - theta * sum x from ``_exponential_factors``, into the
    array ``out`` when it is given."""
    out = np.multiply(n, log_theta, out=out)
    out -= theta * total
    return out


def _positive_sample_sum(data: DataSet) -> float:
    """sum x of samples that must all be strictly positive."""
    if not data.all_positive:
        raise ValueError("exponential likelihood requires strictly positive samples")
    return data.sample_sum()


# likelihood kind -> (theta -> its two factors, the log-likelihood from n,
# the data statistic and the factors (into an array ``out`` when given),
# data -> that statistic, checked)
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


def _invgamma_log_density(alpha: float, beta: float):
    """x -> the log-density of InvGamma(alpha, beta) at float64 x > 0,
    unchecked.  The constant alpha ln(beta) - ln Gamma(alpha) is taken
    once, here, for every x the returned function is called on.
    """
    from scipy.special import gammaln  # deferred: scipy is slow to import
    # a huge shape overflows alpha * log(beta) and gammaln(alpha), and
    # inf - inf is NaN: the evidence quadrature then reports non-convergence
    with np.errstate(over="ignore", invalid="ignore"):
        log_norm = alpha * np.log(beta) - gammaln(alpha)

    def logpdf(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return log_norm - (alpha + 1.0) * np.log(x) - beta / x

    return logpdf


def _logsumexp(a, b=None) -> float:
    """log(sum(b * exp(a))) of 1-D float64 arrays, bit for bit
    ``scipy.special.logsumexp`` of scipy 1.17.1, without its array-API
    dispatch.

    The max-split algorithm of Blanchard, Higham & Higham (IMA J. Numer.
    Anal. 2021): zero weights drop their entries, the maximal entries
    are split off with total weight m, and the result is
    log1p(s / m) + log(m) + max, NaN for a negative sum, with s the
    weighted sum of exp(a - max) over the other entries.  Only when that
    is not finite does the direct log(sum(b * exp(a))) stand instead.
    With one maximal entry of nonzero weight, the common case, no mask
    is built and the arrays are exponentiated once
    (``_logsumexp_unguarded``).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _logsumexp_unguarded(a, np.ones_like(a) if b is None else b)


def _logsumexp_unguarded(a, b) -> float:
    """``_logsumexp`` under the caller's ``np.errstate``, which must ignore
    divide, invalid and over.

    The common case, one maximal entry k with a finite value and a
    nonzero weight, makes six passes over the arrays and no ``np.where``:
    argmax, a - max, the argmax of that with entry k set to -inf (a 0
    left there is a tie), exp in place, times b in place, and the sum.
    exp(-inf) = 0 is the maximal entry's term, as in scipy, and m is
    b[k]: scipy sums b over the maximal entries, and the pairwise sum of
    b[k] and zeros is b[k] exactly.  A zero weight elsewhere needs no
    mask: scipy's masked entry adds b * exp(-inf), the same signed zero
    as b * exp(a - max), and a NaN or +inf entry is the argmax.  Ties at
    the max, a zero weight there and a non-finite max take scipy's
    masks instead.  The scalar tail runs on Python floats, but log1p and
    log stay numpy's, whose SIMD loops may round otherwise.
    """
    k = int(a.argmax())  # the first maximal entry, or the first NaN
    a_max, m = float(a[k]), float(b[k])
    e = a - a_max
    e[k] = -math.inf
    if not (m != 0.0 and math.isfinite(a_max) and e[e.argmax()] < 0.0):
        kept = np.where(b == 0, -np.inf, a)
        a_max = kept.max()
        top = kept == a_max
        m = float((b * top).sum())
        e = np.where(top, -np.inf, kept) - a_max
        a_max = float(a_max)
    np.exp(e, out=e)
    e *= b
    # scipy leaves s = 0 undivided; dividing it gives 0 again.  m = 0
    # gives scipy a non-finite result, which the direct sum below replaces
    s = float(e.sum()) / m if m else math.nan
    out = float(np.log1p(-s - 2 if s < -1 else s)) + float(np.log(abs(m))) + a_max
    # scipy's NaN for a negative sum is not finite either
    if m > 0 and s < -1 or m < 0 and s > -1 or not math.isfinite(out):
        out = float(np.log((b * np.exp(a)).sum()))
    return out


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

    ``_SCAN`` is the domain scan's ``np.geomspace(lo, hi, 513)``, in theta.
    Level 0 is ``np.linspace(ln lo, ln hi, INITIAL_NODES)`` in u = ln
    theta, and level k the nodes a doubling adds, the odd nodes of the
    grid of ``_level_nodes(k)``, with that whole grid's weights.  A
    doubling halves the step exactly, so the coarser grid's nodes are the
    finer grid's even nodes.
    """
    if level == _SCAN:
        theta, u, weights = np.geomspace(lo, hi, 513), None, None
    else:
        u_lo, u_hi = np.log(lo), np.log(hi)
        nodes = _level_nodes(level)
        u = np.linspace(u_lo, u_hi, nodes)
        if level > 0:
            # contiguous: numpy's SIMD exp and log may round strided input otherwise
            u = u[1::2].copy()
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


@functools.lru_cache(maxsize=_NODE_TABLES)
def _prior_quantiles(alpha: float, beta: float) -> tuple[float, float]:
    """The 1e-10 and 1-1e-10 quantiles of InvGamma(alpha, beta), the first
    at least 1e-300, cached on the prior: every evidence on it starts
    here, and the two ``gammainccinv`` calls take about 3.5 us, against
    about 80 us for a whole evidence of 1e4 samples."""
    from scipy.special import gammainccinv  # deferred: scipy is slow to import
    # inverse-gamma quantile q: b / Q^-1(a, q), Q the upper regularized
    # incomplete gamma function.  Q^-1 underflows for a shape below about
    # 0.03, and b / Q^-1 overflows for a scale near the float maximum
    lo = max(float(1.0 / gammainccinv(alpha, 1e-10) * beta), 1e-300)
    hi = float(1.0 / gammainccinv(alpha, 1.0 - 1e-10) * beta)
    return lo, hi


def _prior_range(model: ModelSpec) -> tuple[float, float]:
    """The prior's [1e-10, 1-1e-10] quantile range, where the domain scan
    starts, under the caller's ``np.errstate``, which must ignore divide
    and over.  Raises :class:`ConvergenceError`, naming ``model``, when
    it is empty or not finite; an infinite upper quantile starts at the
    ceiling, unless the lower one is past it as well.
    """
    lo, hi = _prior_quantiles(model.prior.alpha, model.prior.beta)
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
    ``np.geomspace(lo, hi, 513)``.  Both ends grow until the scanned integrand
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
    value, bit for bit.  A doubling writes its new nodes' integrand
    straight into the odd slots of the finer grid: only + - * / run
    there, which round alike at any stride.  The prior's quantiles, where
    the domain scan starts, are cached on (alpha, beta)
    (``_prior_quantiles``), and each level is summed by one call of
    ``_logsumexp_unguarded``, one exp pass over the level's whole grid.

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
            g = loglik(n, stat, t.f1, t.f2)
            g += t.prior
            return g

        lo, hi = _integration_domain(model, lo, hi, scan)

        def evaluate(k: int, out: np.ndarray) -> np.ndarray:
            """The integrand at level k's nodes, into ``out``; returns the
            trapezoid weights of level k's whole grid."""
            build = _node_table if _level_nodes(k) <= _TABLED_NODES else _build_node_table
            t = build(kind, alpha, beta, lo, hi, k)
            loglik(n, stat, t.f1, t.f2, out)
            out += t.prior
            out += t.u  # the Jacobian d theta = theta du
            return t.weights

        g = np.empty(INITIAL_NODES)
        prev = _logsumexp_unguarded(g, evaluate(0, g))
        if not math.isfinite(prev):
            raise ConvergenceError(
                f"evidence quadrature for model {model.id!r}: the first estimate is {prev!r}"
            )
        for doublings in itertools.count(1):
            nodes = 2 * g.size - 1
            finer = np.empty(nodes)
            finer[0::2] = g
            # the new nodes are the odd ones: + - * / round alike at any
            # stride, so they are evaluated straight into the finer grid
            weights = evaluate(doublings, finer[1::2])
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
