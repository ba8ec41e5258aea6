"""Synthetic log-returns with fluctuating volatility.

A return over horizon tau is a sum of tau unit-step shocks sigma_u *
z_u.  When the volatility is itself random ("superstatistics"), the
aggregate distribution is a variance mixture of normals: fat-tailed
even though every conditional piece is Gaussian.  Two mixing families
are provided, inverse-gamma over the variance (conjugate with the
inference module) and generalized inverse-gamma over the volatility,
plus a constant-volatility baseline that reproduces the sqrt(tau)
dispersion law.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Moments, _moments

INVERSE_GAMMA = "inverse-gamma"
GENERALIZED = "generalized-inverse-gamma"
CONSTANT = "constant"
KINDS = (INVERSE_GAMMA, GENERALIZED, CONSTANT)


@dataclass(frozen=True)
class MixingModel:
    """A volatility-mixing law.

    kind switches what fluctuates:

    * ``inverse-gamma``: the variance sigma^2 ~ InvGamma(alpha, beta);
      this is the choice conjugate with Gaussian-variance inference.
    * ``generalized-inverse-gamma``: the volatility sigma ~
      GIGa(alpha, beta, gamma); gamma = 1 recovers the inverse-gamma
      law for sigma.
    * ``constant``: sigma fixed at sigma0 (no mixing).
    """

    kind: str
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    sigma0: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == CONSTANT:
            if self.sigma0 is None or self.sigma0 <= 0:
                raise ValueError("constant model needs sigma0 > 0")
            return
        if self.alpha is None or self.alpha <= 0 or self.beta is None or self.beta <= 0:
            raise ValueError(f"{self.kind} model needs alpha > 0 and beta > 0")
        if self.kind == GENERALIZED and (self.gamma is None or self.gamma <= 0):
            raise ValueError("generalized model needs gamma > 0")


@dataclass
class ReturnSeries:
    """Generated or ingested log-returns over a fixed horizon."""

    tau: int
    samples: np.ndarray

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        self.samples = np.asarray(self.samples, dtype=np.float64)


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


def _sample_mixing(model: MixingModel, rng: np.random.Generator, size) -> np.ndarray:
    """An array of shape ``size`` of variance samples sigma^2 from a mixing
    model whose variance fluctuates (any kind but ``constant``).

    Gamma variates come from numpy's Generator.gamma (Marsaglia-Tsang
    squeeze-rejection); any rejected proposals are consumed from the
    same stream, so a fixed generator state replays exactly.  An
    extreme law can draw infinite variances; ``generate_returns``
    checks for them.
    """
    g = rng.gamma(model.alpha, 1.0, size)
    if model.kind == INVERSE_GAMMA:
        return model.beta / g
    # generalized: the law mixes sigma, so square the draw
    return (model.beta / g ** (1.0 / model.gamma)) ** 2


def generate_returns(
    model: MixingModel,
    n: int,
    tau: int,
    rng: np.random.Generator,
    slow_mixing: bool = False,
) -> ReturnSeries:
    """Generate n log-returns, each a sum of tau unit-step shocks.

    Fast mixing (default) redraws sigma every unit step; slow mixing
    draws one sigma per tau-block, modeling a volatility that
    fluctuates on a time scale much longer than the horizon.  The
    constant model reduces to N(0, sigma0^2 * tau) either way.

    Draw order is fixed (variances first, then normals) so a seeded
    generator reproduces the same series exactly.  Raises ValueError
    when a sample is not finite: an extreme law can draw an infinite
    variance, and a sum can pass the float range.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if tau < 1:
        raise ValueError("tau must be >= 1")
    # infinite variances and overflowing sums fail the finiteness check below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if model.kind == CONSTANT:
            z = rng.standard_normal((n, tau))
            samples = model.sigma0 * z.sum(axis=1)
        else:
            shape = (n, 1) if slow_mixing else (n, tau)
            sigma = np.sqrt(_sample_mixing(model, rng, shape))
            z = rng.standard_normal((n, tau))
            samples = (sigma * z).sum(axis=1)
    bad = np.count_nonzero(~np.isfinite(samples))
    if bad:
        raise ValueError(f"{bad} of {n} generated returns are not finite")
    return ReturnSeries(tau=tau, samples=samples)


def sample_moments(series) -> Moments:
    """Population moments of a return series (or plain array), as
    ``core.block_snapshots`` takes them of one row.

    Zero variance is flagged on the result, not raised.
    """
    values = getattr(series, "samples", series)
    v = np.asarray(values, dtype=np.float64).reshape(1, -1)
    if v.size < 4:
        raise ValueError("need at least 4 samples for four moments")
    mean, m2, skewness, kurtosis = _moments(v)
    variance = float(m2[0])
    return Moments(float(mean[0]), variance, skewness[0], kurtosis[0], variance == 0.0)
