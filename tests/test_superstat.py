"""Unit tests for the volatility-mixture return generator."""

import numpy as np
import pytest
from scipy import stats

from betsim import rng as rngmod
from betsim.superstat import (
    MixingModel,
    ReturnSeries,
    _invgamma_log_density,
    _sample_mixing,
    generate_returns,
    sample_moments,
)
from oracle import population_moments


def test_model_validation():
    with pytest.raises(ValueError, match="kind"):
        MixingModel(kind="lognormal")
    with pytest.raises(ValueError, match="sigma0"):
        MixingModel(kind="constant")
    with pytest.raises(ValueError, match="alpha > 0"):
        MixingModel(kind="inverse-gamma", alpha=2.0)
    with pytest.raises(ValueError, match="gamma > 0"):
        MixingModel(kind="generalized-inverse-gamma", alpha=2.0, beta=1.0)


# ---------------------------------------------------------------------------
# densities

def test_invgamma_log_density_matches_reference():
    x = np.geomspace(0.01, 50, 200)
    got = _invgamma_log_density(3.2, 1.7)(x)
    expect = stats.invgamma(3.2, scale=1.7).logpdf(x)
    assert np.allclose(got, expect, atol=1e-12)


# ---------------------------------------------------------------------------
# mixing draws

def test_constant_returns_are_scaled_normal_sums():
    model = MixingModel(kind="constant", sigma0=0.7)
    series = generate_returns(model, 40, 3, rngmod.stream(0, rngmod.GENERIC))
    z = rngmod.stream(0, rngmod.GENERIC).standard_normal((40, 3))
    assert np.array_equal(series.samples, 0.7 * z.sum(axis=1))


def test_inverse_gamma_mixing_distribution():
    model = MixingModel(kind="inverse-gamma", alpha=4.0, beta=4.0)
    draws = _sample_mixing(model, rngmod.stream(0, rngmod.GENERIC), size=20_000)
    ks = stats.kstest(draws, stats.invgamma(4.0, scale=4.0).cdf)
    assert ks.pvalue > 1e-3, f"mixing draws off distribution (p={ks.pvalue:.2e})"


def test_generalized_mixing_distribution():
    # _sample_mixing returns sigma^2; undo the transform and the
    # underlying draw must be Gamma(alpha, 1)
    alpha, beta, gamma = 3.0, 1.5, 2.0
    model = MixingModel(kind="generalized-inverse-gamma", alpha=alpha, beta=beta, gamma=gamma)
    s2 = _sample_mixing(model, rngmod.stream(1, rngmod.GENERIC), size=20_000)
    g = (beta / np.sqrt(s2)) ** gamma
    ks = stats.kstest(g, stats.gamma(alpha).cdf)
    assert ks.pvalue > 1e-3, f"mixing draws off distribution (p={ks.pvalue:.2e})"


# ---------------------------------------------------------------------------
# return generation

def test_constant_returns_are_gaussian():
    model = MixingModel(kind="constant", sigma0=0.8)
    series = generate_returns(model, 20_000, 1, rngmod.stream(2, rngmod.RETURNS))
    ks = stats.kstest(series.samples, stats.norm(0.0, 0.8).cdf)
    assert ks.pvalue > 1e-3
    assert series.tau == 1
    assert len(series.samples) == 20_000


def test_constant_ignores_mixing_speed():
    model = MixingModel(kind="constant", sigma0=1.1)
    fast = generate_returns(model, 500, 4, rngmod.stream(3, rngmod.RETURNS))
    slow = generate_returns(model, 500, 4, rngmod.stream(3, rngmod.RETURNS), slow_mixing=True)
    assert np.array_equal(fast.samples, slow.samples)


def test_slow_mixing_has_heavier_tails():
    # one sigma per tau-block keeps the full mixture kurtosis; redrawing
    # sigma every unit step averages it away across the block
    model = MixingModel(kind="inverse-gamma", alpha=4.0, beta=4.0)
    fast = generate_returns(model, 50_000, 4, rngmod.stream(4, rngmod.RETURNS))
    slow = generate_returns(model, 50_000, 4, rngmod.stream(4, rngmod.RETURNS), slow_mixing=True)
    k_fast = sample_moments(fast).excess_kurtosis
    k_slow = sample_moments(slow).excess_kurtosis
    assert k_slow > k_fast + 0.5


def test_generate_returns_validation():
    model = MixingModel(kind="constant", sigma0=1.0)
    rng = rngmod.stream(0, rngmod.RETURNS)
    with pytest.raises(ValueError, match="n must be"):
        generate_returns(model, 0, 1, rng)
    with pytest.raises(ValueError, match="tau must be"):
        generate_returns(model, 10, 0, rng)


def test_return_series_validation():
    with pytest.raises(ValueError, match="tau"):
        ReturnSeries(tau=0, samples=np.zeros(3))
    series = ReturnSeries(tau=2, samples=[1, 2, 3])
    assert series.samples.dtype == np.float64


# ---------------------------------------------------------------------------
# moments

def test_sample_moments_matches_population_moments():
    x = np.random.default_rng(5).normal(0, 2, 100)
    got = sample_moments(ReturnSeries(tau=1, samples=x))
    assert got == population_moments(x)


def test_sample_moments_accepts_plain_arrays():
    x = [1.0, 2.0, 3.0, 4.0]
    assert sample_moments(x).mean == pytest.approx(2.5)


def test_sample_moments_needs_four_samples():
    with pytest.raises(ValueError, match="at least 4"):
        sample_moments([1.0, 2.0, 3.0])
