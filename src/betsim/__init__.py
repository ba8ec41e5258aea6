"""Betting-ensemble market simulations and Bayesian return-series tools.

The package has three layers:

* simulation: :mod:`betsim.core`, :mod:`betsim.conservative`,
  :mod:`betsim.dissipative` model a market as an ensemble of bettors
  whose win/loss ledgers induce a Bayesian success probability each.
* distributions: :mod:`betsim.superstat` generates return series whose
  variance (or volatility) is itself random.
* inference: :mod:`betsim.inference` fits variances and compares
  likelihood models by marginal evidence.

:mod:`betsim.config`, :mod:`betsim.io` and :mod:`betsim.cli` wire these
into a deterministic, file-driven command-line tool.
"""

from .conservative import (
    ConservativeConfig,
    Trajectory,
    run_conservative,
    smooth_series,
)
from .core import EnsembleState, MacroSnapshot, Moments
from .dissipative import (
    DissipativeConfig,
    DissipativeState,
    convergence_time,
    init_grains,
    run_dissipative,
)
from .errors import BetsimError, ConfigError, ConvergenceError, DataError
from .inference import (
    DataSet,
    InvGammaParams,
    ModelSpec,
    conjugate_variance_posterior,
    exponential_loglik,
    gaussian_variance_loglik,
    log_evidence,
    model_posteriors,
    select_model,
)
from .superstat import MixingModel, ReturnSeries, generate_returns, sample_moments

__version__ = "0.1.0"

__all__ = [
    "BetsimError",
    "ConfigError",
    "ConservativeConfig",
    "ConvergenceError",
    "DataError",
    "DataSet",
    "DissipativeConfig",
    "DissipativeState",
    "EnsembleState",
    "InvGammaParams",
    "MacroSnapshot",
    "MixingModel",
    "ModelSpec",
    "Moments",
    "ReturnSeries",
    "Trajectory",
    "conjugate_variance_posterior",
    "convergence_time",
    "exponential_loglik",
    "gaussian_variance_loglik",
    "generate_returns",
    "init_grains",
    "log_evidence",
    "model_posteriors",
    "run_conservative",
    "run_dissipative",
    "sample_moments",
    "select_model",
    "smooth_series",
    "__version__",
]
