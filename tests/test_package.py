"""The names ``import betsim`` exports: exactly the pinned public surface."""

import inspect

import betsim

PUBLIC = [
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
    "__version__",
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
]


def test_all_is_the_pinned_public_surface():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(betsim.__all__) == PUBLIC
    assert len(set(betsim.__all__)) == len(betsim.__all__)


def test_every_public_name_resolves():
    namespace = {}
    exec("from betsim import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(betsim, name), name


def test_the_package_binds_no_public_name_outside_all():
    # a name imported into the package but left out of __all__ is a silent
    # re-export; the package's submodules are bound as attributes, not exported
    bound = sorted(
        name for name, obj in vars(betsim).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    )
    assert bound == [name for name in PUBLIC if name != "__version__"]
