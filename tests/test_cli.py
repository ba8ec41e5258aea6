"""End-to-end tests of the command-line interface (in process, and one
test through a fresh interpreter)."""

import contextlib
import hashlib
import io
import math
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betsim import __version__, conservative
from betsim.cli import dispatch
from betsim.config import IoConfig, RunConfig, SuperstatConfig, emit_config, parse_config
from betsim.errors import ConfigError
from betsim.inference import MAX_NODES
from betsim.io import read_returns_csv


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write(workdir, name, body):
    path = workdir / name
    if isinstance(body, bytes):
        path.write_bytes(body)
    else:
        path.write_text(body)
    return str(path)


def _returns_text(samples):
    return "i,value\n" + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(samples))


CONSERVATIVE = """\
[conservative]
steps = 20
n_microstates = 10
bets_per_step = 2
seed = 4
"""


# ---------------------------------------------------------------------------
# argument handling

def test_version_flag(capsys):
    assert dispatch(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_usage_errors_exit_2(capsys):
    for argv in ([], ["frobnicate"], ["sim-conservative", "--config", "x.ini"],  # --out missing
                 ["ingest", "--config", "x.ini", "--out", "o", "--seed", "x"]):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        _assert_one_error_line(captured.err)
        assert "usage:" not in captured.out + captured.err


def test_missing_config_file(workdir, capsys):
    assert dispatch(["sim-conservative", "--config", "absent.ini", "--out", "o"]) == 2
    assert "error: cannot read config" in capsys.readouterr().err


def test_missing_section(workdir, capsys):
    cfg = _write(workdir, "c.ini", "[io]\nhistogram_bins = 4\n")
    assert dispatch(["sim-conservative", "--config", cfg, "--out", "o"]) == 2
    assert "no [conservative] section" in capsys.readouterr().err


def test_invalid_config_value(workdir, capsys):
    cfg = _write(workdir, "c.ini", "[conservative]\nsteps = many\n")
    assert dispatch(["sim-conservative", "--config", cfg, "--out", "o"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulation commands

def test_sim_conservative_outputs(workdir, capsys):
    cfg = _write(workdir, "c.ini", CONSERVATIVE)
    assert dispatch(["sim-conservative", "--config", cfg, "--out", "out/run1"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    traj = (workdir / "out/run1/trajectory.csv").read_text().splitlines()
    assert len(traj) == 1 + 21
    micro = (workdir / "out/run1/microstates.csv").read_text().splitlines()
    assert len(micro) == 1 + 21 * 10


def test_sim_conservative_can_skip_microstates(workdir):
    cfg = _write(workdir, "c.ini", CONSERVATIVE + "\n[io]\nwrite_microstates = false\n")
    assert dispatch(["sim-conservative", "--config", cfg, "--out", "o"]) == 0
    assert (workdir / "o/trajectory.csv").exists()
    assert not (workdir / "o/microstates.csv").exists()


def test_seed_override_changes_output(workdir):
    cfg = _write(workdir, "c.ini", CONSERVATIVE)
    dispatch(["sim-conservative", "--config", cfg, "--out", "a"])
    dispatch(["sim-conservative", "--config", cfg, "--out", "b", "--seed", "4"])
    dispatch(["sim-conservative", "--config", cfg, "--out", "c", "--seed", "5"])
    base = (workdir / "a/trajectory.csv").read_bytes()
    assert (workdir / "b/trajectory.csv").read_bytes() == base
    assert (workdir / "c/trajectory.csv").read_bytes() != base


def test_sim_dissipative_final_histogram_only(workdir):
    cfg = _write(
        workdir,
        "d.ini",
        "[dissipative]\nsteps = 8\ngrain_sizes = 6, 9\nseed = 1\n",
    )
    assert dispatch(["sim-dissipative", "--config", cfg, "--out", "o"]) == 0
    names = sorted(p.name for p in (workdir / "o").iterdir())
    assert names == ["grains.csv", "histogram_8.csv", "trajectory.csv"]


def test_sim_dissipative_periodic_histograms(workdir):
    cfg = _write(
        workdir,
        "d.ini",
        "[dissipative]\nsteps = 10\ngrain_sizes = 6, 9\nseed = 1\n"
        "\n[io]\nhistogram_every = 4\n",
    )
    assert dispatch(["sim-dissipative", "--config", cfg, "--out", "o"]) == 0
    hist = sorted(p.name for p in (workdir / "o").iterdir() if p.name.startswith("histogram"))
    assert hist == ["histogram_0.csv", "histogram_10.csv", "histogram_4.csv", "histogram_8.csv"]


# ---------------------------------------------------------------------------
# return-series commands

def test_gen_returns_shape_and_slow_mixing(workdir):
    cfg = _write(
        workdir,
        "g.ini",
        "[superstat]\nkind = inverse-gamma\nalpha = 4.0\nbeta = 4.0\n"
        "n = 250\ntau = 4\nseed = 6\nslow_mixing = true\n",
    )
    assert dispatch(["gen-returns", "--config", cfg, "--out", "o"]) == 0
    series = read_returns_csv(str(workdir / "o/returns.csv"), tau=4)
    assert len(series.samples) == 250


def test_ingest_then_fit(workdir):
    rng = np.random.default_rng(3)
    prices = 50 * np.exp(np.cumsum(rng.normal(0, 0.02, 120)))
    with open(workdir / "prices.csv", "w") as fh:
        fh.write("t,price\n")
        for i, p in enumerate(prices):
            fh.write(f"{i},{p:.8f}\n")
    ing = _write(workdir, "i.ini", "[io]\ninput = prices.csv\n")
    assert dispatch(["ingest", "--config", ing, "--out", "r"]) == 0

    fit = _write(
        workdir,
        "f.ini",
        "[inference]\nmu = 0.0\nprior_alpha = 3.0\nprior_beta = 2.0\n"
        "\n[io]\ninput = r/returns.csv\n",
    )
    assert dispatch(["fit-variance", "--config", fit, "--out", "fit"]) == 0
    rows = dict(
        line.split(",") for line in (workdir / "fit/fit.csv").read_text().splitlines()[1:]
    )
    assert float(rows["n"]) == 119
    assert float(rows["posterior_alpha"]) == pytest.approx(3.0 + 119 / 2.0)
    assert float(rows["posterior_mode_variance"]) < float(rows["posterior_mean_variance"])


def test_fit_variance_writes_an_infinite_mean_at_a_shape_of_at_most_one(workdir):
    # posterior shape 0.1 + 1/2 = 0.6: the inverse-gamma mean is infinite
    _write(workdir, "returns.csv", "i,value\n0,0.3\n")
    cfg = _write(workdir, "f.ini", "[inference]\nprior_alpha = 0.1\n\n[io]\ninput = returns.csv\n")
    assert dispatch(["fit-variance", "--config", cfg, "--out", "o"]) == 0
    rows = dict(line.split(",") for line in (workdir / "o/fit.csv").read_text().splitlines()[1:])
    assert float(rows.pop("posterior_alpha")) == pytest.approx(0.6)
    assert rows.pop("posterior_mean_variance") == "inf"
    assert all(math.isfinite(float(value)) for value in rows.values())


def test_fit_variance_requires_input_setting(workdir, capsys):
    cfg = _write(workdir, "f.ini", "[inference]\nmu = 0.0\n")
    assert dispatch(["fit-variance", "--config", cfg, "--out", "o"]) == 2
    assert "input" in capsys.readouterr().err


def test_fit_variance_missing_input_file(workdir, capsys):
    cfg = _write(workdir, "f.ini", "[inference]\nmu = 0.0\n\n[io]\ninput = nope.csv\n")
    assert dispatch(["fit-variance", "--config", cfg, "--out", "o"]) == 3
    assert "error:" in capsys.readouterr().err


# with 50 N(0, 1) returns the estimate never settles within this rel_tol,
# so the quadrature runs its grid up to MAX_NODES, in well under a second
NOT_CONVERGING = (
    "[inference]\nprior_alpha = 1e6\nprior_beta = 1e6\nrel_tol = 1e-300\n\n"
    "[io]\ninput = returns.csv\n"
)


def test_fit_variance_stops_at_the_node_cap_and_exits_4(workdir, capsys):
    # the estimate never settles within this rel_tol; the quadrature stops
    # before its grid passes MAX_NODES instead of running out of memory
    _write(workdir, "returns.csv", _returns_text(np.random.default_rng(1).normal(0, 1, 50)))
    cfg = _write(workdir, "f.ini", NOT_CONVERGING)
    assert dispatch(["fit-variance", "--config", cfg, "--out", "o"]) == 4
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert "did not converge" in err
    assert f"({MAX_NODES} nodes" in err


def test_fit_variance_with_a_small_prior_shape(workdir, capsys):
    # at this shape the prior's upper quantile is past the float range
    _write(workdir, "returns.csv", _returns_text(np.random.default_rng(2).normal(0, 1, 50)))
    config = "[inference]\nprior_alpha = 0.001\n\n[io]\ninput = returns.csv\n"
    cfg = _write(workdir, "f.ini", config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dispatch(["fit-variance", "--config", cfg, "--out", "o"]) == 0
    assert not caught
    assert capsys.readouterr().err == ""
    rows = dict(line.split(",") for line in (workdir / "o/fit.csv").read_text().splitlines()[1:])
    # the conjugate closed form for these samples and prior
    assert float(rows["log_evidence"]) == pytest.approx(-79.5491274938274, abs=1e-8)


# fit.csv for prior_beta = 1e305 (log evidence -17539.2938693); the
# quadrature nodes past sigma^2 = 2.9e307 add nothing to it
HUGE_SCALE_FIT_SHA256 = "bbee0b49aad17fb5bff7e607e0a14ecfc10532e5162a7bad54d31c5b1cb13ef3"


@pytest.mark.parametrize("beta, code", [("1e305", 0), ("1e307", 4), ("1e308", 4)])
def test_fit_variance_with_a_huge_prior_scale(workdir, capsys, beta, code):
    # the evidence domain reaches variances where 2 pi sigma^2 overflows;
    # from 1e307 on the prior's upper quantile itself is infinite
    _write(workdir, "returns.csv", _returns_text(np.random.default_rng(2).normal(0, 1, 50)))
    config = f"[inference]\nprior_beta = {beta}\n\n[io]\ninput = returns.csv\n"
    cfg = _write(workdir, "f.ini", config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dispatch(["fit-variance", "--config", cfg, "--out", "o"]) == code
    assert not caught
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        digest = hashlib.sha256((workdir / "o/fit.csv").read_bytes()).hexdigest()
        assert digest == HUGE_SCALE_FIT_SHA256
    else:
        _assert_one_error_line(err)


@pytest.mark.parametrize(
    "setting, match",
    [("prior_beta = 1e-300", "peak at an edge"), ("prior_alpha = 1e-300", "is not finite")],
    ids=["tiny-scale", "tiny-shape"],
)
def test_fit_variance_with_a_tiny_prior_exits_4_without_a_warning(workdir, capsys, setting, match):
    # a scale of 1e-300 puts the prior's mass 1e180 below the domain scan's
    # reach of the likelihood peak; a shape of 1e-300 makes both quantiles
    # infinite
    _write(workdir, "returns.csv", _returns_text(np.random.default_rng(2).normal(0, 1, 50)))
    cfg = _write(workdir, "f.ini", f"[inference]\n{setting}\n\n[io]\ninput = returns.csv\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dispatch(["fit-variance", "--config", cfg, "--out", "o"]) == 4
    assert not caught
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert match in err
    assert not list(workdir.glob("o/*"))


HUGE_SHAPE_FIT = "[inference]\nprior_alpha = 1e308\n\n[io]\ninput = returns.csv\n"
HUGE_SHAPE_MODELS = (
    "[inference]\nmodels = gaussian-known-mean, exponential\nmodel_priors = 0.5, 0.5\n"
    "model_alphas = 3.0, 1e308\nmodel_betas = 2.0, 2.0\n"
    "\n[io]\ninput = returns.csv\n"
)


@pytest.mark.parametrize(
    "command, config",
    [("fit-variance", HUGE_SHAPE_FIT), ("compare-models", HUGE_SHAPE_MODELS)],
    ids=["fit-variance", "compare-models"],
)
def test_huge_prior_shape_exits_4_without_a_warning(workdir, capsys, command, config):
    # alpha * log(beta) and gammaln(alpha) both overflow, so the prior's
    # log-density is NaN and the quadrature cannot start
    samples = np.abs(np.random.default_rng(2).normal(0, 1, 50))
    _write(workdir, "returns.csv", _returns_text(samples))
    cfg = _write(workdir, "c.ini", config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch([command, "--config", cfg, "--out", "o"]) == 4
    _assert_one_error_line(capsys.readouterr().err)
    assert not list(workdir.glob("o/*"))


def test_compare_models_tie_of_identical_models(workdir):
    _write(workdir, "returns.csv", _returns_text(np.random.default_rng(2).normal(0, 1, 50)))
    cfg = _write(
        workdir,
        "m.ini",
        "[inference]\nmodels = gaussian-known-mean, gaussian-known-mean\n"
        "model_priors = 0.5, 0.5\nmodel_alphas = 3.0, 3.0\nmodel_betas = 2.0, 2.0\n"
        "\n[io]\ninput = returns.csv\n",
    )
    assert dispatch(["compare-models", "--config", cfg, "--out", "o"]) == 0
    lines = (workdir / "o/models.csv").read_text().splitlines()
    assert lines[1].endswith(",tie") and lines[2].endswith(",tie")


def test_compare_models_data_mismatch_exits_3(workdir, capsys):
    with open(workdir / "returns.csv", "w") as fh:
        fh.write("i,value\n0,0.5\n1,-0.25\n")
    cfg = _write(
        workdir,
        "m.ini",
        "[inference]\nmodels = exponential, gaussian-known-mean\n"
        "model_priors = 0.5, 0.5\nmodel_alphas = 3.0, 3.0\nmodel_betas = 2.0, 2.0\n"
        "\n[io]\ninput = returns.csv\n",
    )
    assert dispatch(["compare-models", "--config", cfg, "--out", "o"]) == 3
    assert "strictly positive" in capsys.readouterr().err


def test_ingest_horizon_from_superstat_section(workdir):
    with open(workdir / "prices.csv", "w") as fh:
        fh.write("t,price\n")
        for i, p in enumerate([10.0, 11.0, 12.0, 13.0, 14.0]):
            fh.write(f"{i},{p}\n")
    cfg = _write(workdir, "i.ini", "[superstat]\ntau = 3\n\n[io]\ninput = prices.csv\n")
    assert dispatch(["ingest", "--config", cfg, "--out", "o"]) == 0
    series = read_returns_csv(str(workdir / "o/returns.csv"), tau=3)
    assert len(series.samples) == 2


# ---------------------------------------------------------------------------
# output bytes pinned across refactors

# inputs of the data commands, drawn once from a fixed seed and written
# with repr so every value round-trips
_GOLDEN_RNG = np.random.default_rng(12)
_GOLDEN_RETURNS = _returns_text(_GOLDEN_RNG.normal(0.05, 0.8, 300))
_GOLDEN_POSITIVE = _returns_text(_GOLDEN_RNG.exponential(0.5, 300))
_GOLDEN_PRICES = 50.0 * np.exp(np.cumsum(_GOLDEN_RNG.normal(0.0, 0.02, 80)))
_GOLDEN_DATES = [f"2021-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(80)]

# case -> (command, config, input file or None)
GOLDEN_CONFIGS = {
    "sim-conservative": (
        "sim-conservative",
        "[conservative]\nsteps = 30\nn_microstates = 12\nbets_per_step = 3\nseed = 7\n",
        None,
    ),
    # grain churn (20 grains injected, 15 removed closest-to-equilibrium)
    # and periodic histograms
    "sim-dissipative": (
        "sim-dissipative",
        "[dissipative]\nsteps = 40\ngrain_sizes = 8, 12, 20\nseed = 3\n"
        "injection_prob = 0.4\ninjection_size_range = 5, 15\n"
        "removal_prob = 0.35\nremoval_policy = closest-to-equilibrium\n"
        "\n[io]\nhistogram_bins = 13\nhistogram_every = 10\n",
        None,
    ),
    # the default grains at the default per-capita rate: up to 187 bets
    # per grain per step, where the other cases bet at most 5 pairs
    "sim-dissipative-default-rate": (
        "sim-dissipative",
        "[dissipative]\nsteps = 20\nseed = 11\n\n[io]\nhistogram_every = 10\n",
        None,
    ),
    "gen-returns": (
        "gen-returns",
        "[superstat]\nkind = generalized-inverse-gamma\nalpha = 3.0\nbeta = 2.0\n"
        "gamma = 1.5\nn = 400\ntau = 3\nseed = 9\nslow_mixing = true\n",
        None,
    ),
    "gen-returns-constant": (
        "gen-returns",
        "[superstat]\nkind = constant\nsigma0 = 0.7\nn = 400\ntau = 3\nseed = 9\n",
        None,
    ),
    # gamma is set but not read: the inverse-gamma law has no gamma
    "gen-returns-inverse-gamma": (
        "gen-returns",
        "[superstat]\nkind = inverse-gamma\nalpha = 3.0\nbeta = 2.0\n"
        "gamma = 1.5\nn = 400\ntau = 3\nseed = 9\n",
        None,
    ),
    "fit-variance": (
        "fit-variance",
        "[inference]\nmu = 0.1\nprior_alpha = 2.5\nprior_beta = 1.5\n\n[io]\ninput = in.csv\n",
        _GOLDEN_RETURNS,
    ),
    "compare-models": (
        "compare-models",
        "[inference]\nmodels = gaussian-known-mean, exponential\nmodel_priors = 0.3, 0.7\n"
        "model_alphas = 3.0, 2.0\nmodel_betas = 2.0, 1.0\n\n[io]\ninput = in.csv\n",
        _GOLDEN_POSITIVE,
    ),
    "ingest-t": (
        "ingest",
        "[superstat]\ntau = 3\n\n[io]\ninput = in.csv\n",
        "t,price\n" + "".join(f"{i},{p!r}\n" for i, p in enumerate(_GOLDEN_PRICES.tolist())),
    ),
    "ingest-date": (
        "ingest",
        "[io]\ninput = in.csv\n",
        "date,price\n" + "".join(f"{d},{p!r}\n" for d, p in zip(_GOLDEN_DATES, _GOLDEN_PRICES.tolist())),
    ),
}

GOLDEN_DIGESTS = {
    "sim-conservative": {
        "microstates.csv": "74c185c90212a952e9f5d87f9bb12a0dae6909ba04fe70e83083b5aa4bb585d0",
        "trajectory.csv": "9800f80f835c17f1c5c296ebea84064667812c8b3e3318f2ba7a5cf8787cf902",
    },
    "sim-dissipative": {
        "grains.csv": "075795f31cb8ad5b92315ca316b6686ee85715d57af6b7e25c8cb9072bf661aa",
        "histogram_0.csv": "d3ea229f45a7ca94617a19bc8a360cd4ed95eabbf24fcc7af3bffa8ae65e597d",
        "histogram_10.csv": "7c9473c66ad9c537701284853b9be59c2a815858fb1fde4f842069a439cc47b7",
        "histogram_20.csv": "46f7e21cd9d823554d7721c8d8a70d1ea661d2133b289857926b5fa61dc02189",
        "histogram_30.csv": "9f46403f1e942c0630ea93d7731acab3d9bd39564a0891466eeb792a64111750",
        "histogram_40.csv": "2c8a9ddf71989d29a00bf08097485385b76a6341c0d6ec9431db2b8363dfaba0",
        "trajectory.csv": "6515dc846ba07d1cc6b1c2468f2e4f7d625c9f83fb085b419d3ac82746c8ff81",
    },
    "sim-dissipative-default-rate": {
        "grains.csv": "7c8488915a59ddee01b0f05e98fdbc99831bc3b4d5c065946186dd163e0914ed",
        "histogram_0.csv": "2f3d5b3b826f560b4594d29fbc30ea6b51d5401d05b88fa904ab561f3d927d9c",
        "histogram_10.csv": "b9d5fe6ec9086ffae1801a692e49be14162ab2ef4a476f57c98d715b9bf2bb39",
        "histogram_20.csv": "274eba2c412e11160396740f4893ce457f64b5c63609ef0dc7d17297064dd4c4",
        "trajectory.csv": "31dcd5ebc6934dd732b8a0c47a6e9df4e0d9d856a2784113e353316dd8edc784",
    },
    "gen-returns": {
        "returns.csv": "561026068def558d90cfd97af0cdeaa021ea378551f8391d87101fb9fe69fefa",
    },
    "gen-returns-constant": {
        "returns.csv": "ded52a11dff5e600f8e0809b9d147ea15861f6926a14b3c920bedfc263ddf4c6",
    },
    "gen-returns-inverse-gamma": {
        "returns.csv": "eb7a59fe3bc3e87a8ec9a43fd826f82eaeca660f6bb2421d9c57ae291b4a54cd",
    },
    "fit-variance": {
        "fit.csv": "24644a1825e9aee3590dc8b66d0e393cce16ca94585ace3e5cac88ac06e91f22",
    },
    "compare-models": {
        "models.csv": "d5cc2d01210d54714df6cdfc70b93cfada5baf77cc3169fe1492a8d99bea3431",
    },
    "ingest-t": {
        "returns.csv": "ec78b85e4d72267ba1977aab60a52a352cc9a5eb5a443458ba16817dac4cc50f",
    },
    "ingest-date": {
        "returns.csv": "4fd449974adb88062fb2e5deb2639b7059f57435aeb7492e1318c1234cd63889",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CONFIGS))
def test_simulation_outputs_match_golden_digests(workdir, case):
    command, config, data = GOLDEN_CONFIGS[case]
    if data is not None:
        _write(workdir, "in.csv", data)
    cfg = _write(workdir, "g.ini", config)
    assert dispatch([command, "--config", cfg, "--out", "o"]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (workdir / "o").iterdir()
    }
    assert got == GOLDEN_DIGESTS[case]


# ---------------------------------------------------------------------------
# exit-code contract: one error line, no traceback

FIT = "[inference]\nmu = 0.0\n\n[io]\ninput = in.csv\n"
INGEST = "[io]\ninput = in.csv\n"
BIG_SEED = f"seed = {2**64}\n"
OVERFLOW_RETURNS = "i,value\n0,1e200\n1,-1e200\n2,3e199\n"
HUGE_HISTOGRAM = f"[dissipative]\nsteps = 1\n\n[io]\nhistogram_bins = {10**17}\n"
# 2**62 elements: numpy refuses the array size before allocating anything
TOO_BIG = 2**62
OVERFLOW_EXPONENTIAL = (
    "[inference]\nmodels = exponential\nmodel_priors = 1.0\nmodel_alphas = 3.0\n"
    "model_betas = 2.0\n\n[io]\ninput = in.csv\n"
)
# 50 N(0, 1) returns, and priors whose upper quantile underflows to 0: an
# empty evidence domain
NORMAL_RETURNS = "i,value\n" + "".join(
    f"{i},{x!r}\n" for i, x in enumerate(np.random.default_rng(0).normal(0.0, 1.0, 50).tolist())
)
UNDERFLOWING_FIT = "[inference]\nprior_alpha = 1e300\nprior_beta = 1e-100\n\n[io]\ninput = in.csv\n"
UNDERFLOWING_MODELS = (
    "[inference]\nmodels = gaussian-known-mean\nmodel_priors = 1.0\nmodel_alphas = 1e300\n"
    "model_betas = 1e-100\n\n[io]\ninput = in.csv\n"
)


def _histogram_bins(bins: int) -> str:
    return f"[dissipative]\nsteps = 1\ngrain_sizes = 4\n\n[io]\nhistogram_bins = {bins}\n"


# (command, config) runs whose configured sizes numpy refuses
TOO_BIG_RUNS = [
    (
        "sim-conservative",
        f"[conservative]\nsteps = 3\nn_microstates = {TOO_BIG}\n\n"
        "[io]\nwrite_microstates = false\n",
    ),
    ("sim-conservative", f"[conservative]\nsteps = {TOO_BIG}\nn_microstates = 4\n"),
    (
        "sim-conservative",
        f"[conservative]\nsteps = {TOO_BIG}\nn_microstates = 4\n\n[io]\nwrite_microstates = false\n",
    ),
    ("sim-dissipative", f"[dissipative]\nsteps = 3\ngrain_sizes = {TOO_BIG}\nbets_per_grain = 1\n"),
    ("sim-dissipative", _histogram_bins(TOO_BIG)),
]
TOO_BIG_IDS = [
    "n-microstates-2**62",
    "conservative-steps-2**62",
    "conservative-steps-2**62-unrecorded",
    "grain-size-2**62",
    "histogram-bins-2**62",
]


@pytest.mark.parametrize(
    "command, config, data, extra, code",
    [
        ("fit-variance", FIT, "i,value\n0,1.0\n1,nan\n", [], 3),
        ("fit-variance", FIT, "i,value\n0,1.0\n1,inf\n", [], 3),
        ("sim-conservative", CONSERVATIVE, "", ["--seed", "-1"], 2),
        ("sim-conservative", CONSERVATIVE, "", ["--seed", str(2**64)], 2),
        ("ingest", INGEST, "t,price\n0,1e308\n1,1e-308\n2,1.0\n", [], 3),
        ("sim-conservative", "[conservative]\nsteps = 2\n" + BIG_SEED, "", [], 2),
        ("sim-dissipative", "[dissipative]\nsteps = 2\n" + BIG_SEED, "", [], 2),
        ("gen-returns", "[superstat]\nn = 10\n" + BIG_SEED, "", [], 2),
        ("fit-variance", FIT, b"i,value\n0,1.0\n1,\xe9\n", [], 3),
        ("ingest", INGEST, b"t,price\n0,1.0\n1,\xe9\n", [], 3),
        ("fit-variance", FIT, "i,value\n0," + "1" * 200_000 + "\n", [], 3),
        ("sim-conservative", CONSERVATIVE.encode() + b"# \xe9\n", "", [], 2),
        ("sim-conservative", "i,value\n0,1.0\n", "", [], 2),
        ("sim-conservative", CONSERVATIVE, "", ["--out", "in.csv"], 2),
        ("sim-conservative", CONSERVATIVE, "", ["--out", "in.csv/o"], 2),
        ("fit-variance", FIT.replace("0.0", "nan"), "i,value\n0,1.0\n", [], 2),
        ("fit-variance", FIT, OVERFLOW_RETURNS, [], 3),
        ("compare-models", OVERFLOW_EXPONENTIAL, "i,value\n0,1e308\n1,1e308\n", [], 3),
        # 8e17 bytes: past any address space, so the allocation fails at once
        ("gen-returns", f"[superstat]\nn = {10**17}\n", "", [], 2),
        ("sim-dissipative", HUGE_HISTOGRAM, "", [], 2),
        # variance draws of inf: the gamma variates underflow to 0
        ("gen-returns", "[superstat]\nalpha = 0.001\nbeta = 1.0\nn = 2000\n", "", [], 2),
        (
            "gen-returns",
            "[superstat]\nkind = generalized-inverse-gamma\nalpha = 1\nbeta = 1e200\n"
            "gamma = 0.001\nn = 200\n",
            "", [], 2,
        ),
        ("fit-variance", UNDERFLOWING_FIT, NORMAL_RETURNS, [], 4),
        ("compare-models", UNDERFLOWING_MODELS, NORMAL_RETURNS, [], 4),
        # np.linspace fails on an empty array for edges from 2**63 - 2 on
        ("sim-dissipative", _histogram_bins(2**63 - 2), "", [], 2),
        ("sim-dissipative", _histogram_bins(2**64), "", [], 2),
        ("sim-dissipative", _histogram_bins(0), "", [], 2),
        *[(command, config, "", [], 2) for command, config in TOO_BIG_RUNS],
    ],
    ids=[
        "fit-variance-nan",
        "fit-variance-inf",
        "seed-negative",
        "seed-2**64",
        "ingest-overflow",
        "conservative-seed-2**64",
        "dissipative-seed-2**64",
        "superstat-seed-2**64",
        "returns-not-utf8",
        "prices-not-utf8",
        "returns-field-too-large",
        "config-not-utf8",
        "config-without-section",
        "out-is-file",
        "out-under-file",
        "inference-mu-nan",
        "returns-overflow",
        "returns-overflow-exponential",
        "superstat-n-10**17",
        "histogram-bins-10**17",
        "superstat-variance-inf",
        "superstat-volatility-overflow",
        "fit-variance-empty-domain",
        "compare-models-empty-domain",
        "histogram-bins-2**63-2",
        "histogram-bins-2**64",
        "histogram-bins-0",
        *TOO_BIG_IDS,
    ],
)
def test_bad_input_exits_with_one_error_line(workdir, capsys, command, config, data, extra, code):
    _write(workdir, "in.csv", data)
    cfg = _write(workdir, "c.ini", config)
    assert dispatch([command, "--config", cfg, "--out", "o"] + extra) == code
    _assert_one_error_line(capsys.readouterr().err)
    assert not (workdir / "o").exists()  # nothing written, no directory left


@pytest.mark.parametrize(
    "command, config",
    [*TOO_BIG_RUNS, ("sim-dissipative", CONSERVATIVE)],
    ids=[*TOO_BIG_IDS, "missing-section"],
)
def test_a_failed_command_removes_the_out_dir_it_made(workdir, capsys, command, config):
    cfg = _write(workdir, "c.ini", config)
    assert dispatch([command, "--config", cfg, "--out", "new/o"]) == 2
    _assert_one_error_line(capsys.readouterr().err)
    assert not (workdir / "new").exists()
    # an --out directory that was there before stays, with what it held
    (workdir / "o").mkdir()
    (workdir / "o" / "keep.txt").write_text("kept")
    assert dispatch([command, "--config", cfg, "--out", "o"]) == 2
    _assert_one_error_line(capsys.readouterr().err)
    assert [p.name for p in (workdir / "o").iterdir()] == ["keep.txt"]


def test_a_run_that_fails_midway_leaves_no_microstates_csv(workdir, capsys, monkeypatch):
    # the run raises at step 200, after the birth and three blocks of
    # BLOCK_STEPS steps have been written
    cfg = _write(workdir, "c.ini", "[conservative]\nsteps = 300\nn_microstates = 10\n")
    draw, draws = conservative._draw, []

    def failing_draw(rng, n, bets):
        draws.append(None)
        if len(draws) == 200:
            assert (workdir / "o" / "microstates.csv").exists()
            raise ValueError("no draw at step 200")
        return draw(rng, n, bets)

    monkeypatch.setattr(conservative, "_draw", failing_draw)
    (workdir / "o").mkdir()
    (workdir / "o" / "keep.txt").write_text("kept")
    assert dispatch(["sim-conservative", "--config", cfg, "--out", "o"]) == 2
    _assert_one_error_line(capsys.readouterr().err)
    assert [p.name for p in (workdir / "o").iterdir()] == ["keep.txt"]


def test_a_recorded_run_holds_no_ledger_record(workdir, capsys):
    # microstates.csv is written block by block as the run books it, so
    # writing it adds less to the traced peak than the 1.6 MB that the
    # run's ledgers would take
    recorded = "[conservative]\nsteps = 1000\nn_microstates = 100\n"
    unrecorded = recorded + "\n[io]\nwrite_microstates = false\n"

    def peak(config, out):
        cfg = _write(workdir, "c.ini", config)
        tracemalloc.start()
        try:
            assert dispatch(["sim-conservative", "--config", cfg, "--out", out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(recorded, "warm-up")
    assert peak(recorded, "recorded") - peak(unrecorded, "unrecorded") <= 0.5 * 2**20


INFERENCE_KEYS = "[inference]\n{}\n\n[io]\ninput = in.csv\n"


@pytest.mark.parametrize(
    "setting",
    [
        "prior_alpha = 0",
        "prior_beta = -1",
        "models = gaussian-known-mean, lognormal",
        "model_alphas = 3.0, 0",
        "rel_tol = 0",
        "model_priors = 0.6, 0.6",
        "model_betas = 2.0",
    ],
)
def test_inference_checks_keep_their_exit_code(workdir, capsys, setting):
    config = INFERENCE_KEYS.format(setting)
    with pytest.raises(ConfigError, match=r"invalid \[inference\] configuration"):
        parse_config(config)
    _write(workdir, "in.csv", "i,value\n0,1.0\n1,2.0\n")
    cfg = _write(workdir, "c.ini", config)
    for command in ("fit-variance", "compare-models"):
        assert dispatch([command, "--config", cfg, "--out", "o"]) == 2
        _assert_one_error_line(capsys.readouterr().err)
    assert not list(workdir.glob("o/*"))


DEFAULT_SECTIONS = emit_config(RunConfig(superstat=SuperstatConfig(), io=IoConfig()))


@pytest.mark.parametrize(
    "command, config",
    [
        ("sim-conservative", CONSERVATIVE),
        ("sim-dissipative", "[dissipative]\nsteps = 30\ngrain_sizes = 6, 10\nseed = 2\n"),
        ("ingest", ""),
    ],
)
def test_a_missing_section_means_its_defaults(workdir, command, config):
    _write(workdir, "in.csv", "t,price\n0,10.0\n1,11.0\n2,10.5\n3,12.0\n")
    # ingest needs [io] input, so there only [superstat] is left out
    missing = config + ("\n[io]\ninput = in.csv\n" if command == "ingest" else "")
    spelled = config + DEFAULT_SECTIONS.replace("input = \n", "input = in.csv\n")
    outputs = []
    for name, text in (("missing", missing), ("spelled", spelled)):
        cfg = _write(workdir, f"{name}.ini", text)
        assert dispatch([command, "--config", cfg, "--out", name]) == 0
        outputs.append({p.name: p.read_bytes() for p in (workdir / name).iterdir()})
    assert outputs[0] == outputs[1]
    assert outputs[0]


def _assert_one_error_line(err):
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


# CSV fields as bytes: numbers (positive ones twice as often, so that
# exponential models and prices often succeed; signed; any float at
# all), malformed numbers, blank and quoted fields, and stray bytes
CSV_NUMBERS = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(-5.0, 5.0),
    st.floats(allow_nan=True, allow_infinity=True),
).map(lambda x: repr(x).encode())
CSV_FIELDS = st.one_of(
    CSV_NUMBERS,
    st.integers(-(10**6), 10**6).map(lambda i: str(i).encode()),
    st.sampled_from([
        b"", b" ", b"abc", b"1_000", b"0x1p3", b"1e999", b"-1e999", b"1e-320", b"+3", b".5",
        b" 2.5 ", b'"1.5"', b'"', b'"a,b"', b"\r", b"1\r", b"\xff", b"\x00", b"1.0\x00",
        b"2024-01-0\xff",
    ]),
)
# well-formed rows (line number, value), in about half the examples
# with one or two rows of arbitrary fields inserted at arbitrary places
CSV_VALUES = st.lists(CSV_NUMBERS, max_size=20)
CSV_ODD_ROWS = st.one_of(
    st.just([]),
    st.lists(
        st.tuples(st.integers(0, 20), st.lists(CSV_FIELDS, min_size=1, max_size=3)),
        min_size=1,
        max_size=2,
    ),
)
FUZZ_CONFIGS = {
    "fit-variance": (b"i,value", "[inference]\n"),
    "compare-models": (b"i,value", "[inference]\n"),
    "ingest": (b"t,price", "[superstat]\ntau = 1\n"),
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    command=st.sampled_from(sorted(FUZZ_CONFIGS)),
    header=st.sampled_from([True, True, False]),
    values=CSV_VALUES,
    odd_rows=CSV_ODD_ROWS,
    newline=st.sampled_from([b"\n", b"\r\n", b"\r"]),
)
def test_csv_bytes_keep_the_exit_code_contract(command, header, values, odd_rows, newline):
    head, section = FUZZ_CONFIGS[command]
    lines = [b"%d,%s" % (k, v) for k, v in enumerate(values)]
    for at, fields in odd_rows:
        lines.insert(at, b",".join(fields))
    if header:
        lines.insert(0, head)
    with tempfile.TemporaryDirectory() as tmp:
        data, out = os.path.join(tmp, "in.csv"), os.path.join(tmp, "o")
        Path(data).write_bytes(b"".join(line + newline for line in lines))
        cfg = _write(Path(tmp), "c.ini", f"{section}\n[io]\ninput = {data}\n")
        err = io.StringIO()
        with (
            warnings.catch_warnings(),
            contextlib.redirect_stderr(err),
            contextlib.redirect_stdout(io.StringIO()),
        ):
            warnings.simplefilter("error")
            code = dispatch([command, "--config", cfg, "--out", out])
        assert code in (0, 2, 3, 4)
        if code != 0:
            _assert_one_error_line(err.getvalue())
            assert not os.path.exists(out)  # the failed run removed the directory it made
            return
        for name in os.listdir(out):
            _assert_finite_csv(Path(out, name))


# moments that are NaN by definition for a zero-variance population
_NAN_COLUMNS = {"skewness", "excess_kurtosis"}


def _assert_finite_csv(path, allowed=()):
    """Every number in the file is finite, but NaN moments and the lines of
    ``allowed``."""
    header, *rows = path.read_text().splitlines()
    columns = header.split(",")
    for line in rows:
        if line in allowed:
            continue
        for column, field in zip(columns, line.split(",")):
            try:
                value = float(field)
            except ValueError:
                continue  # a model id or the selection mark
            if not (column in _NAN_COLUMNS and math.isnan(value)):
                assert math.isfinite(value), (path, line)


# every section the commands read, sized so that each command runs in
# milliseconds; ingest rejects the returns file's header with exit 3
ARGV_CONFIG = (
    "[conservative]\nsteps = 3\nn_microstates = 6\n\n"
    "[dissipative]\nsteps = 3\ngrain_sizes = 4, 6\n\n"
    "[superstat]\nn = 20\n\n"
    "[inference]\n\n"
    "[io]\ninput = {input}\n"
)
ARGV_COMMANDS = st.sampled_from(
    [None, "--version", "frobnicate", "sim-conservative", "sim-dissipative", "gen-returns",
     "fit-variance", "compare-models", "ingest"]
)
# a path relative to the example's directory: "config.ini" and "in.csv"
# exist, "d" is a directory, and the not-UTF-8 name decodes as it would
# from a POSIX argv (surrogate escapes)
ARGV_PATHS = st.sampled_from(
    ["config.ini", "in.csv", "absent.ini", "d", "d/new", "config.ini/o", "", "a\nb",
     os.fsdecode(b"\xff.ini"), os.fsdecode(b"o\xff")]
)
ARGV_SEEDS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from([str(2**64), str(2**64 - 1), "-0", "1_0", " 4 ", "1e3", "abc", "", "0x10"]),
)
ARGV_FLAGS = st.one_of(
    st.tuples(st.just("--config"), ARGV_PATHS),
    st.tuples(st.just("--out"), ARGV_PATHS),
    st.tuples(st.just("--seed"), ARGV_SEEDS),
    st.sampled_from([("--config",), ("--seed",), ("--bogus", "1"), ("extra",), ("--help",)]),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    command=ARGV_COMMANDS,
    config=st.one_of(st.just("config.ini"), st.none(), ARGV_PATHS),
    out=st.one_of(st.just("o"), st.none(), ARGV_PATHS),
    flags=st.lists(ARGV_FLAGS, max_size=2),
)
def test_argv_keeps_the_exit_code_contract(command, config, out, flags):
    argv = [] if command is None else [command]
    argv += ["--config", config] if config is not None else []
    argv += ["--out", out] if out is not None else []
    for flag in flags:
        argv += flag
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            os.mkdir("d")
            Path("in.csv").write_text(_returns_text([0.5, 1.5, 0.25, 2.0, 1.0, 0.75]))
            Path("config.ini").write_text(ARGV_CONFIG.format(input="in.csv"))
            err = io.StringIO()
            with (
                warnings.catch_warnings(),
                contextlib.redirect_stderr(err),
                contextlib.redirect_stdout(io.StringIO()),
            ):
                warnings.simplefilter("error")
                code = dispatch(argv)
            assert code in (0, 2, 3, 4), argv
            if code != 0:
                _assert_one_error_line(err.getvalue())
            for out_dir, _, names in os.walk("."):
                for name in names if out_dir != "." else ():
                    _assert_finite_csv(Path(out_dir, name))
        finally:
            os.chdir(cwd)


SUPERSTAT_FLOATS = st.floats(1e-300, 1e300)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["inverse-gamma", "generalized-inverse-gamma", "constant"]),
    alpha=SUPERSTAT_FLOATS,
    beta=SUPERSTAT_FLOATS,
    gamma=SUPERSTAT_FLOATS,
    sigma0=SUPERSTAT_FLOATS,
    n=st.integers(1, 20),
    tau=st.integers(1, 4),
    slow_mixing=st.booleans(),
)
def test_gen_returns_keeps_the_exit_code_contract(
    kind, alpha, beta, gamma, sigma0, n, tau, slow_mixing
):
    config = (
        f"[superstat]\nkind = {kind}\nalpha = {alpha!r}\nbeta = {beta!r}\n"
        f"gamma = {gamma!r}\nsigma0 = {sigma0!r}\nn = {n}\ntau = {tau}\n"
        f"slow_mixing = {str(slow_mixing).lower()}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = _write(Path(tmp), "c.ini", config), os.path.join(tmp, "o")
        err = io.StringIO()
        with (
            warnings.catch_warnings(),
            contextlib.redirect_stderr(err),
            contextlib.redirect_stdout(io.StringIO()),
        ):
            warnings.simplefilter("error")
            code = dispatch(["gen-returns", "--config", cfg, "--out", out])
        assert code in (0, 2), config
        if code == 2:
            _assert_one_error_line(err.getvalue())
            assert not os.path.exists(out)  # the failed run removed the directory it made
            return
        assert err.getvalue() == ""
        values = read_returns_csv(os.path.join(out, "returns.csv")).samples
        assert values.size == n and np.isfinite(values).all()


# each key's valid values, then its invalid ones: sizes up to 150, or too
# small, or too large for memory
SIM_SIZES = (st.integers(2, 150), st.sampled_from([-1, 0, 1, 2**62]))
SIM_SEEDS = (st.integers(0, 5), st.sampled_from([-1, 2**64]))
SIM_PROBS = (
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)), st.sampled_from([-0.5, 1.5])
)
SIM_SECTIONS = {
    "sim-conservative": ("conservative", {
        "steps": (st.integers(0, 12), st.just(-1)),
        "n_microstates": SIM_SIZES,
        "bets_per_step": (st.integers(1, 3), st.sampled_from([0, 2**62])),
        "seed": SIM_SEEDS,
    }),
    "sim-dissipative": ("dissipative", {
        "steps": (st.integers(0, 12), st.just(-1)),
        "grain_sizes": tuple(
            st.lists(sizes, min_size=1, max_size=3).map(lambda s: ", ".join(map(str, s)))
            for sizes in SIM_SIZES
        ),
        "seed": SIM_SEEDS,
        "bets_fraction": (st.floats(0.01, 1.0), st.sampled_from([0.0, -0.5, 1.5])),
        "bets_per_grain": (st.integers(1, 3), st.sampled_from([0, 2**62])),
        "injection_prob": SIM_PROBS,
        "injection_size_range": tuple(
            st.tuples(sizes, SIM_SIZES[0]).map(lambda pair: "{}, {}".format(*sorted(pair)))
            for sizes in SIM_SIZES
        ),
        "removal_prob": SIM_PROBS,
        "removal_policy": (
            st.sampled_from(["oldest", "random", "closest-to-equilibrium"]), st.just("newest")
        ),
    }),
}
SIM_IO = {
    "histogram_bins": (st.sampled_from([1, 7, 50]), st.sampled_from([0, -1, 2**62])),
    "histogram_every": (st.sampled_from([0, 1, 3, 2**62]), st.just(-1)),
    "write_microstates": (st.sampled_from(["true", "false"]), st.just("maybe")),
}


@st.composite
def _sim_config(draw, command):
    """The command's section and [io], with every key's value drawn or left
    out (but steps), and in about half the configs one key's value invalid."""
    name, keys = SIM_SECTIONS[command]
    sections = ((name, keys), ("io", SIM_IO))
    broken = draw(st.one_of(st.none(), st.sampled_from([*keys, *SIM_IO])))
    text = ""
    for section, values in sections:
        text += f"[{section}]\n"
        for key, (valid, invalid) in values.items():
            if key == broken:
                value = draw(invalid)
            elif key == "steps" or draw(st.booleans()):
                value = draw(valid)
            else:
                continue  # a key left out takes its default
            text += f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
    return text


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(SIM_SECTIONS)))
def test_simulation_commands_keep_the_exit_code_contract(data, command):
    config = data.draw(_sim_config(command))
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = _write(Path(tmp), "c.ini", config), os.path.join(tmp, "o")
        err = io.StringIO()
        with (
            warnings.catch_warnings(),
            contextlib.redirect_stderr(err),
            contextlib.redirect_stdout(io.StringIO()),
        ):
            warnings.simplefilter("error")
            code = dispatch([command, "--config", cfg, "--out", out])
        assert code in (0, 2), config
        if code == 2:
            _assert_one_error_line(err.getvalue())
            assert not os.path.exists(out)  # the failed run removed the directory it made
            return
        assert err.getvalue() == ""
        for name in os.listdir(out):
            _assert_finite_csv(Path(out, name))


# prior parameters: any positive float, five times as often as one that exits 2
INFERENCE_FLOATS = st.one_of(
    *[st.floats(1e-300, 1e308)] * 5, st.sampled_from([math.nan, math.inf, 0.0, -1.0, -1e-300])
)
INFERENCE_MODELS = st.lists(
    st.sampled_from(["gaussian-known-mean", "exponential"]), min_size=1, max_size=2
)
# a signed returns file, which exponential models reject, and a positive one
INFERENCE_RETURNS = [[0.5, -1.25, 0.125, 2.0, -0.75], [0.5, 1.25, 0.125, 2.0, 0.75]]
# the posterior mean of a variance is infinite for a shape of at most 1
INFINITE_MEAN = ("posterior_mean_variance,inf",)


@st.composite
def _inference_section(draw):
    """An [inference] section with every key drawn or left out at random:
    one or two models, their parallel lists of the same length, priors
    from INFERENCE_FLOATS and model priors that sum to 1 or do not.  A
    single model's lists are written or left out with it, since the
    defaults are two models long."""
    models = draw(INFERENCE_MODELS)
    k = len(models)
    with_models = draw(st.booleans())
    split = draw(st.floats(0.0, 1.0))
    values = {
        "mu": draw(st.sampled_from([0.0, 0.5, -1.0])),
        "prior_alpha": draw(INFERENCE_FLOATS),
        "prior_beta": draw(INFERENCE_FLOATS),
        "models": ", ".join(models),
        "model_priors": draw(st.one_of(
            st.just([1.0] if k == 1 else [split, 1.0 - split]),
            st.lists(INFERENCE_FLOATS, min_size=k, max_size=k),
        )),
        "model_alphas": draw(st.lists(INFERENCE_FLOATS, min_size=k, max_size=k)),
        "model_betas": draw(st.lists(INFERENCE_FLOATS, min_size=k, max_size=k)),
        "rel_tol": draw(st.floats(1e-15, 0.5)),
    }
    text = "[inference]\n"
    for key, value in values.items():
        if with_models if k == 1 and key.startswith("model") else draw(st.booleans()):
            if isinstance(value, list):
                value = ", ".join(map(repr, value))
            text += f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
    return text


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    section=_inference_section(),
    command=st.sampled_from(["fit-variance", "compare-models"]),
    returns=st.sampled_from(INFERENCE_RETURNS),
)
def test_inference_sections_keep_the_exit_code_contract(section, command, returns):
    with tempfile.TemporaryDirectory() as tmp:
        data, out = os.path.join(tmp, "in.csv"), os.path.join(tmp, "o")
        Path(data).write_text(_returns_text(returns))
        cfg = _write(Path(tmp), "c.ini", f"{section}\n[io]\ninput = {data}\n")
        err = io.StringIO()
        with (
            warnings.catch_warnings(),
            contextlib.redirect_stderr(err),
            contextlib.redirect_stdout(io.StringIO()),
        ):
            warnings.simplefilter("error")
            code = dispatch([command, "--config", cfg, "--out", out])
        assert code in (0, 2, 3, 4), section
        if code != 0:
            _assert_one_error_line(err.getvalue())
            assert not os.path.exists(out)  # the failed run removed the directory it made
            return
        assert err.getvalue() == ""
        for name in os.listdir(out):
            _assert_finite_csv(Path(out, name), allowed=INFINITE_MEAN)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_write_failure_exits_3(workdir, capsys):
    # the file opens fine; the write fails when the buffer is flushed
    cfg = _write(workdir, "c.ini", CONSERVATIVE)
    (workdir / "o").mkdir()
    (workdir / "o" / "trajectory.csv").symlink_to("/dev/full")
    assert dispatch(["sim-conservative", "--config", cfg, "--out", "o"]) == 3
    _assert_one_error_line(capsys.readouterr().err)
    # a returns file above the split size: the write fails while a forked
    # child formats the second half, which is killed and reaped
    cfg = _write(workdir, "gen.ini", "[superstat]\nn = 40000\n")
    (workdir / "o" / "returns.csv").symlink_to("/dev/full")
    assert dispatch(["gen-returns", "--config", cfg, "--out", "o"]) == 3
    _assert_one_error_line(capsys.readouterr().err)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_exit_codes_hold_in_a_fresh_interpreter(workdir):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def betsim(*argv):
        return subprocess.run(
            [sys.executable, "-m", "betsim.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    proc = betsim("--version")
    assert proc.returncode == 0 and __version__ in proc.stdout
    _write(workdir, "returns.csv", _returns_text(np.random.default_rng(1).normal(0, 1, 50)))
    _write(workdir, "nan.csv", "i,value\n0,nan\n")
    cases = [
        ("absent.ini", None, 2),
        ("nan.ini", FIT.replace("in.csv", "nan.csv"), 3),
        ("slow.ini", NOT_CONVERGING, 4),
    ]
    for name, config, code in cases:
        if config is not None:
            _write(workdir, name, config)
        proc = betsim("fit-variance", "--config", name, "--out", "o")
        assert proc.returncode == code, proc.stderr
        _assert_one_error_line(proc.stderr)


def test_split_commands_write_each_line_once_in_a_fresh_interpreter(workdir):
    # stdout is a pipe, so "wrote" lines wait in its buffer while later
    # commands fork: a child that flushed it, or the output file's buffer,
    # would print a line twice or write a header twice
    src = Path(__file__).resolve().parents[1] / "src"
    n = 200_000  # a returns file of about 5 MB: the writer and both readers split
    _write(workdir, "gen.ini", f"[superstat]\nn = {n}\n")
    _write(workdir, "fit.ini", "[inference]\n[io]\ninput = g/returns.csv\n")
    _write(workdir, "ingest.ini", "[io]\ninput = prices.csv\n")
    prices = 100 * np.exp(np.cumsum(np.random.default_rng(2).normal(0, 1e-3, n)))
    _write(workdir, "prices.csv", "t,price\n" + "".join(
        f"{t},{p!r}\n" for t, p in enumerate(prices.tolist())
    ))
    code = (
        "import sys\n"
        "from betsim.cli import dispatch\n"
        "print('start')\n"
        "for command, config, out in (('gen-returns', 'gen.ini', 'g'),\n"
        "        ('fit-variance', 'fit.ini', 'f'), ('ingest', 'ingest.ini', 'i')):\n"
        "    assert dispatch([command, '--config', config, '--out', out]) == 0\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # buffer stdout
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env=dict(env, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "start", f"wrote {os.path.join('g', 'returns.csv')}", f"wrote {os.path.join('f', 'fit.csv')}",
        f"wrote {os.path.join('i', 'returns.csv')}",
    ]
    for out, rows in (("g", n), ("i", n - 1)):
        text = (workdir / out / "returns.csv").read_text()
        assert text.startswith("i,value\n0,") and text.count("i,value") == 1
        assert text.count("\n") == rows + 1
    fit = (workdir / "f" / "fit.csv").read_text()
    assert f"\nn,{n}\n" in fit


def _fresh_betsim(*argv, **kwargs):
    """Start ``python -m betsim.cli argv`` in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.Popen(
        [sys.executable, "-m", "betsim.cli", *argv], env=dict(env, PYTHONPATH=str(src)), **kwargs
    )


def _ignore_sigchld():
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)  # a disposition that survives exec


def test_split_commands_with_sigchld_ignored_write_the_default_bytes(workdir):
    # with SIGCHLD ignored the kernel reaps a child itself, so no exit
    # status can be read: the commands keep to one process, with the same bytes
    n = 300_000
    _write(workdir, "gen.ini", f"[superstat]\nn = {n}\n")
    _write(workdir, "fit.ini", "[inference]\n[io]\ninput = returns.csv\n")
    _write(workdir, "ingest.ini", "[io]\ninput = prices.csv\n")
    samples = np.random.default_rng(3).normal(0, 1e-3, n)
    _write(workdir, "returns.csv", _returns_text(samples))
    _write(workdir, "prices.csv", "t,price\n" + "".join(
        f"{t},{p!r}\n" for t, p in enumerate((100 * np.exp(np.cumsum(samples))).tolist())
    ))
    for command, config in (("gen-returns", "gen.ini"), ("fit-variance", "fit.ini"),
                            ("ingest", "ingest.ini")):
        outs = []
        for label, preexec in (("default", None), ("ignored", _ignore_sigchld)):
            out = f"{command}-{label}"
            proc = _fresh_betsim(command, "--config", config, "--out", out, preexec_fn=preexec,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            (name,) = os.listdir(out)
            outs.append((workdir / out / name).read_bytes())
        assert outs[0] == outs[1], command


def _close_fd_1():
    os.close(1)


def _run_with_stdout(where, argv):
    """Exit code and stderr of a fresh ``betsim argv`` whose stdout is a
    pipe closed at once or after one line, ``/dev/full`` or closed."""
    if where.startswith("pipe"):
        proc = _fresh_betsim(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if where == "pipe closed after one line":
            proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=120), err.decode()
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open("/dev/full", "w")) if where == "/dev/full" else None
        proc = _fresh_betsim(*argv, stdout=out, stderr=subprocess.PIPE,
                             preexec_fn=_close_fd_1 if where == "closed" else None)
        _, err = proc.communicate(timeout=120)
    return proc.returncode, err.decode()


@pytest.mark.parametrize(
    "where", ["pipe closed at once", "pipe closed after one line", "/dev/full", "closed"]
)
@pytest.mark.parametrize("command, config", [
    ("sim-dissipative", "[dissipative]\nsteps = 40\n[io]\nhistogram_every = 10\n"),
    ("gen-returns", "[superstat]\nn = 40000\n"),
])
def test_stdout_failures_keep_the_exit_code_contract(workdir, capsys, where, command, config):
    if where == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("needs the /dev/full device")
    _write(workdir, "run.ini", config)
    assert dispatch([command, "--config", "run.ini", "--out", "expect"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("wrote expect") for line in lines)
    code, err = _run_with_stdout(where, [command, "--config", "run.ini", "--out", "out/o"])
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1
    if code == 0:
        assert not err
        got, expect = workdir / "out" / "o", workdir / "expect"
        assert sorted(os.listdir(got)) == sorted(os.listdir(expect))
        for name in os.listdir(expect):
            assert (got / name).read_bytes() == (expect / name).read_bytes()
    else:
        assert code == 3 and err.startswith("error: cannot write to stdout: ")
        assert not os.path.exists("out")  # every directory the command made is removed
    if where in ("pipe closed at once", "/dev/full"):
        assert code == 3  # no line can be written


def test_import_skips_scipy_stats_and_exports_resolve():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, betsim, betsim.cli\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
        "assert 'scipy.special' not in sys.modules, 'scipy.special was imported'\n"
        "missing = [n for n in betsim.__all__ if not hasattr(betsim, n)]\n"
        "assert not missing, missing\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
