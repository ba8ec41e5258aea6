"""Command-line front end.

Six subcommands, each driven by a sectioned config file and an output
directory:

  sim-conservative   closed-ensemble betting run -> trajectory.csv [+ microstates.csv]
  sim-dissipative    grain ensemble run -> trajectory.csv, grains.csv, histogram_<step>.csv
  gen-returns        synthetic return series -> returns.csv
  fit-variance       conjugate variance fit of a returns file -> fit.csv
  compare-models     evidence-based model comparison -> models.csv
  ingest             price file -> log-return series -> returns.csv

Exit codes: 0 success, 2 configuration or usage error, 3 data error,
4 non-convergence.  Runs are deterministic: repeating a command with
the same config and seed reproduces every output byte for byte.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from . import io as csvio
from . import rng as rngmod
from .config import RunConfig, parse_config
from .conservative import (
    DEFAULT_SMOOTHING_WINDOW,
    Trajectory,
    run_conservative,
    smooth_series,
)
from .dissipative import run_dissipative
from .errors import ConfigError, ConvergenceError, DataError
from .inference import (
    DataSet,
    InvGammaParams,
    ModelSpec,
    conjugate_variance_posterior,
    log_evidence,
    model_posteriors,
    select_model,
)
from .superstat import generate_returns


def _load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _require(section, name: str):
    if section is None:
        raise ConfigError(f"config has no [{name}] section")
    return section


def _outpath(out_dir, name: str) -> str:
    return os.path.join(out_dir, name)


def _note(path) -> None:
    print(f"wrote {path}")


def _cmd_sim_conservative(config: RunConfig, out_dir, seed) -> int:
    section = _require(config.conservative, "conservative")
    if seed is not None:
        section = section.with_seed(seed)
    io_cfg = config.io
    record = io_cfg.write_microstates if io_cfg is not None else True
    trajectory = run_conservative(section, record_microstates=record)
    path = _outpath(out_dir, "trajectory.csv")
    csvio.emit_trajectory_csv(trajectory, path)
    _note(path)
    if record:
        mpath = _outpath(out_dir, "microstates.csv")
        csvio.emit_microstates_csv(trajectory, mpath)
        _note(mpath)
    return 0


def _histogram_steps(total_steps: int, every: int) -> list[int]:
    if every <= 0:
        return [total_steps]
    steps = list(range(0, total_steps + 1, every))
    if steps[-1] != total_steps:
        steps.append(total_steps)
    return steps


def _cmd_sim_dissipative(config: RunConfig, out_dir, seed) -> int:
    section = _require(config.dissipative, "dissipative")
    if seed is not None:
        section = section.with_seed(seed)
    io_cfg = config.io
    bins = io_cfg.histogram_bins if io_cfg is not None else 50
    every = io_cfg.histogram_every if io_cfg is not None else 0
    result = run_dissipative(section, bins=bins)
    means = np.array([p.mean for p in result.pooled])
    path = _outpath(out_dir, "trajectory.csv")
    csvio.emit_trajectory_csv(
        Trajectory(result.pooled, smooth_series(means, DEFAULT_SMOOTHING_WINDOW)), path
    )
    _note(path)
    gpath = _outpath(out_dir, "grains.csv")
    csvio.emit_grains_csv(result.grain_tracks, gpath)
    _note(gpath)
    by_step = {p.step: p for p in result.pooled}
    for step in _histogram_steps(section.steps, every):
        hpath = _outpath(out_dir, f"histogram_{step}.csv")
        csvio.emit_histogram_csv(by_step[step], hpath)
        _note(hpath)
    return 0


def _cmd_gen_returns(config: RunConfig, out_dir, seed) -> int:
    section = _require(config.superstat, "superstat")
    if seed is not None:
        section = section.with_seed(seed)
    model = section.model()
    rng = rngmod.stream(section.seed, rngmod.RETURNS)
    series = generate_returns(
        model,
        section.n,
        section.tau,
        rng,
        slow_mixing=section.slow_mixing,
        seed_label=section.seed,
    )
    path = _outpath(out_dir, "returns.csv")
    csvio.emit_returns_csv(series, path)
    _note(path)
    return 0


def _input_series(config: RunConfig, reader):
    io_cfg = config.io
    if io_cfg is None or not io_cfg.input:
        raise ConfigError("config must set [io] input = <path>")
    return reader(io_cfg.input)


def _cmd_fit_variance(config: RunConfig, out_dir, seed) -> int:
    del seed  # accepted for interface uniformity; the fit is deterministic
    section = _require(config.inference, "inference")
    series = _input_series(config, csvio.read_returns_csv)
    data = DataSet(series.samples, mu=section.mu)
    prior = InvGammaParams(section.prior_alpha, section.prior_beta)
    posterior = conjugate_variance_posterior(prior, data)
    spec = ModelSpec(
        id="gaussian-known-mean",
        likelihood_kind="gaussian-known-mean",
        prior=prior,
        max_doublings=section.max_doublings,
        rel_tol=section.rel_tol,
    )
    evidence = log_evidence(spec, data)
    post_mean = posterior.beta / (posterior.alpha - 1) if posterior.alpha > 1 else float("nan")
    rows = [
        ("n", data.n),
        ("mu", section.mu),
        ("prior_alpha", prior.alpha),
        ("prior_beta", prior.beta),
        ("posterior_alpha", posterior.alpha),
        ("posterior_beta", posterior.beta),
        ("posterior_mean_variance", post_mean),
        ("posterior_mode_variance", posterior.beta / (posterior.alpha + 1)),
        ("log_evidence", evidence),
    ]
    path = _outpath(out_dir, "fit.csv")
    csvio.emit_fit_csv(rows, path)
    _note(path)
    return 0


def _cmd_compare_models(config: RunConfig, out_dir, seed) -> int:
    del seed  # accepted for interface uniformity; the comparison is deterministic
    section = _require(config.inference, "inference")
    series = _input_series(config, csvio.read_returns_csv)
    data = DataSet(series.samples, mu=section.mu)
    specs = [
        ModelSpec(
            id=kind,
            likelihood_kind=kind,
            prior=InvGammaParams(alpha, beta),
            max_doublings=section.max_doublings,
            rel_tol=section.rel_tol,
        )
        for kind, alpha, beta in zip(
            section.models, section.model_alphas, section.model_betas
        )
    ]
    try:
        posteriors = model_posteriors(specs, section.model_priors, data)
    except ValueError as exc:
        # likelihood/data mismatch, e.g. nonpositive samples under an
        # exponential model
        raise DataError(str(exc)) from exc
    choice = select_model(posteriors)
    path = _outpath(out_dir, "models.csv")
    csvio.emit_models_csv(posteriors, specs, choice.best, path)
    _note(path)
    return 0


def _cmd_ingest(config: RunConfig, out_dir, seed) -> int:
    del seed  # accepted for interface uniformity; ingestion is deterministic
    tau = config.superstat.tau if config.superstat is not None else 1
    series = _input_series(config, lambda path: csvio.ingest_price_csv(path, tau))
    path = _outpath(out_dir, "returns.csv")
    csvio.emit_returns_csv(series, path)
    _note(path)
    return 0


_COMMANDS = {
    "sim-conservative": _cmd_sim_conservative,
    "sim-dissipative": _cmd_sim_dissipative,
    "gen-returns": _cmd_gen_returns,
    "fit-variance": _cmd_fit_variance,
    "compare-models": _cmd_compare_models,
    "ingest": _cmd_ingest,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betsim",
        description="betting-ensemble simulations and Bayesian return-series analysis",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    helps = {
        "sim-conservative": "run a closed betting ensemble",
        "sim-dissipative": "run an open ensemble of coarse grains",
        "gen-returns": "generate a synthetic return series",
        "fit-variance": "fit the variance of a return series",
        "compare-models": "compare likelihood models by evidence",
        "ingest": "convert a price file to log-returns",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=helps[name], description=helps[name])
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", required=True, help="output directory (created if absent)")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    return parser


def dispatch(argv) -> int:
    """Parse argv, run the selected command, return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for usage errors
        return int(exc.code or 0)
    try:
        if args.seed is not None:
            try:
                rngmod.check_seed(args.seed)
            except ValueError as exc:
                raise ConfigError(f"bad value for --seed: {exc}") from exc
        config = _load_config(args.config)
        out_dir = csvio.ensure_out_dir(args.out)
        return _COMMANDS[args.command](config, out_dir, args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
