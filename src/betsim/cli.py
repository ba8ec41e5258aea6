"""Command-line front end.

Six subcommands, each driven by a sectioned config file and an output
directory:

  sim-conservative   closed-ensemble betting run -> trajectory.csv [+ microstates.csv]
  sim-dissipative    grain ensemble run -> trajectory.csv, grains.csv, histogram_<step>.csv
  gen-returns        synthetic return series -> returns.csv
  fit-variance       conjugate variance fit of a returns file -> fit.csv
  compare-models     evidence-based model comparison -> models.csv
  ingest             price file -> log-return series -> returns.csv

Exit codes: 0 success, 2 configuration or usage error (a run too large
for memory included), 3 data error, 4 non-convergence.  Runs are
deterministic: repeating a command with the same config and seed
reproduces every output byte for byte.
"""
from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys

from . import __version__
from . import io as csvio
from . import rng as rngmod
from .config import IoConfig, RunConfig, SuperstatConfig, parse_config
from .conservative import run_conservative
from .dissipative import run_dissipative
from .errors import ConfigError, ConvergenceError, DataError
from .inference import (
    DataSet,
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _require(config: RunConfig, name: str, seed: int | None = None):
    """The config's ``[name]`` section, with ``seed`` applied when given."""
    section = getattr(config, name)
    if section is None:
        raise ConfigError(f"config has no [{name}] section")
    return section if seed is None else section.with_seed(seed)


def _run(name: str, run, *args):
    """Call ``run``, reporting its ValueError as an error of the ``[name]``
    section: a configured size too large for numpy to allocate, say."""
    try:
        return run(*args)
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


def _emit(report: list, writer, *args):
    """Call a CSV writer, whose last argument is the output path, add its
    ``wrote`` line to ``report``, and return what the writer returns."""
    result = writer(*args)
    report.append(f"wrote {args[-1]}\n")
    return result


def _cmd_sim_conservative(config: RunConfig, out_dir, seed, report: list) -> int:
    section = _require(config, "conservative", seed)
    # run(sink=None): the closed run, which hands its blocks to sink
    run = functools.partial(_run, "conservative", run_conservative, section)
    if (config.io or IoConfig()).write_microstates:
        path = os.path.join(out_dir, "microstates.csv")
        trajectory = _emit(report, csvio.emit_microstates_csv, run, path)
    else:
        trajectory = run()
    path = os.path.join(out_dir, "trajectory.csv")
    _emit(report, csvio.emit_trajectory_csv, trajectory.snapshots, path)
    return 0


def _histogram_steps(total_steps: int, every: int) -> list[int]:
    if every <= 0:
        return [total_steps]
    steps = list(range(0, total_steps + 1, every))
    if steps[-1] != total_steps:
        steps.append(total_steps)
    return steps


def _cmd_sim_dissipative(config: RunConfig, out_dir, seed, report: list) -> int:
    section = _require(config, "dissipative", seed)
    io_cfg = config.io or IoConfig()
    result = _run("dissipative", run_dissipative, section, io_cfg.histogram_bins)
    path = os.path.join(out_dir, "trajectory.csv")
    _emit(report, csvio.emit_trajectory_csv, result.pooled, path)
    _emit(report, csvio.emit_grains_csv, result.grain_tracks, os.path.join(out_dir, "grains.csv"))
    for step in _histogram_steps(section.steps, io_cfg.histogram_every):
        # result.pooled holds one snapshot per step, starting at step 0
        path = os.path.join(out_dir, f"histogram_{step}.csv")
        _emit(report, csvio.emit_histogram_csv, result.pooled[step], path)
    return 0


def _cmd_gen_returns(config: RunConfig, out_dir, seed, report: list) -> int:
    section = _require(config, "superstat", seed)
    model = section.model()
    rng = rngmod.stream(section.seed, rngmod.RETURNS)
    # a ValueError here: the mixing law is too extreme for float64 returns
    series = _run(
        "superstat", generate_returns, model, section.n, section.tau, rng, section.slow_mixing
    )
    _emit(report, csvio.emit_returns_csv, series, os.path.join(out_dir, "returns.csv"))
    return 0


def _input_series(config: RunConfig, reader):
    path = (config.io or IoConfig()).input
    if not path:
        raise ConfigError("config must set [io] input = <path>")
    return reader(path)


# fit-variance, compare-models and ingest are deterministic: they take
# the seed argument only for a uniform command signature


def _cmd_fit_variance(config: RunConfig, out_dir, seed, report: list) -> int:
    section = _require(config, "inference")
    series = _input_series(config, csvio.read_returns_csv)
    data = DataSet(series.samples, mu=section.mu)
    spec = section.fit_model()
    prior = spec.prior
    try:
        posterior = conjugate_variance_posterior(prior, data)
        evidence = log_evidence(spec, data)
    except ValueError as exc:
        # the data's sums overflow the float range
        raise DataError(str(exc)) from exc
    # the inverse-gamma mean is infinite for a shape of at most 1
    post_mean = posterior.beta / (posterior.alpha - 1) if posterior.alpha > 1 else float("inf")
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
    _emit(report, csvio.emit_fit_csv, rows, os.path.join(out_dir, "fit.csv"))
    return 0


def _cmd_compare_models(config: RunConfig, out_dir, seed, report: list) -> int:
    section = _require(config, "inference")
    series = _input_series(config, csvio.read_returns_csv)
    data = DataSet(series.samples, mu=section.mu)
    specs = section.compared_models()
    try:
        posteriors = model_posteriors(specs, section.model_priors, data)
    except ValueError as exc:
        # likelihood/data mismatch, e.g. nonpositive samples under an
        # exponential model
        raise DataError(str(exc)) from exc
    choice = select_model(posteriors)
    path = os.path.join(out_dir, "models.csv")
    _emit(report, csvio.emit_models_csv, posteriors, specs, choice.best, path)
    return 0


def _cmd_ingest(config: RunConfig, out_dir, seed, report: list) -> int:
    tau = (config.superstat or SuperstatConfig()).tau
    series = _input_series(config, lambda path: csvio.ingest_price_csv(path, tau))
    _emit(report, csvio.emit_returns_csv, series, os.path.join(out_dir, "returns.csv"))
    return 0


# exception -> exit code; configured sizes that do not fit in memory are a config error
_EXIT_CODES = ((ConfigError, 2), (DataError, 3), (ConvergenceError, 4), (MemoryError, 2))

# command -> (handler, help text)
_COMMANDS = {
    "sim-conservative": (_cmd_sim_conservative, "run a closed betting ensemble"),
    "sim-dissipative": (_cmd_sim_dissipative, "run an open ensemble of coarse grains"),
    "gen-returns": (_cmd_gen_returns, "generate a synthetic return series"),
    "fit-variance": (_cmd_fit_variance, "fit the variance of a return series"),
    "compare-models": (_cmd_compare_models, "compare likelihood models by evidence"),
    "ingest": (_cmd_ingest, "convert a price file to log-returns"),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, so it exits 2 with one ``error:`` line."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="betsim",
        description="betting-ensemble simulations and Bayesian return-series analysis",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--out", required=True, help="output directory (created if absent)")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    return parser


def _first_missing(path) -> str | None:
    """The outermost directory that creating ``path`` makes, or None when
    ``path`` already exists."""
    path = os.path.abspath(path)
    first = None
    while not os.path.lexists(path):
        first, path = path, os.path.dirname(path)
    return first


def dispatch(argv) -> int:
    """Parse argv, run the selected command, return the exit code.

    The command's ``wrote`` lines are printed once its last output file is
    closed; if stdout cannot take them, it exits 3.  A command that does
    not exit 0 removes the output directory it created, with any
    directories it created above it; an ``--out`` directory that existed
    before is left as it is.
    """
    created, code = None, 1
    try:
        args = _build_parser().parse_args(argv)
        if args.seed is not None:
            try:
                rngmod.check_seed(args.seed)
            except ValueError as exc:
                raise ConfigError(f"bad value for --seed: {exc}") from exc
        config = _load_config(args.config)
        created = _first_missing(args.out)
        out_dir = csvio.ensure_out_dir(args.out)
        report: list[str] = []
        code = _COMMANDS[args.command][0](config, out_dir, args.seed, report)
        try:  # once every output file is closed; a closed stdout (None) prints nothing
            print("".join(report), end="", flush=True)
        except OSError as exc:
            sys.stdout = open(os.devnull, "w")  # so the flush at exit stays silent
            raise DataError(f"cannot write to stdout: {exc}") from exc
    except SystemExit as exc:  # --help and --version, which exit 0
        code = int(exc.code or 0)
    except (ConfigError, DataError, ConvergenceError, MemoryError) as exc:
        detail = str(exc)
        if isinstance(exc, MemoryError):
            detail = f"out of memory: {detail}" if detail else "out of memory"
        # one line, whatever the message quotes (a path, a config line)
        print("error: " + " ".join(detail.splitlines()), file=sys.stderr)
        code = next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    finally:
        if code != 0 and created is not None:
            shutil.rmtree(created, ignore_errors=True)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
