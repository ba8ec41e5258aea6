"""CSV ingestion and emission.

All files are UTF-8, comma-separated, LF newlines, dot decimal point,
with a mandatory header row.  Floating-point cells in result files
carry 12 significant digits; raw return values are written with
Python's shortest round-trip repr so downstream consumers recover them
to full precision.  Nothing here is time- or locale-dependent, so
identical inputs always produce byte-identical files.
"""
from __future__ import annotations

import csv
import math
import os
from typing import Iterable

import numpy as np

from .conservative import Trajectory
from .core import MacroSnapshot
from .dissipative import GrainTrack
from .errors import DataError
from .inference import ModelPosterior
from .superstat import ReturnSeries

TRAJECTORY_HEADER = (
    "step,mean_posterior,smoothed_mean_posterior,variance,skewness,"
    "excess_kurtosis,entropy,distinct_classes,heterogeneous_pairs"
)


def _fmt(x) -> str:
    """12-significant-digit decimal rendering; integers stay integral."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _open_out(path):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def ingest_price_csv(path, tau: int) -> ReturnSeries:
    """Read a price series and form log-returns over horizon tau.

    The file must have header ``t,price`` (numeric, strictly
    increasing time index) or ``date,price`` (strictly increasing date
    strings, e.g. ISO-8601).  Returns Y_tau[i] = ln(price[i+tau] /
    price[i]), natural log.

    Raises :class:`DataError` on a missing file, bad header, malformed
    row (with its line number), nonpositive price, nonincreasing time,
    fewer than tau+1 rows, or a non-finite log-return (a price ratio
    beyond the float range).
    """
    if tau < 1:
        raise DataError(f"tau must be >= 1, got {tau}")
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip().lower() for h in header]
        if header not in (["t", "price"], ["date", "price"]):
            raise DataError(
                f"{path}: header must be 't,price' or 'date,price', got {','.join(header)!r}"
            )
        numeric_time = header[0] == "t"
        times: list = []
        prices: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise DataError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            t_raw, p_raw = row[0].strip(), row[1].strip()
            if numeric_time:
                try:
                    t_val = float(t_raw)
                except ValueError:
                    raise DataError(f"{path}: line {lineno}: bad time value {t_raw!r}") from None
            else:
                if not t_raw:
                    raise DataError(f"{path}: line {lineno}: empty date")
                t_val = t_raw
            try:
                price = float(p_raw)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: bad price value {p_raw!r}") from None
            if not math.isfinite(price) or price <= 0:
                raise DataError(f"{path}: line {lineno}: price must be positive, got {p_raw}")
            if times and not t_val > times[-1]:
                raise DataError(f"{path}: line {lineno}: time index must be strictly increasing")
            times.append(t_val)
            prices.append(price)
    if len(prices) < tau + 1:
        raise DataError(f"{path}: need at least tau+1 = {tau + 1} rows, got {len(prices)}")
    p = np.asarray(prices, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore"):
        samples = np.log(p[tau:] / p[:-tau])
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"{path}: lines {i + 2} and {i + tau + 2}: log-return {samples[i]} is not finite"
        )
    return ReturnSeries(tau=tau, samples=samples, seed=None)


def emit_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Write one row per snapshot (the initial state included)."""
    with _open_out(path) as out:
        out.write(TRAJECTORY_HEADER + "\n")
        for snap, smoothed in zip(trajectory.snapshots, trajectory.smoothed_mean_posterior):
            row = (
                snap.step,
                snap.mean_posterior,
                smoothed,
                snap.variance,
                snap.skewness,
                snap.excess_kurtosis,
                snap.entropy,
                snap.distinct_classes,
                snap.heterogeneous_pairs,
            )
            out.write(",".join(_fmt(v) for v in row) + "\n")


def emit_histogram_csv(pooled_snapshot: MacroSnapshot, path) -> None:
    """Write a pooled snapshot's posterior histogram: one row per bin.

    The bins are fixed-width on [0, 1], so the edges are rebuilt here
    exactly as ``np.histogram`` forms them.
    """
    counts = pooled_snapshot.counts
    edges = np.linspace(0.0, 1.0, counts.size + 1)
    with _open_out(path) as out:
        out.write("bin_left,bin_right,count\n")
        for k in range(counts.size):
            out.write(f"{_fmt(edges[k])},{_fmt(edges[k + 1])},{int(counts[k])}\n")


def emit_microstates_csv(trajectory: Trajectory, path) -> None:
    """Per-step, per-participant ledgers; requires a recorded run."""
    if trajectory.per_microstate is None:
        raise DataError("trajectory carries no per-microstate records")
    with _open_out(path) as out:
        out.write("step,microstate,wins,losses,posterior\n")
        for snap, ledgers in zip(trajectory.snapshots, trajectory.per_microstate):
            for i in range(ledgers.wins.size):
                out.write(
                    f"{snap.step},{i},{int(ledgers.wins[i])},"
                    f"{int(ledgers.losses[i])},{_fmt(ledgers.posteriors[i])}\n"
                )


def emit_grains_csv(tracks: dict[int, GrainTrack], path) -> None:
    """Per-step summary of every grain that ever lived."""
    with _open_out(path) as out:
        out.write("step,grain,size,birth_step,mean_posterior,entropy\n")
        for gid in sorted(tracks):
            track = tracks[gid]
            for snap in track.snapshots:
                out.write(
                    f"{snap.step},{gid},{track.size},{track.birth_step},"
                    f"{_fmt(snap.mean_posterior)},{_fmt(snap.entropy)}\n"
                )


def emit_returns_csv(series: ReturnSeries, path) -> None:
    """Write return samples with full round-trip precision."""
    with _open_out(path) as out:
        out.write("i,value\n")
        for i, v in enumerate(series.samples):
            out.write(f"{i},{float(v)!r}\n")


def read_returns_csv(path, tau: int = 1) -> ReturnSeries:
    """Read a returns file produced by :func:`emit_returns_csv`."""
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != ["i", "value"]:
            raise DataError(f"{path}: header must be 'i,value'")
        values: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise DataError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            try:
                values.append(float(row[1]))
            except ValueError:
                raise DataError(f"{path}: line {lineno}: bad value {row[1]!r}") from None
    if not values:
        raise DataError(f"{path}: no data rows")
    samples = np.asarray(values)
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{path}: line {i + 2}: value {samples[i]} is not finite")
    return ReturnSeries(tau=tau, samples=samples, seed=None)


def emit_fit_csv(rows: Iterable[tuple[str, object]], path) -> None:
    """Key-value summary of a variance fit."""
    with _open_out(path) as out:
        out.write("quantity,value\n")
        for key, value in rows:
            out.write(f"{key},{_fmt(value)}\n")


def emit_models_csv(posteriors: list[ModelPosterior], specs, selected_index, path) -> None:
    """Model-comparison table; the ``selected`` column marks the winner
    (every row says ``tie`` when no single winner exists)."""
    with _open_out(path) as out:
        out.write(
            "model,likelihood,prior_alpha,prior_beta,prior_prob,log_evidence,"
            "posterior_prob,selected\n"
        )
        for k, (post, spec) in enumerate(zip(posteriors, specs)):
            if selected_index is None:
                mark = "tie"
            else:
                mark = "1" if k == selected_index else "0"
            out.write(
                f"{post.model_id},{spec.likelihood_kind},{_fmt(spec.prior.alpha)},"
                f"{_fmt(spec.prior.beta)},{_fmt(post.prior_prob)},"
                f"{_fmt(post.log_evidence)},{_fmt(post.posterior_prob)},{mark}\n"
            )


def ensure_out_dir(path) -> str:
    """Create the output directory if needed; returns the path."""
    os.makedirs(path, exist_ok=True)
    return str(path)
