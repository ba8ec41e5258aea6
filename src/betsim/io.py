"""CSV ingestion and emission.

All files are UTF-8, comma-separated, LF newlines, dot decimal point,
with a mandatory header row.  Floating-point cells in result files
carry 12 significant digits; raw return values are written with
Python's shortest round-trip repr so downstream consumers recover them
to full precision.  Nothing here is time- or locale-dependent, so
identical inputs always produce byte-identical files.

Writers format 1024 rows at a time with one ``%`` of a row template.
Each data file is opened once (:func:`_data_file`).  Regular returns and
``t,price`` files are read by offset and parsed by ``np.loadtxt`` in blocks
of whole lines (:func:`_span`); a block it cannot take hands the file to the
per-row reader, the only source of error messages, which reads the same
descriptor from its start, so every file gets that reader's values or
error.  A pipe is read row by row as it comes.  From a size on, a forked
child (:class:`_fork.Child`) formats or parses the second half of a table
or file, with the same bytes, values or errors.
"""
from __future__ import annotations

import csv
import io
import math
import os
import warnings
from contextlib import closing, contextmanager, suppress
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _fork
from .conservative import DEFAULT_SMOOTHING_WINDOW, Trajectory, smooth_series
from .core import SNAPSHOT_FIELDS, MacroSnapshot, Snapshots, histogram_edges
from .errors import ConfigError, DataError
from .inference import ModelPosterior
from .superstat import ReturnSeries

TRAJECTORY_HEADER = (
    "step,mean_posterior,smoothed_mean_posterior,variance,skewness,"
    "excess_kurtosis,entropy,distinct_classes,heterogeneous_pairs"
)

_SPLIT_ROWS = 32 * 1024  # rows of a table from which a forked child formats half
_BLOCK_CHARS = 1 << 17  # bytes read per parsed block, cut back to its last LF
_SPLIT_BYTES = 1 << 22  # bytes of data, 32 blocks, from which a forked child parses half
# the bytes a block may hold; any other (a quote, a letter, NUL) is the per-row reader's
_NUMERIC_BYTES = b"0123456789+-.eE, \r\n"


def _fmt(x) -> str:
    """12-significant-digit decimal rendering; integers stay integral."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


def _blocks(row: str, columns: Sequence[Sequence]) -> Iterator[bytes]:
    """Yield the lines ``row % values`` for the rows of ``columns`` (arrays,
    lists or ranges of equal length), as UTF-8 blocks of 1024 rows.

    Each block is one ``%`` of ``row`` repeated over its values, listed
    with one ``.tolist()`` per array, so no Python code runs per row.  On
    Python numbers ``%r`` is ``repr``, ``%.12g`` is ``format(x, ".12g")``
    and ``%d`` is ``str``.  Strings from elsewhere (model ids, fit keys)
    are values, never part of ``row``, so a ``%`` in them is written as is.
    """
    width = len(columns)
    for start in range(0, len(columns[0]), 1024):
        block = [c[start:start + 1024] for c in columns]
        rows = len(block[0])
        values = [None] * (rows * width)
        for j, column in enumerate(block):
            values[j::width] = column.tolist() if isinstance(column, np.ndarray) else column
        yield (row * rows % tuple(values)).encode()


@contextmanager
def _csv_writer(path, header: str):
    """Open ``path`` for binary writing, write ``header`` and yield the file.

    A failure to open, write or close the file raises :class:`DataError`.
    Once it is open, anything that raises removes it: no partial file stays.
    """
    try:
        out = open(path, "wb")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    try:
        with out:
            out.write(header.encode() + b"\n")
            yield out
    except BaseException as exc:
        with suppress(OSError):
            os.remove(path)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from exc
        raise


def _write_csv(path, header: str, row: str, columns: Sequence[Sequence]) -> None:
    """Write ``header``, then the rows of ``columns``, through :func:`_csv_writer`.

    From ``_SPLIT_ROWS`` rows on, a forked child (:class:`_fork.Child`)
    formats the second half of the rows while this process writes the
    first; below that the fork costs more than the half saves.  The size was
    measured on returns rows; for other tables it is assumed.
    """
    half = len(columns[0]) // 2
    with _csv_writer(path, header) as out:
        with _fork.Child(lambda: _blocks(row, [c[half:] for c in columns]),
                         len(columns[0]) >= _SPLIT_ROWS, gather=True) as second:
            out.writelines(_blocks(row, [c[:half] for c in columns]))
            while chunk := second.read(1 << 16):
                out.write(chunk)


@contextmanager
def _data_file(path, headers: tuple[str, ...], usecols: tuple[int, ...]):
    """Open the data file ``path`` once; yield :func:`_read_blocks` of it,
    with the first of ``headers``, and :func:`_read_pairs` of the same bytes,
    not yet started and closed on exit.  A file that cannot seek (a pipe, a
    terminal) has no blocks read: it is read row by row as it comes.  An
    ``OSError`` or ``UnicodeDecodeError`` here or in the body raises
    :class:`DataError`.
    """
    try:
        with open(path, "rb") as handle:
            rows = _read_blocks(handle.fileno(), headers[0], usecols) if handle.seekable() else None
            with closing(_read_pairs(path, handle, headers)) as pairs:
                yield rows, pairs
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read_pairs(path, handle, headers: tuple[str, ...]):
    """Stream the two-column CSV file ``path`` from the binary ``handle``.

    Yields the header, stripped and lower-cased, which must be one of
    ``headers``; then ``(lineno, first, second)`` for each row.  Raises
    :class:`DataError` on an empty file, another header, or a row of other
    than two fields.
    """
    try:
        # closing the generator closes the wrapper, and with it the handle
        with io.TextIOWrapper(handle, encoding="utf-8", newline="") as text:
            rows = csv.reader(text)
            header = next(rows, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            header = ",".join(h.strip().lower() for h in header)
            if header not in headers:
                allowed = " or ".join(map(repr, headers))
                raise DataError(f"{path}: header must be {allowed}, got {header!r}")
            yield header
            for lineno, row in enumerate(rows, start=2):
                if len(row) != 2:
                    raise DataError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
                yield lineno, row[0], row[1]
    except csv.Error as exc:
        raise DataError(f"{path}: line {rows.line_num}: {exc}") from None


def _read_blocks(fd: int, header: str, usecols: tuple[int, ...]) -> np.ndarray | None:
    """Parse the ``usecols`` columns of the two-column file ``fd``, read by
    offset only, in blocks, or hand the file back.

    Returns the data rows as one (rows, len(usecols)) float64 array when
    the first line is ``header`` and an LF or CRLF, and :func:`_span`
    takes every block; else, or with no row, None, for :func:`_read_pairs`.
    It never raises or warns for the file's content.  From ``_SPLIT_BYTES``
    of data on, a forked child (:class:`_fork.Child`) parses from the first
    line start after the middle byte and sends the values, or its decline.
    """
    end = os.fstat(fd).st_size
    start = _line_end(fd, 0, len(header) + 2)  # past the header and its LF or CRLF
    if os.pread(fd, start, 0) not in (f"{header}\n".encode(), f"{header}\r\n".encode()):
        return None
    # below _SPLIT_BYTES the fork costs more than the second span saves
    middle = _line_end(fd, end // 2, end) if end - start >= _SPLIT_BYTES else end
    try:
        with _fork.Child(lambda: _span(fd, middle, end, usecols), middle < end,
                         gather=True) as second:
            blocks = _span(fd, start, middle, usecols)
            rest = second.readall()
    except _fork.Declined:
        return None
    rows = np.concatenate([*blocks, np.frombuffer(rest).reshape(-1, len(usecols))])
    return rows if len(rows) else None


def _line_end(fd: int, pos: int, stop: int) -> int:
    """The offset just past the first LF of the file ``fd`` from ``pos``
    on, or ``stop`` when there is none before it or the file ends first."""
    while pos < stop and (chunk := os.pread(fd, min(1 << 13, stop - pos), pos)):
        if (lf := chunk.find(b"\n")) >= 0:
            return pos + lf + 1
        pos += len(chunk)
    return stop


def _span(fd: int, start: int, stop: int, usecols: tuple[int, ...]) -> list[np.ndarray]:
    """Parse the lines in bytes ``start`` to ``stop`` of the file ``fd`` in
    blocks, each one :func:`os.pread` of ``min(_BLOCK_CHARS,
    csv.field_size_limit())`` bytes cut back to its last LF, the span's
    last block whole, so no line is longer than the csv reader allows.

    Returns the ``usecols`` columns as (lines, len(usecols)) float64
    blocks of finite values when every line is two fields that the csv
    reader takes, of plain numbers in ``usecols`` and of the same bytes
    elsewhere; else, or when the file ends before ``stop``, raises
    :class:`_fork.Declined`, its only error or warning for the file's content.
    """
    blocks, size = [], min(_BLOCK_CHARS, csv.field_size_limit())
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a block of blank lines
            while start < stop:
                text = os.pread(fd, min(size, stop - start), start)
                if start + size < stop:  # not the span's last block
                    text = text[:text.rfind(b"\n") + 1]
                # none: a line longer than a block, or the file's end before ``stop``
                if not text or text.translate(None, _NUMERIC_BYTES):
                    raise _fork.Declined
                start += len(text)
                # with only these bytes, splitlines ends lines where csv does: \r, \n, \r\n
                lines = text.decode().splitlines(keepends=True)
                if text.count(b",") != len(lines):
                    raise _fork.Declined  # not one comma a line
                block = np.loadtxt(
                    lines, delimiter=",", comments=None, dtype=np.float64, usecols=usecols, ndmin=2
                )
                # loadtxt skips blank lines and raises on a line without a column it
                # uses: with as many commas as lines, every line it keeps has two fields
                if len(block) != len(lines) or not np.isfinite(block).all():
                    raise _fork.Declined
                blocks.append(block)
    except (ValueError, Warning):
        raise _fork.Declined from None
    return blocks


def ingest_price_csv(path, tau: int) -> ReturnSeries:
    """Read a price series and form log-returns over horizon tau.

    The file must have header ``t,price`` (numeric, strictly increasing
    time index) or ``date,price`` (strictly increasing date strings, e.g.
    ISO-8601).  Returns Y_tau[i] = ln(price[i+tau] / price[i]), natural log.

    Raises :class:`DataError` on a missing or non-UTF-8 file, bad header,
    malformed row (with its line number), nonpositive price, nonincreasing
    time, fewer than tau+1 rows, or a non-finite log-return (a price ratio
    beyond the float range).
    """
    if tau < 1:
        raise DataError(f"tau must be >= 1, got {tau}")
    prices: list[float] = []
    with _data_file(path, ("t,price", "date,price"), (0, 1)) as (rows, pairs):
        if rows is not None:
            t, p = rows.T
            if p.size >= tau + 1 and (p > 0).all() and (t[1:] > t[:-1]).all():
                return _log_returns(path, p, tau)
        numeric_time = next(pairs) == "t,price"
        for lineno, t_raw, p_raw in pairs:
            t_raw, p_raw = t_raw.strip(), p_raw.strip()
            # float("") raises, so only a date can be empty here
            t_val = _float(path, lineno, "time value", t_raw) if numeric_time else t_raw
            if not t_raw:
                raise DataError(f"{path}: line {lineno}: empty date")
            price = _float(path, lineno, "price value", p_raw)
            if not math.isfinite(price) or price <= 0:
                raise DataError(f"{path}: line {lineno}: price must be positive, got {p_raw}")
            if prices and not t_val > last:
                raise DataError(f"{path}: line {lineno}: time index must be strictly increasing")
            last = t_val
            prices.append(price)
    if len(prices) < tau + 1:
        raise DataError(f"{path}: need at least tau+1 = {tau + 1} rows, got {len(prices)}")
    return _log_returns(path, np.asarray(prices, dtype=np.float64), tau)


def _float(path, lineno: int, what: str, raw: str) -> float:
    """``float(raw)``, or a DataError that names the bad ``what`` and its line."""
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"{path}: line {lineno}: bad {what} {raw!r}") from None


def _log_returns(path, p: np.ndarray, tau: int) -> ReturnSeries:
    """Y[i] = ln(p[i + tau] / p[i]); a non-finite one raises DataError."""
    with np.errstate(over="ignore", divide="ignore"):
        samples = np.log(p[tau:] / p[:-tau])
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"{path}: lines {i + 2} and {i + tau + 2}: log-return {samples[i]} is not finite"
        )
    return ReturnSeries(tau=tau, samples=samples)


def emit_trajectory_csv(snapshots: Snapshots, path) -> None:
    """Write one row per snapshot (the initial state included).

    The smoothed column is the trailing moving average of the mean
    posterior over ``DEFAULT_SMOOTHING_WINDOW`` steps.  Floats are
    written as ``%.12g`` writes them.
    """
    step, mean, *rest = (snapshots.column(name) for name in SNAPSHOT_FIELDS)
    smoothed = smooth_series(mean, DEFAULT_SMOOTHING_WINDOW)
    row = "%d" + ",%.12g" * 6 + ",%d,%d\n"
    _write_csv(path, TRAJECTORY_HEADER, row, [step, mean, smoothed, *rest])


def emit_histogram_csv(pooled_snapshot: MacroSnapshot, path) -> None:
    """Write a pooled snapshot's posterior histogram: one row per bin.

    The edges are ``histogram_edges``, the ones the counts were taken on.
    """
    counts = pooled_snapshot.counts
    edges = histogram_edges(counts.size)
    columns = [edges[:-1], edges[1:], counts]
    _write_csv(path, "bin_left,bin_right,count", "%.12g,%.12g,%d\n", columns)


def emit_microstates_csv(run, path):
    """Per-step, per-participant ledgers of the closed run ``run`` makes;
    returns what it returns.

    ``run(sink)`` must hand ``sink`` each block it books, in step order:
    ``(first_step, rows, posteriors)``, as ``run_conservative`` does.  Each
    block is written as it comes, with the posteriors the run computed, so
    no more than a block is held at once.  The run checked the rows.  If
    the run raises, the file is removed.
    """

    def sink(first: int, rows: np.ndarray, posteriors: np.ndarray) -> None:
        steps, n = posteriors.shape
        out.writelines(_blocks("%d,%d,%d,%d,%.12g\n", [
            np.repeat(np.arange(first, first + steps), n), np.tile(np.arange(n), steps),
            rows[:, 0].ravel(), rows[:, 1].ravel(), posteriors.ravel(),
        ]))

    with _csv_writer(path, "step,microstate,wins,losses,posterior") as out:
        return run(sink)


def emit_grains_csv(tracks: dict[int, Trajectory], path) -> None:
    """Per-step summary of every grain that ever lived."""
    with _csv_writer(path, "step,grain,size,birth_step,mean_posterior,entropy") as out:
        for gid in sorted(tracks):
            track = tracks[gid]
            # the grain's id, size and birth step are ints, so the row holds no stray %
            out.writelines(_blocks(f"%d,{gid},{track.size},{track.birth_step},%.12g,%.12g\n", [
                track.snapshots.column(name) for name in ("step", "mean_posterior", "entropy")
            ]))


def emit_returns_csv(series: ReturnSeries, path) -> None:
    """Write return samples with full round-trip precision."""
    # %r of the Python floats .tolist() makes is the repr float(numpy float64) has
    _write_csv(path, "i,value", "%d,%r\n", [range(series.samples.size), series.samples])


def read_returns_csv(path, tau: int = 1) -> ReturnSeries:
    """Read a returns file produced by :func:`emit_returns_csv`."""
    # the index column is never read
    with _data_file(path, ("i,value",), (1,)) as (values, pairs):
        if values is not None:
            return ReturnSeries(tau=tau, samples=values.ravel())
        next(pairs)
        values = [_float(path, lineno, "value", raw) for lineno, _, raw in pairs]
    if not values:
        raise DataError(f"{path}: no data rows")
    samples = np.asarray(values)
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{path}: line {i + 2}: value {samples[i]} is not finite")
    return ReturnSeries(tau=tau, samples=samples)


def emit_fit_csv(rows: Iterable[tuple[str, object]], path) -> None:
    """Key-value summary of a variance fit."""
    pairs = [(key, _fmt(value)) for key, value in rows]
    _write_csv(path, "quantity,value", "%s,%s\n", [[k for k, _ in pairs], [v for _, v in pairs]])


def emit_models_csv(posteriors: list[ModelPosterior], specs, selected_index, path) -> None:
    """Model-comparison table; the ``selected`` column marks the winner
    (every row says ``tie`` when no single winner exists)."""
    header = "model,likelihood,prior_alpha,prior_beta,prior_prob,log_evidence,posterior_prob,selected"
    rows = [
        (post.model_id, spec.likelihood_kind, *map(_fmt, (
            spec.prior.alpha, spec.prior.beta, post.prior_prob, post.log_evidence,
            post.posterior_prob,
        )), "tie" if selected_index is None else int(k == selected_index))
        for k, (post, spec) in enumerate(zip(posteriors, specs))
    ]
    _write_csv(path, header, "%s," * 7 + "%s\n", [[r[j] for r in rows] for j in range(8)])


def ensure_out_dir(path) -> str:
    """Create the output directory if needed; returns the path.

    Raises :class:`ConfigError` when ``path`` cannot be a directory
    (it names a file, or lies under one).
    """
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return str(path)
