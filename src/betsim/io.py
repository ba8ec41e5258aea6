"""CSV ingestion and emission.

All files are UTF-8, comma-separated, LF newlines, dot decimal point,
with a mandatory header row.  Floating-point cells in result files
carry 12 significant digits; raw return values are written with
Python's shortest round-trip repr so downstream consumers recover them
to full precision.  Nothing here is time- or locale-dependent, so
identical inputs always produce byte-identical files.

Every writer writes 1024 rows at a time, each block formatted by one
``%`` of its row template over the block's values.  Returns files and
``t,price`` files are read in blocks of lines, one ``np.loadtxt`` per
block, of the value column only for returns.  A block that holds
anything but plain numbers, or that a check rejects, hands the whole
file back to the per-row reader, which parses it again from the start
and is the only source of error messages; so every file gets the
per-row reader's values or its error, with its line number.
``date,price`` files are always read row by row.

On POSIX with ``os.fork``, two usable CPUs and no other Python thread
running, a returns file of 32 * 1024 rows or more is written, and a
returns or ``t,price`` file of 4 * ``_BLOCK_CHARS`` data bytes or more is
read, half in a forked child while this process does the first half
(``_two_halves``); below these sizes the fork costs more than the half
saves.  The bytes written and the values or errors read are the same
either way.
"""
from __future__ import annotations

import csv
import math
import os
import threading
import warnings
from contextlib import contextmanager, suppress
from typing import Iterable, Iterator, Sequence

import numpy as np

from .conservative import DEFAULT_SMOOTHING_WINDOW, Trajectory, smooth_series
from .core import SNAPSHOT_FIELDS, MacroSnapshot, Snapshots, histogram_edges
from .errors import ConfigError, DataError
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


def _blocks(row: str, columns: Sequence[Sequence]) -> Iterator[bytes]:
    """Yield the lines ``row % values``, one for each row of values that
    ``columns`` (arrays, lists or ranges of equal length) hold, as UTF-8
    blocks of 1024 rows.

    Each block lists its values row by row, with one ``.tolist()`` per
    array, and formats them with one ``%`` of ``row`` repeated, so no
    Python code runs per row and no more than a block is held.  On Python
    numbers ``%r`` is ``repr``, ``%.12g`` of a float is ``format(x, ".12g")``
    and ``%d`` of an int is ``str``.  Only ints are ever part of ``row``;
    strings from elsewhere (model ids, fit keys) are values, so a ``%`` in
    them is written as it is.
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
    Once the file is open, anything that raises removes it, so a failed
    writer leaves no partial file.
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
    """Write ``header``, then the rows of ``columns``, through :func:`_csv_writer`."""
    with _csv_writer(path, header) as out:
        out.writelines(_blocks(row, columns))


def _can_split() -> bool:
    """Whether :func:`_two_halves` may fork: ``os.fork`` exists, a second
    CPU is usable, and no other Python thread runs, whose locks the child
    could inherit held and then wait on for ever."""
    cpus = getattr(os, "sched_getaffinity", lambda _: ())
    return hasattr(os, "fork") and threading.active_count() == 1 and len(cpus(0)) > 1


def _two_halves(first, second, write, split: bool):
    """Return ``first()``, and pass the bytes of the chunks that ``second()``
    returns to ``write``, in order.

    With ``split`` set and :func:`_can_split`, a forked child runs
    ``second()`` while this process runs ``first()``, and sends the bytes
    through a pipe.  The child's body ends in ``os._exit``, so it never
    unwinds into the caller, runs atexit handlers or flushes inherited
    buffers.  If the child cannot be forked, exits nonzero or is killed,
    ``second()`` runs here and only its bytes past those the child sent are
    written, so the bytes are the same either way.  If this process raises,
    it kills the child first; it always reaps it.
    """
    pid = -1
    if split and _can_split():
        with suppress(OSError):
            r, w = os.pipe()
            try:
                # Python 3.12+ warns of any other OS thread; with no other Python
                # thread running, those are numpy's BLAS threads, which the child never uses
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            finally:
                if pid < 0:
                    os.close(r)
                    os.close(w)
    if pid == 0:
        code = 1
        try:
            os.close(r)
            chunks = list(second())  # all of them before the first write, which waits for first()
            with open(w, "wb") as pipe:
                pipe.writelines(chunks)
            code = 0
        finally:
            os._exit(code)
    sent = 0
    if pid < 0:
        result = first()
    else:
        os.close(w)
        try:
            result = first()
            while chunk := os.read(r, 1 << 16):
                write(chunk)
                sent += len(chunk)
        except BaseException:
            os.kill(pid, 9)  # SIGKILL
            raise
        finally:
            os.close(r)
            status = os.waitpid(pid, 0)[1]
        if status == 0:
            return result
    for chunk in second():
        chunk = memoryview(chunk).cast("B")
        write(chunk[sent:])
        sent = max(0, sent - len(chunk))
    return result


def _read_pairs(path, headers: tuple[str, ...]):
    """Stream a two-column CSV file.

    Yields the header, stripped and lower-cased, which must be one of
    ``headers``; then ``(lineno, first, second)`` for each row.  Raises
    :class:`DataError` when the file cannot be read or is not UTF-8, and
    on an empty file, another header, or a row of other than two fields.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            rows = csv.reader(handle)
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
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


_BLOCK_CHARS = 1 << 20  # bytes read per parsed block, then to the end of its line
# the bytes a block may hold; anything else (quotes, letters, tabs, NUL,
# other control or non-ASCII bytes) is left to the per-row reader
_NUMERIC_BYTES = b"0123456789+-.eE, \r\n"


def _read_blocks(path, header: str, usecols: tuple[int, ...]) -> np.ndarray | None:
    """Parse the ``usecols`` columns of a numeric two-column file in
    blocks, or hand the file back.

    Returns the data rows as one (rows, len(usecols)) float64 array when
    the first line is ``header`` and an LF or CRLF, and :func:`_span`
    takes every block.  Returns None otherwise, or when there is no row,
    and never raises or warns for the file's content: the caller then
    reads the file with :func:`_read_pairs`.

    From 4 blocks of data on, the file is parsed in two spans, split at the
    first line start after its middle byte; a forked child parses the
    second (see :func:`_two_halves`) and sends back a flag byte, 1 when it
    took every block, then the values as float64 bytes.
    """
    rest = bytearray()
    try:
        with open(path, "rb") as handle:
            head = handle.readline()
            if head not in (f"{header}\n".encode(), f"{header}\r\n".encode()):
                return None
            start, end = len(head), os.fstat(handle.fileno()).st_size
            middle = math.inf  # one span to the end, of a pipe (of size 0) too
            # below 4 blocks the fork costs more than the second span saves
            if end - start >= 4 * _BLOCK_CHARS:
                handle.seek(end // 2)
                handle.readline()
                middle = handle.tell()
                handle.seek(start)

            def second() -> list:
                if middle >= end:
                    return [b"\1"]
                with open(path, "rb") as own:
                    own.seek(middle)
                    blocks = _span(own, end - middle, usecols)
                return [b"\0"] if blocks is None else [b"\1", *blocks]

            blocks = _two_halves(lambda: _span(handle, middle - start, usecols), second,
                                 rest.extend, middle < end)
    except OSError:
        return None
    if blocks is None or rest[:1] != b"\1":
        return None
    rows = np.concatenate([*blocks, np.frombuffer(rest, offset=1).reshape(-1, len(usecols))])
    return rows if len(rows) else None


def _span(handle, size: int, usecols: tuple[int, ...]) -> list[np.ndarray] | None:
    """Parse the lines in the next ``size`` bytes of ``handle`` (or up to
    its end) in blocks of about ``_BLOCK_CHARS`` bytes.

    Returns the ``usecols`` columns as (lines, len(usecols)) float64
    blocks of finite values when every line is two fields that the csv
    reader takes, of plain numbers in ``usecols`` and of the same bytes
    elsewhere; returns None otherwise, and never raises or warns.
    """
    blocks, limit = [], csv.field_size_limit()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a block of blank lines
            # every line of a block but its last lies in the bytes read
            # first, so only the last can be longer than the csv reader allows
            while size > 0 and (text := handle.read(min(_BLOCK_CHARS, limit, size))):
                if len(text) < size:
                    tail = handle.readline()
                    if b"\r" in tail.removesuffix(b"\n").removesuffix(b"\r"):
                        return None  # more lines: the csv reader ends one at a lone \r
                    text += tail
                size -= len(text)
                if text.translate(None, _NUMERIC_BYTES):
                    return None
                # with only these bytes, splitlines ends lines where the csv
                # reader does: at \r, \n and \r\n
                lines = text.decode().splitlines(keepends=True)
                if len(lines[-1]) > limit or text.count(b",") != len(lines):
                    return None  # a field the csv reader rejects, or not one comma a line
                block = np.loadtxt(
                    lines, delimiter=",", comments=None, dtype=np.float64, usecols=usecols, ndmin=2
                )
                # loadtxt skips blank lines, and raises on a line that has
                # no column it uses: with as many commas as lines, every
                # line it keeps has two fields
                if len(block) != len(lines) or not np.isfinite(block).all():
                    return None
                blocks.append(block)
    except (OSError, ValueError, csv.Error, Warning):
        return None
    return blocks


def ingest_price_csv(path, tau: int) -> ReturnSeries:
    """Read a price series and form log-returns over horizon tau.

    The file must have header ``t,price`` (numeric, strictly
    increasing time index) or ``date,price`` (strictly increasing date
    strings, e.g. ISO-8601).  Returns Y_tau[i] = ln(price[i+tau] /
    price[i]), natural log.

    Raises :class:`DataError` on a missing or non-UTF-8 file, bad
    header, malformed row (with its line number), nonpositive price,
    nonincreasing time, fewer than tau+1 rows, or a non-finite
    log-return (a price ratio beyond the float range).
    """
    if tau < 1:
        raise DataError(f"tau must be >= 1, got {tau}")
    rows = _read_blocks(path, "t,price", (0, 1))
    if rows is not None:
        t, p = rows.T
        if p.size >= tau + 1 and (p > 0).all() and (t[1:] > t[:-1]).all():
            return _log_returns(path, p, tau)
    pairs = _read_pairs(path, ("t,price", "date,price"))
    numeric_time = next(pairs) == "t,price"
    times: list = []
    prices: list[float] = []
    for lineno, t_raw, p_raw in pairs:
        t_raw, p_raw = t_raw.strip(), p_raw.strip()
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
    return _log_returns(path, np.asarray(prices, dtype=np.float64), tau)


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
    """Write return samples with full round-trip precision.

    From 32 blocks of 1024 rows on, a forked child formats the second half
    of the rows while this process writes the first (see :func:`_two_halves`);
    below that the fork costs more than the half saves.
    """
    samples, half = series.samples, series.samples.size // 2

    def rows(lo: int, hi: int) -> Iterator[bytes]:
        # %r of the Python floats .tolist() makes is the repr float(numpy float64) has
        return _blocks("%d,%r\n", [range(lo, hi), samples[lo:hi]])

    with _csv_writer(path, "i,value") as out:
        _two_halves(lambda: out.writelines(rows(0, half)), lambda: rows(half, samples.size),
                    out.write, samples.size >= 32 * 1024)


def read_returns_csv(path, tau: int = 1) -> ReturnSeries:
    """Read a returns file produced by :func:`emit_returns_csv`."""
    values = _read_blocks(path, "i,value", (1,))  # the index column is never read
    if values is not None:
        return ReturnSeries(tau=tau, samples=values.ravel())
    pairs = _read_pairs(path, ("i,value",))
    next(pairs)
    values: list[float] = []
    for lineno, _, raw in pairs:
        try:
            values.append(float(raw))
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad value {raw!r}") from None
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
