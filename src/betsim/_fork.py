"""The one rule by which betsim hands work to a forked child.

A :class:`Child` streams the bytes of the chunks that ``produce()`` yields.
Where :func:`can_split` allows, a forked child runs ``produce()`` and writes
them to a pipe while this process does other work.  The child's bytes are
trusted as far as they go: when no child was forked, or the pipe ends and
the child's status is not 0 (it failed, was killed or was reaped
elsewhere), ``produce()`` runs here and the stream skips the bytes the pipe
gave, so the reader gets the same bytes, or the errors ``produce()`` raises
here.  Only :class:`Declined` crosses the pipe, as the child's exit status.
Closing the stream kills a child still running; every child is reaped.
Nothing else in betsim forks: ``io._write_csv``, ``io._read_blocks`` and
``dissipative._Helper`` each read one Child.
"""
from __future__ import annotations

import io
import os
import signal
import threading
import warnings
from contextlib import suppress

_READ_BYTES = 1 << 16  # a default pipe's capacity, the most one read of it returns


class Declined(Exception):
    """Raised by a ``produce()`` that leaves its work to another reader."""

    status = 2  # the exit status of a forked child that raised it


def can_split() -> bool:
    """Whether a child may be forked: ``os.fork`` exists, a second CPU is
    usable, no other Python thread runs, whose locks the child could
    inherit held and then wait on for ever, and SIGCHLD is not ignored,
    which has the kernel reap the child before its status is read."""
    cpus = getattr(os, "sched_getaffinity", lambda _: ())
    return (hasattr(os, "fork") and threading.active_count() == 1 and len(cpus(0)) > 1
            and signal.getsignal(signal.SIGCHLD) is not signal.SIG_IGN)


def _flat(chunk) -> memoryview:
    """The bytes of ``chunk``, a bytes-like object or C-contiguous array, as one view."""
    view = memoryview(chunk)
    return view.cast("B") if view.nbytes else memoryview(b"")


class Child(io.RawIOBase):
    """The bytes of the chunks (bytes or C-contiguous arrays) that
    ``produce()`` yields, by the rule of this module; ``split`` unset
    forks no child.

    The child writes each chunk as it comes or, with ``gather`` set, all of
    them after the last, so that it does not wait on a full pipe while this
    process does its own part first.  ``pipe_bytes``, when set, asks the
    kernel for a pipe of that size (Linux ``F_SETPIPE_SZ``); where it is
    refused, the child only waits sooner to write.  The child ends in
    ``os._exit``, so it never unwinds into the caller, runs atexit handlers
    or flushes inherited buffers.
    """

    def __init__(self, produce, split: bool, pipe_bytes: int = 0, gather: bool = False):
        self._produce, self._pid, self._fd = produce, -1, -1
        self._piped = 0  # bytes read from the pipe, which the chunks made here skip
        self._chunks, self._view = None, memoryview(b"")
        super().__init__()
        if not (split and can_split()):
            return
        try:
            r, w = os.pipe()
        except OSError:
            return
        if pipe_bytes:
            import fcntl  # POSIX only, as os.fork is

            with suppress(OSError, AttributeError):
                fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, pipe_bytes)
        pid = -1
        try:
            # Python 3.12+ warns of any other OS thread; with no other Python
            # thread running, those are numpy's BLAS threads, which the child never uses
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            pass
        finally:
            os.close(r if pid == 0 else w)
            if pid < 0:
                os.close(r)
        if pid > 0:
            self._pid, self._fd = pid, r
        if pid != 0:
            return
        code = 1  # the child: write the chunks to the pipe, and exit
        try:
            chunks = produce()
            for chunk in list(chunks) if gather else chunks:
                view = _flat(chunk)
                while view:
                    view = view[os.write(w, view):]
            code = 0
        except Declined:
            code = Declined.status
        finally:
            os._exit(code)

    def readinto(self, b) -> int:
        """Fill the start of ``b`` with the next bytes; returns how many, 0 at the end."""
        b = _flat(b)
        if not b:
            return 0
        if self._fd >= 0:
            if n := os.readv(self._fd, [b]):
                self._piped += n
                return n
            status = self._reap(kill=False)
            if status == 0:
                self._chunks = iter(())
            elif os.WIFEXITED(status) and os.WEXITSTATUS(status) == Declined.status:
                raise Declined
        if self._chunks is None:  # no child, or one that failed: the chunks are made here
            self._chunks = iter(self._produce())
        while not self._view:
            chunk = next(self._chunks, None)
            if chunk is None:
                return 0
            view = _flat(chunk)
            skip = min(self._piped, len(view))
            self._piped -= skip
            self._view = view[skip:]
        n = min(len(b), len(self._view))
        b[:n], self._view = self._view[:n], self._view[n:]
        return n

    def readall(self) -> bytes:
        """The bytes left, read a pipeful at a time."""
        return b"".join(iter(lambda: self.read(_READ_BYTES), b""))

    def close(self) -> None:
        """Kill the child if it still runs, and reap it."""
        if self._fd >= 0:
            self._reap(kill=True)
        super().close()

    def _reap(self, kill: bool) -> int:
        """Close the pipe, kill the child first if ``kill``, and reap it; returns
        its wait status, or -1 when it was reaped elsewhere (a SIGCHLD handler)."""
        os.close(self._fd)
        self._fd = -1
        if kill:
            with suppress(ProcessLookupError):
                os.kill(self._pid, signal.SIGKILL)
        with suppress(ChildProcessError):
            return os.waitpid(self._pid, 0)[1]
        return -1
