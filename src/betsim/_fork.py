"""The one rule by which betsim hands work to a forked child.

The CSV writers and readers (``io._two_halves``) and a churn-free
dissipative run (``dissipative._Helper``) each fork one child that does
part of the work and sends it back through a pipe.  Both fork with
:func:`fork_pipe`, which asks :func:`can_split` first, and reap with
:func:`reap`; when the child cannot be forked or its status cannot be read,
they do its part themselves, with the same result.
"""
from __future__ import annotations

import os
import signal
import threading
import warnings
from contextlib import suppress


def can_split() -> bool:
    """Whether a child may be forked: ``os.fork`` exists, a second CPU is
    usable, no other Python thread runs, whose locks the child could
    inherit held and then wait on for ever, and SIGCHLD is not ignored,
    which has the kernel reap the child before its status is read."""
    cpus = getattr(os, "sched_getaffinity", lambda _: ())
    return (hasattr(os, "fork") and threading.active_count() == 1 and len(cpus(0)) > 1
            and signal.getsignal(signal.SIGCHLD) is not signal.SIG_IGN)


def fork_pipe(pipe_bytes: int = 0) -> tuple[int, int]:
    """Fork a child with a new pipe from it to this process.

    Returns ``(pid, fd)``, the pid as ``os.fork`` returns it: in the child,
    ``(0, write end)``; here, ``(child's pid, read end)``, each side having
    closed the other's end; or ``(-1, -1)``, with no child, when
    :func:`can_split` refuses or the pipe or the fork fails.

    ``pipe_bytes``, when set, asks the kernel for a pipe of that size
    (Linux ``F_SETPIPE_SZ``); where it is refused the pipe keeps its
    default size, which only makes the child wait sooner to write.
    """
    if not can_split():
        return -1, -1
    try:
        r, w = os.pipe()
    except OSError:
        return -1, -1
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
        if pid != 0:
            os.close(w)
        if pid <= 0:
            os.close(r)
    if pid < 0:
        return -1, -1
    return pid, (w if pid == 0 else r)


def reap(pid: int) -> int:
    """Wait for the child ``pid`` and return its wait status, or -1 when it
    was reaped elsewhere: by a host program's SIGCHLD handler, say."""
    with suppress(ChildProcessError):
        return os.waitpid(pid, 0)[1]
    return -1
