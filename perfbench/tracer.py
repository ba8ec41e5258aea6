"""Span tracer that wraps betsim's public functions from outside the package.

betsim's modules import each other's functions by name (``from .core import
macro_snapshot`` in ``conservative`` and ``dissipative``, ``log_evidence`` and
``run_*`` in ``cli``), so patching only the defining module would miss most
calls.  :class:`Tracer` therefore replaces a public function in *every* betsim
module namespace that binds it, matched by identity, and puts the originals
back on exit.

Spans are kept in memory as flat int64 records ``(name, start_ns, end_ns,
parent, run_id)`` and turned into counts and self times (duration minus the
child spans) only after the traced pass, so the pass itself pays one array
append per call.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

# (class, method) pairs wrapped on the class: posteriors are recomputed on
# demand, so their call count is the population-summary work per step
METHODS = (("core", "EnsembleState", "posteriors"),)

MARK = "__perfbench_wrapped__"


def betsim_modules() -> dict[str, object]:
    """Short name -> module for every imported betsim module."""
    mods = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "betsim" or name.startswith("betsim.")):
            mods[name.rpartition(".")[2]] = mod
    return mods


def _note_for(qualname: str):
    """Argument probe recorded with a span, or None for plain spans.

    Probes read only sizes and paths, so a traced call does the same work
    as an untraced one.
    """
    layer, _, fn = qualname.partition(".")
    if qualname in ("inference.gaussian_variance_loglik", "inference.exponential_loglik"):
        return lambda args, kwargs: (int(np.size(args[1])), args[0].n)
    if qualname == "superstat.generate_returns":
        return lambda args, kwargs: int(args[1])
    if layer == "io" and fn.startswith("emit_") and fn.endswith("_csv"):
        return lambda args, kwargs: os.path.abspath(args[-1])
    if qualname in ("io.read_returns_csv", "io.ingest_price_csv"):
        return lambda args, kwargs: os.path.abspath(args[0])
    return None


class Tracer:
    """Context manager: wraps on entry, restores on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")  # five int64 fields per span
        self.notes: list[tuple[int, object]] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, qualname: str):
        idx = len(self.names)
        self.names.append(qualname)
        spans, stack, notes = self.spans, self._stack, self.notes
        note = _note_for(qualname)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans) // 5
            spans.extend((idx, 0, 0, stack[-1] if stack else -1, self.run_id))
            stack.append(me)
            spans[5 * me + 1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[5 * me + 2] = clock()
                stack.pop()
                if note is not None:
                    notes.append((me, note(args, kwargs)))

        setattr(wrapper, MARK, True)
        return wrapper

    def __enter__(self):
        mods = betsim_modules()
        originals: dict[int, tuple[object, object]] = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    originals[id(obj)] = (obj, self._wrap(obj, f"{short}.{name}"))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, f"{short}.{cls_name}.{meth}"))
        return self

    def __exit__(self, *exc):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()
        return False

    def span_table(self) -> np.ndarray:
        """Spans as an (n, 5) int64 copy, one row per call."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 5).copy()

    def summary(self) -> dict:
        """Per-name calls, self and inclusive seconds, plus per-run splits."""
        n_names = len(self.names)
        if not self.spans:
            zero = np.zeros(n_names)
            return {"calls": zero, "self_s": zero, "incl_s": zero, "by_run": {}}
        arr = self.span_table()
        name, parent, run = arr[:, 0], arr[:, 3], arr[:, 4]
        dur = arr[:, 2] - arr[:, 1]
        child = np.zeros(len(arr), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        by_run: dict[tuple[str, int], float] = {}
        for k in np.unique(run):
            sel = run == k
            s = np.bincount(name[sel], weights=self_ns[sel], minlength=n_names)
            for i in np.nonzero(s)[0]:
                by_run[(self.names[i], int(k))] = float(s[i]) / 1e9
        return {
            "calls": np.bincount(name, minlength=n_names),
            "self_s": np.bincount(name, weights=self_ns, minlength=n_names) / 1e9,
            "incl_s": np.bincount(name, weights=dur, minlength=n_names) / 1e9,
            "by_run": by_run,
        }

    def save(self, path) -> None:
        """Write the raw spans and notes, for inspection after the run."""
        np.savez(
            path,
            names=np.array(self.names),
            spans=self.span_table(),
            columns=np.array(["name", "start_ns", "end_ns", "parent", "run_id"]),
            notes=np.array([f"{i}\t{v}" for i, v in self.notes]),
        )


def leftover_wrappers() -> list[str]:
    """Names in betsim namespaces still bound to a wrapper (should be empty)."""
    left = []
    for short, mod in betsim_modules().items():
        for name, obj in vars(mod).items():
            if getattr(obj, MARK, False):
                left.append(f"{short}.{name}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                left += [
                    f"{short}.{name}.{m}"
                    for m, v in vars(obj).items()
                    if getattr(v, MARK, False)
                ]
    return left
