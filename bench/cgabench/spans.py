"""In-memory spans recorded from outside the program.

`Tracer.patch` replaces a public function of the `cga` package by a
wrapper that records one span per call, and `Tracer.close` puts the
original back.  Nothing under `src/` knows about it.

A span is the list ``[name, start, end, parent]``.  `parent` is the index
of the innermost span open on the same thread.  On a thread with no open
span, such as a worker of a thread pool, it is the innermost span open on
the thread that created the tracer, which is the span that started the
pool.  A span's self time is its duration minus the union of its
children's intervals, so children that ran at the same time on several
threads are subtracted once.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter
from typing import Callable

NAME, START, END, PARENT = range(4)


class Tracer:
    """Records spans around patched functions until `close` is called."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn: Callable, on_return: Callable | None = None) -> Callable:
        """`fn` with a span named `name` around each call.  `on_return`
        receives the result after the span has ended."""
        spans, lock, home = self.spans, self._lock, self._home

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = home[-1]
                except IndexError:
                    parent = -1
            span = [name, 0.0, 0.0, parent]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def patch(
        self, module: str, qualname: str, name: str, on_return: Callable | None = None
    ) -> None:
        """Trace `module.qualname` under span name `name`.

        A module-level function is replaced in every module of its package
        that binds it, so `from .x import f` call sites are traced too.  A
        method or classmethod (``"Class.attr"``) is replaced on its class.
        """
        mod = sys.modules[module]
        if "." in qualname:
            owner_name, attr = qualname.split(".")
            owner = getattr(mod, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, on_return))
            else:
                new = self.wrap(name, raw, on_return)
            setattr(owner, attr, new)
            self._restore.append((owner, attr, raw))
            return
        orig = getattr(mod, qualname)
        new = self.wrap(name, orig, on_return)
        package = module.split(".")[0]
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, attr, new)
                    self._restore.append((other, attr, orig))

    def close(self) -> None:
        """Undo every patch, newest first."""
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by the intervals, overlaps counted once."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus the part of it that
    its children cover, each child clipped to the parent's interval."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(index)
    out = [span[END] - span[START] for span in spans]
    for parent, kids in children.items():
        lo, hi = spans[parent][START], spans[parent][END]
        covered = union_length(
            [(max(lo, spans[k][START]), min(hi, spans[k][END])) for k in kids]
        )
        out[parent] -= covered
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, summed duration and summed self time."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, selfs):
        entry = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += own
    return out
