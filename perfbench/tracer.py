"""In-memory span tracer that wraps functions by replacing module attributes.

A span is one call of a wrapped function: its name, span id, parent span id,
call id (one per traced top-level call), wall start and end
(`time.perf_counter`), self wall time and self busy time.  Self time is the
span's duration minus the spans nested directly in it on the same thread;
busy time is measured with `time.thread_time`, so a thread that waits for
the interpreter lock accrues wall time but no busy time.  A span opened on a
thread with no open span (a pool worker) takes the open top-level span of
the tracer as its parent.

Spans are appended to a per-thread list and only gathered when `spans()` is
called, so recording takes no lock.  `install` patches every attribute in the
given modules that refers to a target function, which covers by-name imports
(`from .quadrature import head_transform`) as well as the defining module;
`restore` puts every original back.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable

_perf = time.perf_counter
_cpu = time.thread_time


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    call_id: int
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    self_busy_s: float
    count: int

    @property
    def wall_s(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lists = []
        self._lists_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches = []          # (owner, attribute, original)
        self.call_id = 0
        self._top = None            # open top-level frame (shared by workers)

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.records
        except AttributeError:
            local.stack = []
            local.records = []
            with self._lists_lock:
                self._lists.append(local.records)
            return local.stack, local.records

    def wrap(self, name, fn: Callable, count=None, name_of=None,
             top_level=False):
        """A wrapper recording one span per call of fn.

        count(args, kwargs, result) gives the span's count (default 1; 0
        when fn raised);
        name_of(args, kwargs) overrides the span name per call; a top-level
        wrapper starts a new call id and adopts spans of threads it starts.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack, records = tracer._state()
            if top_level and not stack:
                tracer.call_id += 1
            parent = stack[-1] if stack else tracer._top
            # frame: [span id, child wall, child busy]
            frame = [next(tracer._ids), 0.0, 0.0]
            stack.append(frame)
            if top_level and len(stack) == 1:
                tracer._top = frame
            result = failed = None
            start = _perf()
            busy = _cpu()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                busy = _cpu() - busy
                end = _perf()
                stack.pop()
                if tracer._top is frame:
                    tracer._top = None
                wall = end - start
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += busy
                records.append((
                    frame[0], parent[0] if parent else None, tracer.call_id,
                    name_of(args, kwargs) if name_of else name,
                    threading.get_ident(), start, end,
                    wall - frame[1], busy - frame[2],
                    1 if count is None else
                    0 if failed else int(count(args, kwargs, result)),
                ))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def spans(self):
        """Every span recorded so far, in start order."""
        with self._lists_lock:
            out = [Span(*record) for records in self._lists for record in records]
        out.sort(key=lambda span: span.start)
        return out

    # -- patching ----------------------------------------------------------

    def install(self, targets, modules):
        """Replace every attribute of `modules` (modules or classes) that is
        one of the target functions by its wrapper.

        targets: {original function: wrapper}.  Raises if a target is found
        nowhere, so a renamed library function cannot silently drop out of
        the trace.
        """
        by_id = {id(fn): (fn, wrapper) for fn, wrapper in targets.items()}
        found = set()
        for owner in modules:
            for attribute, value in list(vars(owner).items()):
                fn, wrapper = by_id.get(id(value), (None, None))
                if fn is None or fn is not value:
                    continue
                self._patches.append((owner, attribute, value))
                setattr(owner, attribute, wrapper)
                found.add(id(value))
        missing = [fn for fn in targets if id(fn) not in found]
        if missing:
            self.restore()
            raise LookupError(f"trace targets not found: {missing!r}")

    def restore(self):
        """Put back every attribute `install` replaced (latest first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
