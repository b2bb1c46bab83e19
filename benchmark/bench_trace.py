"""
Span tracing of arraymend from outside the package.

A Tracer replaces chosen functions in every arraymend module namespace that
holds them (the package imports names across modules, so one function can be
bound in several places) with a wrapper that records a span: name, start,
end, parent span, problem id, thread and a few attributes taken from the
result. Spans are kept per thread in memory and written out at the end.
Leaving the `with` block puts every original function back.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

PACKAGE = "arraymend"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    problem: str | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps functions of the `arraymend` modules; use as a context manager."""

    def __init__(self):
        self._t0 = time.perf_counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list[Span]] = []
        self._main_stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = (self._main_stack if threading.current_thread() is threading.main_thread()
                           else [])
            with self._lock:
                self._per_thread.append(local.spans)
        return local

    def _open(self, name: str, problem: str | None) -> Span:
        state = self._state()
        stack = state.stack
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            # Top-level span of a worker thread: caused by the span the main
            # thread has open (the batch dispatch).
            parent = self._main_stack[-1]
        else:
            parent = None
        if problem is None and parent is not None:
            problem = parent.problem
        span = Span(id=next(self._ids), name=name, start=time.perf_counter() - self._t0,
                    end=float("nan"), parent=None if parent is None else parent.id,
                    problem=problem, thread=threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter() - self._t0
        state = self._state()
        state.stack.pop()
        state.spans.append(span)

    def spans(self) -> list[Span]:
        """Every closed span of every thread, ordered by start time."""
        with self._lock:
            out = [s for spans in self._per_thread for s in spans]
        return sorted(out, key=lambda s: (s.start, s.id))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans()], fh)
            fh.write("\n")

    # -- patching -----------------------------------------------------------

    @staticmethod
    def modules():
        """The loaded arraymend modules, whose namespaces the tracer patches."""
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def traced(self, original, name: str, problem_of=None, on_result=None):
        """
        A wrapper of `original` that records one span per call.

        problem_of(args, kwargs) names the problem a call works on (otherwise
        it is inherited from the parent span); on_result(span, result) copies
        attributes from the return value. An exception is recorded as the
        span's `error` attribute and re-raised.
        """

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name, problem_of(args, kwargs) if problem_of else None)
            try:
                result = original(*args, **kwargs)
            except BaseException as err:
                span.attrs["error"] = type(err).__name__
                self._close(span)
                raise
            if on_result is not None:
                on_result(span, result)
            self._close(span)
            return result

        return traced

    def wrap(self, module, attr: str, name: str, problem_of=None, on_result=None) -> None:
        """Trace `module.attr` wherever an arraymend module binds that function."""
        original = getattr(module, attr)
        traced = self.traced(original, name, problem_of, on_result)
        for mod in self.modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patched.append((mod, key, original))

    def restore(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def span_cost(calls: int = 50_000) -> float:
    """
    Seconds a traced call adds over a plain one, measured on a no-op.

    Tracing overhead is this cost times the number of spans: the difference
    between a traced and an untraced pass of the same work is far smaller
    than the run-to-run noise of a pass on a shared machine.
    """
    def noop():
        return None

    traced = Tracer().traced(noop, "noop")
    elapsed = []
    for fn in (noop, traced):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(time.perf_counter() - t0)
    return max(elapsed[1] - elapsed[0], 0.0) / calls


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its children's intervals cover."""
    cover = 0.0
    cur_start = cur_end = None
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, span.start), min(c.end, span.end)
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                cover += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        cover += cur_end - cur_start
    return span.duration - cover
