"""Spans around the program's public entry points, kept in memory.

The traced run wraps the functions and methods each layer is entered
through and records, per layer name, the call count, inclusive time and
self time (inclusive minus the part covered by child spans on the same
thread).  Coroutines interleave on one thread, so async layers record
inclusive time only and their self time is derived by the caller.
Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans = 0
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, duration: float, child: float = 0.0) -> None:
        with self._lock:
            self.calls[name] += 1
            self.incl[name] += duration
            self.self_s[name] += duration - child
            self.spans += 1

    def wrap(self, name: str, fn, on_exit=None):
        """A synchronous span around ``fn``; ``on_exit(args, result, s)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                self.record(name, duration, child)
                if on_exit is not None:
                    on_exit(args, result, duration)

        return wrapper

    def wrap_async(self, name: str, fn):
        """An inclusive-time span around coroutine function ``fn``."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.record(name, time.perf_counter() - t0)

        return wrapper

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        """Replace ``owner.attr`` with ``wrapper_factory(original)``."""
        raw = inspect.getattr_static(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper_factory(getattr(owner, attr)))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_cost_s(self, n: int = 20000) -> float:
        """Measured cost of one synchronous span with nothing inside it."""
        probe = Tracer()
        noop = probe.wrap("probe", lambda: None)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        spent = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            (lambda: None)()
        bare = time.perf_counter() - t0
        return max(spent - bare, 0.0) / n
