"""Span tracing from outside the program.

``Tracer.install`` replaces a function on a module of ``remtrack`` by a
wrapper, at the name its caller looks it up under (``remtrack.tracker.iou``
is the ``iou`` the tracker calls, not the one in ``remtrack.geometry``).
``uninstall`` puts every original back.

Each wrapper times its call with ``perf_counter`` and charges the duration to
the enclosing wrapped call, so self time (a span's time minus the time its
child spans cover) is exact without storing the children. Calls into coarse
functions are kept as spans (name, start, end, parent) in memory and written
out at the end of a run; functions called millions of times, such as ``iou``,
are wrapped with ``keep=False`` and only add to the per-name totals, because
a stored span each would cost more memory and time than the call itself.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index or None, child seconds]
        self._patched: list[tuple[object, str, object]] = []

    def install(
        self,
        module,
        attr: str,
        name: str,
        keep: bool = True,
        count: Callable | None = None,
        timed: bool = True,
    ) -> None:
        """Wrap ``module.attr`` as span ``name``.

        ``count(args, kwargs, result)`` returns ``{counter: amount}`` to add
        after the call; it runs outside the timed interval. ``timed=False``
        only counts calls, for functions too small to time.
        """
        original = getattr(module, attr)
        if timed:
            wrapper = self._timed(original, name, keep, count)
        else:
            wrapper = self._counted(original, name, count)
        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _timed(self, fn, name, keep, count):
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            index = None
            if keep:
                index = len(spans)
                spans.append((name, 0.0, 0.0, parent))
            frame = [index if keep else parent, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                if stack:
                    stack[-1][1] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.calls[name] += 1
                if keep:
                    spans[index] = (name, t0, t1, parent)
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    self.counts[key] += amount
            return result

        return wrapper

    def _counted(self, fn, name, count):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls[name] += 1
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    self.counts[key] += amount
            return result

        return wrapper

    def write_spans(self, out, phase: str) -> None:
        """One JSON line per kept span; ``parent`` is an ``id`` or null."""
        for index, (name, start, end, parent) in enumerate(self.spans):
            record = {"phase": phase, "id": index, "name": name, "start": start, "end": end, "parent": parent}
            out.write(json.dumps(record) + "\n")
