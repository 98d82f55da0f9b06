"""In-memory spans recorded from the benchmark's side of each layer call.

A :class:`Tracer` keeps one span stack per thread.  A span's *self time*
is its duration minus the part covered by its child spans, so nested
layer calls are attributed once each.  Spans stay in memory and are
written out by :meth:`Tracer.dump` when the run ends; work counts are
plain integers added next to the spans that produced them.

Nothing here changes the program: :meth:`Tracer.patch` and
:meth:`Tracer.patch_all` swap a module, class or instance attribute for
a timing wrapper and :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Per-layer self time and work counts for one traced pass."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request=None):
        """Time the enclosed block as layer ``name``.

        ``request`` tags a root span; nested spans inherit the tag.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent["request"]
        frame = {"name": name, "children_s": 0.0, "request": request}
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent["children_s"] += duration
            with self._lock:
                self.self_s[name] += duration - frame["children_s"]
                self.spans.append(
                    (request, name, parent and parent["name"], start, end)
                )

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += int(n)

    def first(self, key) -> bool:
        """True the first time ``key`` is seen within the current root span."""
        stack = self._stack()
        seen = stack[0].setdefault("seen", set()) if stack else set()
        if key in seen:
            return False
        seen.add(key)
        return True

    def wrap(self, name, fn, count=None):
        """``fn`` with every call timed as a layer.

        ``name`` is the layer, or a function of the call's arguments that
        returns it; ``count(result, *args, **kwargs)`` returns work counts
        to add for the call.
        """

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            layer = name(*args, **kwargs) if callable(name) else name
            with self.span(layer):
                result = fn(*args, **kwargs)
            if count is not None:
                for metric, n in count(result, *args, **kwargs).items():
                    self.add(metric, n)
            return result

        return timed

    def patch(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper until :meth:`restore`."""
        had_own = attr in vars(owner)
        raw = vars(owner)[attr] if had_own else None
        timed = self.wrap(name, getattr(owner, attr), count)
        self._patched.append((owner, attr, had_own, raw))
        setattr(owner, attr, staticmethod(timed) if isinstance(owner, type) else timed)

    def patch_all(self, fn, name, count=None, extra=()) -> None:
        """Wrap every module-level binding of ``fn`` in the loaded ``repro``
        modules and in the modules ``extra``, so callers that imported it
        by name see the wrapper too."""
        timed = self.wrap(name, fn, count)
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "repro" or key.startswith("repro.")
        ] + list(extra)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, True, fn))
                    setattr(module, attr, timed)

    def restore(self) -> None:
        for owner, attr, had_own, raw in reversed(self._patched):
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w", encoding="utf-8") as f:
            for request, name, parent, start, end in self.spans:
                doc = {
                    "request": request,
                    "name": name,
                    "parent": parent,
                    "start": start,
                    "end": end,
                }
                f.write(json.dumps(doc) + "\n")
