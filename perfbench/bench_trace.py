"""In-memory span and counter recorder for the traced benchmark run.

The traced run wraps public functions and methods of the package from the
outside: :class:`Tracer` replaces each target with a wrapper that opens a
span (id, name, start, end, parent id) around the call and, through an
optional hook, adds counts read off the call's arguments and result.  A function
target is patched at every ``repro`` module that holds a reference to it
(``from repro.kernels import segment_sum`` binds the name in the importing
module too); a method target is patched on its class.  :meth:`Tracer.remove`
restores every original.

Spans are aggregated as they close -- calls, busy seconds and self seconds
(duration minus the time covered by child spans) per name -- so hot spans
such as ``policies.observe`` cost no memory.  The first
:data:`MAX_RECORDED_SPANS` spans are also kept for the Chrome trace.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Spans kept individually for the Chrome trace (the rest are aggregated).
MAX_RECORDED_SPANS = 200_000

#: ``hook(tracer, args, kwargs, result, seconds)`` runs after a wrapped call.
Hook = Callable[["Tracer", tuple, dict, Any, float], None]


class Tracer:
    """Spans and counters recorded around wrapped package calls."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.events: List[tuple] = []  # (id, name, start, end, parent id)
        self.origin = time.perf_counter()
        self._next_id = 0
        self._stack: List[list] = []  # [name, start, child seconds, id]
        self._patches: List[tuple] = []  # (owner, attribute, original)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    @property
    def parent(self) -> Optional[str]:
        """Name of the innermost open span (``None`` at top level)."""
        return self._stack[-1][0] if self._stack else None

    def open(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def close(self) -> float:
        end = time.perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.busy_s[name] += duration
        self.self_s[name] += duration - child_s
        parent_id = None
        if self._stack:
            self._stack[-1][2] += duration
            parent_id = self._stack[-1][3]
        if len(self.events) < MAX_RECORDED_SPANS:
            self.events.append((span_id, name, start, end, parent_id))
        return duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block (the benchmark's own phases)."""
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _wrap(self, name: str, function: Callable, hook: Optional[Hook]) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                seconds = tracer.close()
            if hook is not None:
                # The span is closed, so tracer.parent is the caller's span.
                hook(tracer, args, kwargs, result, seconds)
            return result

        return wrapper

    def patch_function(self, target: str, name: str, hook: Optional[Hook] = None) -> None:
        """Wrap ``module:function`` at every ``repro`` module that binds it."""
        module_name, attribute = target.split(":")
        original = getattr(importlib.import_module(module_name), attribute)
        wrapper = self._wrap(name, original, hook)
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def patch_method(self, target: str, name: str, hook: Optional[Hook] = None) -> None:
        """Wrap ``module:Class.method`` on the class that defines it."""
        module_name, qualified = target.split(":")
        class_name, attribute = qualified.split(".")
        owner = getattr(importlib.import_module(module_name), class_name)
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self._wrap(name, raw.__func__, hook))
        else:
            replacement = self._wrap(name, raw, hook)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def remove(self) -> None:
        """Restore every patched original (reverse order)."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def layer_table(self) -> List[Dict[str, Any]]:
        """Per-span-name rows: calls, busy and self seconds (busiest first)."""
        rows = [
            {
                "span": name,
                "calls": int(self.calls[name]),
                "busy_s": self.busy_s[name],
                "self_s": self.self_s[name],
            }
            for name in self.calls
        ]
        return sorted(rows, key=lambda row: row["self_s"], reverse=True)

    def write_chrome_trace(self, path: Path) -> Path:
        """Write the recorded spans as Chrome trace-event JSON."""
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": span_id, "parent": parent_id},
            }
            for span_id, name, start, end, parent_id in self.events
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return path
