"""Outside-in span tracer for the benchmark's traced run.

The tracer never edits the program. It replaces module attributes with
timing wrappers, each at the place where the caller looks the name up
(``sim_engine.select_optimal`` is what the SIMO loop calls, while
``ee_controller.select_optimal`` is what ``on_tti`` calls), and puts the
originals back afterwards.

Spans stay in memory as parallel arrays (name id, start, end, parent)
and are written out once, when the run ends. A span's self time is its
duration minus the durations of its direct children; calls are nested
on one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter


class WrapError(RuntimeError):
    """A name the tracer must wrap is missing or not callable."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        # facts observed from arguments or results: per span index where
        # few spans carry them, summed by key where many do
        self.tags: dict[int, object] = {}
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrapper(self, fn, span_name: str, observe=None):
        """Timing wrapper around fn; observe(tracer, idx, args, kwargs,
        result) runs after the span closes and may add to tags or counts."""
        nid = self._id(span_name)
        tracer = self
        stack = self.stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, patch_points):
        """Patch every (module, attribute, span name, observe) point.

        Fails before patching anything if a name is missing, so a
        refactor that renames or removes a layer cannot zero it silently.
        """
        resolved = []
        for module_name, attr, span_name, observe in patch_points:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None or not callable(fn):
                raise WrapError(
                    f"cannot trace {module_name}.{attr}: the name is missing or not callable"
                )
            resolved.append((module, attr, fn, span_name, observe))
        for module, attr, fn, span_name, observe in resolved:
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrapper(fn, span_name, observe))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # ------------------------------------------------------------ analysis

    def durations_and_self(self):
        """(duration, self time) arrays in seconds, one entry per span."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child_sum = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return dur, dur - child_sum

    def root_time(self) -> float:
        """Seconds covered by spans that have no parent."""
        import numpy as np

        dur, _ = self.durations_and_self()
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return float(dur[parent < 0].sum())

    def write(self, path: str) -> None:
        """Save every span as numpy arrays: names[name_id] is the span's
        name, start/end are perf_counter seconds, parent is the index of
        the enclosing span or -1."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )
