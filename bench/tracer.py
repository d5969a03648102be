"""Spans and counters recorded from outside the program.

The tracer replaces functions and class attributes of ``modgal`` with
thin wrappers and puts every original binding back on ``restore``.
Nothing under ``src/`` is edited.  Each wrapped call appends one span
(name, start, end, parent span, op id) to flat arrays kept in memory;
``summary`` turns them into per-name call counts, busy time and self
time, where self time is a span's duration minus the time its direct
child spans cover.  Single-threaded use only: spans nest strictly.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import defaultdict
from functools import cached_property

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")  # 1 unless nested inside a span of the same name
        self.op_id = -1
        self._stack: list[int] = []
        self._depth: dict[int, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.outer.append(0 if self._depth[nid] else 1)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        self._depth[nid] -= 1

    def wrap(self, fn, metric: str, on_result=None):
        """A wrapper of ``fn`` that records one span named ``metric``."""
        nid = self._id(metric)
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[metric] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def wrap_generator(self, fn, metric: str):
        """Like ``wrap`` for a generator function: each resumption is a
        span, a call counts once, and each item counts in ``<metric>.yields``."""
        nid = self._id(metric)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[metric] += 1
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx, nid)
                counters[metric + ".yields"] += 1
                yield item

        return traced

    # -- installing wrappers ---------------------------------------------

    def patch_function(self, modules, owner, attr: str, metric: str, on_result=None) -> None:
        """Wrap ``owner.attr`` and rebind every name in ``modules`` that
        refers to the same object, so direct imports are traced too."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(metric)
            return
        if inspect.isgeneratorfunction(original):
            wrapper = self.wrap_generator(original, metric)
        else:
            wrapper = self.wrap(original, metric, on_result)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, name, wrapper)

    def patch_method(self, cls, attr: str, metric: str, on_result=None) -> None:
        """Wrap a class attribute (function, classmethod or
        cached_property) under every name that aliases it, such as
        ``__radd__ = __add__``."""
        raw = cls.__dict__.get(attr) if cls is not None else None
        if raw is None:
            self.missing.append(metric)
            return
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, metric, on_result))
        elif isinstance(raw, cached_property):
            new = cached_property(self.wrap(raw.func, metric, on_result))
        else:
            new = self.wrap(raw, metric, on_result)
        for name, value in list(vars(cls).items()):
            if value is raw:
                if isinstance(new, cached_property):
                    new.__set_name__(cls, name)
                self._rebind(cls, name, new)

    def _rebind(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (outermost spans only) and self_s."""
        n = len(self.start)
        out = {name: {"calls": self.calls.get(name, 0), "busy_s": 0.0, "self_s": 0.0}
               for name in self.names}
        if n == 0:
            return out
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name, dtype=np.int32)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_dur = dur - covered
        k = len(self.names)
        busy = np.bincount(names[outer], weights=dur[outer], minlength=k)
        own = np.bincount(names, weights=self_dur, minlength=k)
        for i, name in enumerate(self.names):
            out[name]["busy_s"] = float(busy[i])
            out[name]["self_s"] = float(own[i])
        return out

    def write(self, path) -> None:
        """Write the spans as arrays, with the span names alongside."""
        np.savez_compressed(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            names=np.array(json.dumps(self.names)),
        )
