"""Span tracing from outside the program: wraps the module-level public
functions of the measured `bigatid` modules, in every module namespace that
binds them (so `layers.sigmoid` and `explain.forward` are caught too).

Each call becomes a span (name, start, end, parent, op). Spans stay in memory
and are written out once, at the end of the traced run. Span names use the
module that defines the function: `numerics.sigmoid`, whichever module's
binding the call went through.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
import types
from collections import defaultdict

MEASURED = ("data", "layers", "model", "training", "metrics", "explain", "numerics")
SETUP_OP = -1


class Tracer:
    """Installs span wrappers; `op` is the index of the op being traced
    (SETUP_OP during set-up). With `memory=True` each span also records its
    peak traced allocation above the level at entry (tracemalloc)."""

    def __init__(self, package, memory: bool = False, arg_counters: dict | None = None):
        self.modules = {name: getattr(package, name) for name in MEASURED
                        if hasattr(package, name)}
        self.memory = memory
        self.arg_counters = arg_counters or {}
        self.spans: list = []
        self.stack: list[int] = []
        self.op = SETUP_OP
        self.counters: dict = defaultdict(float)      # (op, counter name) -> total
        self.wrapped: set[str] = set()
        self._restore: list = []
        self._peaks: dict[int, int] = {}

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        owners = {m.__name__ for m in self.modules.values()}
        wrappers = {}
        for mod in self.modules.values():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ not in owners):
                    continue
                if fn not in wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    wrappers[fn] = self._wrap(fn, name)
                    self.wrapped.add(name)
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        for mod, attr, fn in self._restore:
            setattr(mod, attr, fn)
        self._restore.clear()
        if self.memory:
            tracemalloc.stop()

    def _wrap(self, fn, name: str):
        spans, stack, memory = self.spans, self.stack, self.memory
        counter = self.arg_counters.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            if counter is not None:
                self.counters[(self.op, counter[0])] += counter[1](args, kwargs)
            if memory:
                entry = self._mem_enter(parent)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                peak = self._mem_exit(idx, parent, entry) if memory else 0.0
                spans[idx] = [name, start, end, parent, self.op, peak]
        return span

    # -- memory: peak above the entry level, folded into the parent ---------
    def _mem_enter(self, parent: int) -> int:
        current, peak = tracemalloc.get_traced_memory()
        if parent >= 0:
            self._peaks[parent] = max(self._peaks.get(parent, 0), peak)
        tracemalloc.reset_peak()
        return current

    def _mem_exit(self, idx: int, parent: int, entry: int) -> float:
        peak = max(tracemalloc.get_traced_memory()[1], self._peaks.pop(idx, 0))
        if parent >= 0:
            self._peaks[parent] = max(self._peaks.get(parent, 0), peak)
        tracemalloc.reset_peak()
        return (peak - entry) / 2 ** 20

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reduction ------------------------------------------------------------
    def per_op(self):
        """{op: {name: [self_ms, calls, peak_mb]}} with self time = span
        duration minus the time its child spans cover."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s is not None and s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        table: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0.0]))
        for idx, s in enumerate(self.spans):
            if s is None:
                continue
            row = table[s[4]][s[0]]
            row[0] += (s[2] - s[1] - child_time[idx]) * 1e3
            row[1] += 1
            row[2] = max(row[2], s[5])
        return table

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s is None:
                    continue
                name, start, end, parent, op, peak = s
                rec = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                if self.memory:
                    rec["peak_mb"] = peak
                fh.write(json.dumps(rec) + "\n")
