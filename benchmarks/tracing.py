"""Span tracer that wraps spinaxes' public functions from outside the package.

Every traced function is replaced at each module binding that holds it, so
``spinaxes.angular.couple``, ``spinaxes.axes.couple`` and
``spinaxes.invariants.couple`` all record spans. A span is
``(name, start, end, parent, op id, failed)``; spans stay in memory and are
written out once the run ends. Self time is a span's duration minus the
durations of its direct children (calls are single-threaded and nested, so
children never overlap).
"""

import functools
import json
import sys
from time import perf_counter

# (module, function) pairs traced in --trace 1 runs, named "<module>.<function>"
TRACED = (
    ("angular", "couple"),
    ("angular", "wigner_D_matrix"),
    ("axes", "build_polynomial"),
    ("axes", "solve_axes"),
    ("axes", "pair_and_canonicalize"),
    ("axes", "scalar_r"),
    ("axes", "coupled_axes_tensor"),
    ("axes", "decompose"),
    ("axes", "reconstruct_tensor"),
    ("invariants", "enumerate_invariants"),
    ("tensors", "to_tensor"),
    ("tensors", "from_tensor"),
    ("tensors", "rotate_tensor"),
    ("states", "channel_mixed"),
    ("states", "ppt_separable"),
    ("cli", "main"),
)

# lru caches whose hit ratio the traced run reports, read from cache_info()
CACHES = (
    ("angular.cg_cache", "_cg_exact"),
    ("angular.tensor_operator_cache", "_tensor_operator_cached"),
)

OP_SPAN = "op"


class Tracer:
    """Records spans of the traced functions while ``active`` is set."""

    def __init__(self, error_types):
        self.spans = []
        self.active = False
        self.op_id = -1
        self._stack = []
        self._patches = []
        self._error_types = error_types

    def install(self) -> None:
        """Wrap each traced function at every ``spinaxes`` module binding that holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "spinaxes" or name.startswith("spinaxes."))]
        for modname, fname in TRACED:
            original = getattr(sys.modules.get(f"spinaxes.{modname}"), fname, None)
            if original is None:
                continue
            wrapper = self._wrap(original, f"{modname}.{fname}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name):
        tracer = self
        error_types = self._error_types

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            failed = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except error_types:
                failed = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, tracer.op_id, failed)

        return traced

    def run_op(self, op_id: int, fn):
        """Call fn() under a root span for the op; spans of the calls it makes nest below."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self.op_id = op_id
        self.active = True
        start = perf_counter()
        failed = False
        try:
            return fn()
        except self._error_types:
            failed = True
            raise
        finally:
            end = perf_counter()
            self.active = False
            self._stack.pop()
            self.spans[sid] = (OP_SPAN, start, end, -1, op_id, failed)

    def summary(self) -> dict:
        """Per function name: calls, total and self seconds, and calls that raised."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for sid, (name, start, end, _, _, failed) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
            entry["errors"] += failed
        return out

    def write(self, path: str, header: dict) -> None:
        """Write a header line, then one JSON list per span: [name, start, end, parent, op, failed]."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class CacheCounter:
    """Sums lru_cache hits and misses of spinaxes.angular over chosen stretches of work."""

    def __init__(self, angular_module):
        self._caches = {name: getattr(angular_module, attr, None) for name, attr in CACHES}
        self.hits = dict.fromkeys(self._caches, 0)
        self.misses = dict.fromkeys(self._caches, 0)

    def _snapshot(self):
        return {name: fn.cache_info() for name, fn in self._caches.items()
                if hasattr(fn, "cache_info")}

    def count(self, fn):
        """Call fn() and add the cache lookups it made."""
        before = self._snapshot()
        try:
            return fn()
        finally:
            after = self._snapshot()
            for name, info in after.items():
                self.hits[name] += info.hits - before[name].hits
                self.misses[name] += info.misses - before[name].misses

    def hit_ratio(self, name: str) -> float:
        """Hits over lookups; 0 when the cache is gone or saw no lookups."""
        lookups = self.hits[name] + self.misses[name]
        return self.hits[name] / lookups if lookups else 0.0
