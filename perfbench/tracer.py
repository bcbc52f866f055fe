"""
Span tracing for the benchmark's traced pass, done from outside the library.

Tracer.install() replaces each public function of the meshlab modules, in
every meshlab namespace that holds it, with a wrapper that records a span:
(name, start, end, parent, run id).  Spans stay in memory; summary() turns
them into self times (span time minus the time its child spans cover) and
the trace file is written when the pass ends.

A few functions run once per permutation or once per position.  A span for
each would cost more than the work it measures, so they are only counted
(COUNT_ONLY) or left alone (SKIP); the layer probe times them instead.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable

LAYERS = ("permutations", "_kernel", "algebra", "distributions", "coeff_laws", "verify", "cli")

COUNT_ONLY = frozenset(
    {
        "permutations.mmp_count",
        "permutations.enumerate_alternating",
        "_kernel.count_distribution",
    }
)
SKIP = frozenset({"permutations.matches", "permutations.quadrant_counts"})

# Work counts read off a wrapped call's arguments.  A truncated ODE solve of
# order N sums N(N+1)/2 products of series coefficients.
def _ode_terms(args, kwargs) -> int:
    order = args[3] if len(args) > 3 else kwargs.get("order")
    return order * (order + 1) // 2 if isinstance(order, int) else 0


ARG_COUNTS = {"algebra.solve_linear_ode": ("algebra.ode_terms", _ode_terms)}

NAME, START, END, PARENT = range(4)


def meshlab_namespaces() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "meshlab" or name.startswith("meshlab."))
    ]


def patch_everywhere(original, replacement) -> Callable[[], None]:
    """Rebind every meshlab module attribute holding original; return the undo."""
    bound = []
    for mod in meshlab_namespaces():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                bound.append((mod, attr))

    def restore() -> None:
        for mod, attr in bound:
            setattr(mod, attr, original)

    return restore


def _own_function(obj, module) -> bool:
    routine = (
        callable(obj)
        and not isinstance(obj, type)
        and (hasattr(obj, "__code__") or hasattr(obj, "cache_info") or hasattr(obj, "py_func"))
    )
    return routine and getattr(obj, "__module__", None) == module.__name__


class Tracer:
    """Spans and counts of one traced pass; install() before, uninstall() after."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[Callable[[], None]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            self.counts[f"{name}.calls"] += 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _span_wrapper(self, name: str, fn):
        arg_count = ARG_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if arg_count is not None:
                with self._lock:
                    self.counts[arg_count[0]] += arg_count[1](args, kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"meshlab.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in SKIP or not _own_function(obj, module):
                    continue
                if name in COUNT_ONLY:
                    wrapper = self._count_wrapper(name, obj)
                else:
                    wrapper = self._span_wrapper(name, obj)
                self._undo.append(patch_everywhere(obj, wrapper))
        series = getattr(sys.modules.get("meshlab.algebra"), "EgfSeries", None)
        if series is not None:
            mul = series.__mul__
            wrapped = self._span_wrapper("algebra.egf_mul", mul)
            series.__mul__ = series.__rmul__ = wrapped

            def restore_mul() -> None:
                series.__mul__ = series.__rmul__ = mul

            self._undo.append(restore_mul)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def summary(self, wall_s: float) -> dict:
        """
        Per name: calls, inclusive time (outermost spans of that name only, so
        recursion is not counted twice) and self time; per module: self time
        and its share of wall_s.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[END] is not None and s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        names: dict[str, dict] = {}
        modules: Counter = Counter()
        for i, s in enumerate(self.spans):
            if s[END] is None:
                continue
            duration = s[END] - s[START]
            self_s = duration - child[i]
            entry = names.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            if not self._has_ancestor_named(s, s[NAME]):
                entry["total_s"] += duration
            modules[s[NAME].split(".")[0]] += self_s
        return {
            "run_id": self.run_id,
            "wall_s": wall_s,
            "spans": len(self.spans),
            "names": names,
            "module_self_s": dict(modules),
            "module_self_share": {m: t / wall_s for m, t in modules.items()} if wall_s else {},
            "counts": dict(self.counts),
        }

    def _has_ancestor_named(self, span: list, name: str) -> bool:
        parent = span[PARENT]
        while parent is not None:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def dump(self) -> list[list]:
        """Raw spans as [name, start, end, parent, run id] rows."""
        return [[s[NAME], s[START], s[END], s[PARENT], self.run_id] for s in self.spans]
