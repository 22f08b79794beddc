"""Outside-in wall-clock tracer: times calls into each layer's public
functions by wrapping them from the benchmark's own code.

:data:`LAYERS` names every wrapped function.  :meth:`Tracer.install`
replaces each one with a timing wrapper, both where it is defined and in
every ``repro.*`` module that imported it by name (``from ... import
rows_size`` makes a second binding that patching the defining module
alone would miss).  :meth:`Tracer.remove` puts every original back.

Spans ``(name, start, end, parent)`` are kept in memory and written once,
by :meth:`Tracer.dump`, when the run ends.  A layer's *self time* is its
spans' wall time minus the part covered by their child spans, so the self
times of all layers (plus the benchmark's own root spans) add up to the
traced wall time exactly.

Only spans on the thread that installed the tracer count toward the
self-time split; calls on other threads (the process backend's sender
threads pickle, and so encode, column batches) are recorded as separate
roots and reported as their own totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: ``(span name, module, attribute path)`` of every wrapped function.
#: Several functions may share one span name; they form one layer.
LAYERS = (
    ("core.context", "repro.core.context", "RaSQLContext.sql"),
    ("core.context", "repro.core.context", "RaSQLContext.analyze_query"),
    ("core.context", "repro.core.context", "RaSQLContext.execute_admitted"),
    ("core.parser", "repro.core.parser", "parse"),
    ("core.analyzer", "repro.core.analyzer", "analyze"),
    ("core.optimizer", "repro.core.optimizer", "optimize"),
    ("core.planner", "repro.core.planner", "plan_clique"),
    ("core.codegen", "repro.core.codegen", "attach_generated_code"),
    ("core.fixpoint", "repro.core.fixpoint", "FixpointOperator.execute"),
    ("core.executor", "repro.core.executor", "execute_select"),
    ("core.streaming.insert", "repro.core.streaming", "IncrementalView.insert"),
    ("engine.cluster.run_stage", "repro.engine.cluster", "Cluster.run_stage"),
    ("engine.cluster.exchange", "repro.engine.cluster", "Cluster.exchange"),
    ("engine.cluster.broadcast", "repro.engine.cluster", "Cluster.broadcast"),
    ("engine.joins.build", "repro.engine.joins", "build_hash_table"),
    ("engine.joins.build", "repro.engine.joins", "build_hash_table_columns"),
    ("engine.setrdd.merge", "repro.engine.setrdd", "KeyedStateRDD.merge"),
    ("engine.setrdd.merge", "repro.engine.setrdd", "KeyedStateRDD.merge_rows"),
    ("engine.setrdd.merge", "repro.engine.setrdd",
     "KeyedStateRDD.merge_rows_batch"),
    ("engine.setrdd.union", "repro.engine.setrdd", "SetRDD.union_in_place"),
    ("engine.serialization.rows_size", "repro.engine.serialization",
     "rows_size"),
    ("engine.columnar.encode", "repro.engine.columnar", "ColumnBatch.encode"),
    ("engine.columnar.decode", "repro.engine.columnar", "ColumnBatch.decode"),
    ("engine.backend.run_batch", "repro.engine.backend.process",
     "ProcessClusterBackend.run_batch"),
    ("engine.backend.install", "repro.engine.backend.process",
     "ProcessClusterBackend.install_session"),
    ("engine.backend.collect", "repro.engine.backend.process",
     "ProcessClusterBackend.collect_states"),
    ("serving.service", "repro.serving.service", "QueryService.submit"),
    ("serving.service", "repro.serving.service",
     "QueryService.submit_view_read"),
    ("serving.service", "repro.serving.service", "QueryService.submit_insert"),
    ("serving.service", "repro.serving.service", "QueryService.step"),
    ("serving.views.read", "repro.serving.views", "ServedView.read"),
)

#: Span name of the benchmark's own root spans (one per timed operation).
ROOT_SPAN = "bench.op"

_FIXPOINT = "core.fixpoint"
_RUN_STAGE = "engine.cluster.run_stage"

# Span record fields.
_NAME, _START, _END, _PARENT, _MAIN = range(5)


class Tracer:
    """Wraps :data:`LAYERS` and records one span per wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stacks = threading.local()
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        #: fixpoint span index -> start of its first ``run_stage`` span.
        self._first_stage: dict[int, float] = {}

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        start = time.perf_counter()
        self.spans.append([name, start, start, parent,
                           threading.get_ident() == self._main])
        stack.append(index)
        if name == _RUN_STAGE:
            self._mark_first_stage(parent, start)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack().pop()

    def _mark_first_stage(self, parent: int, start: float) -> None:
        while parent >= 0:
            if self.spans[parent][_NAME] == _FIXPOINT:
                self._first_stage.setdefault(parent, start)
                return
            parent = self.spans[parent][_PARENT]

    @contextmanager
    def span(self, name: str = ROOT_SPAN):
        """Record the enclosed block as a span (the benchmark's roots)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        """``fn`` with each call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    # -- patching -------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every function in :data:`LAYERS`; returns ``self``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        # Import every layer first: a module imported later would keep an
        # unwrapped by-name binding of a function patched before it.
        modules = {m: importlib.import_module(m) for _, m, _ in LAYERS}
        for name, module_name, path in LAYERS:
            module = modules[module_name]
            if "." in path:
                self._patch_method(name, module, *path.split("."))
            else:
                self._patch_function(name, getattr(module, path))
        return self

    def _patch_method(self, name: str, module, cls_name: str,
                      attr: str) -> None:
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__))
        else:
            wrapped = self.wrap(name, raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_function(self, name: str, original) -> None:
        wrapped = self.wrap(name, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def remove(self) -> None:
        """Restore every patched attribute to its original object."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """``name -> {"self_s", "wall_s", "calls"}`` over main-thread spans,
        plus ``name + "@thread"`` entries for spans on other threads."""
        child_wall = defaultdict(float)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_wall[span[_PARENT]] += span[_END] - span[_START]
        totals: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            key = span[_NAME] if span[_MAIN] else span[_NAME] + "@thread"
            entry = totals.setdefault(key, {"self_s": 0.0, "wall_s": 0.0,
                                            "calls": 0})
            wall = span[_END] - span[_START]
            entry["wall_s"] += wall
            entry["self_s"] += wall - child_wall[index]
            entry["calls"] += 1
        return totals

    def pre_stage_s(self) -> float:
        """Summed time from each fixpoint's entry to its first stage (the
        whole fixpoint when it ran no stage)."""
        total = 0.0
        for index, span in enumerate(self.spans):
            if span[_NAME] == _FIXPOINT:
                first = self._first_stage.get(index, span[_END])
                total += first - span[_START]
        return total

    def dump(self, path) -> None:
        """Write every span once, as compact JSON, at the end of a run."""
        names = sorted({span[_NAME] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][_START] if self.spans else 0.0
        payload = {
            "names": names,
            "fields": ["name", "start_us", "end_us", "parent", "main_thread"],
            "spans": [[code[s[_NAME]], round((s[_START] - origin) * 1e6, 1),
                       round((s[_END] - origin) * 1e6, 1), s[_PARENT],
                       int(s[_MAIN])] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
