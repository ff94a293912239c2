"""Outside-in layer trace: spans around the public calls into each layer.

Nothing in ``src/`` is instrumented.  :class:`Tracer` instead replaces
each public callable in :data:`TARGETS` at the binding its caller looks
up (a class attribute for methods, the importing module's global for
functions, e.g. ``repro.core.accelerator.build_interhub_plan``) with a
wrapper that records one span per call.  Spans (name, start, end,
parent) stay in memory; :meth:`Tracer.write_chrome` writes them out as
Chrome trace-event JSON at the end of the run.

A layer's self time is its spans' durations minus the part covered by
their child spans, so nested calls into the same or another layer are
never counted twice.  Each op or setup repetition is a root span; the
part of a root not covered by any top-level layer span is reported as
``trace.unattributed``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from typing import Any, Callable

#: (module, attribute path at the binding the caller looks up, layer).
#: Several bindings may feed one layer; nested calls of one layer (an
#: ``islandize`` that calls ``IslandLocator.run``) split its self time
#: between the two spans but never count it twice.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.graph.csr", "CSRGraph.without_self_loops", "graph.csr.clean"),
    ("repro.graph.csr", "CSRGraph.with_self_loops", "graph.csr.clean"),
    ("repro.core.accelerator", "normalization_for", "models.reference.norm"),
    ("repro.core.islandizer", "IslandLocator.run", "core.islandizer.locate"),
    ("repro.core.accelerator", "islandize", "core.islandizer.locate"),
    ("repro.runtime.engine", "islandize", "core.islandizer.locate"),
    ("repro.core.consumer", "IslandConsumer.prepare_chunk", "core.consumer.assemble"),
    ("repro.core.consumer", "IslandConsumer.prepare", "core.consumer.assemble"),
    ("repro.core.consumer", "IslandConsumer.run_layer_chunked", "core.consumer.layer"),
    ("repro.core.consumer", "IslandConsumer.run_layer", "core.consumer.layer"),
    ("repro.core.accelerator", "build_interhub_plan", "core.interhub.plan"),
    ("repro.core.accelerator", "streamed_schedule", "core.pipeline.schedule"),
    ("repro.core.accelerator", "pipelined_makespan", "core.pipeline.schedule"),
    ("repro.runtime.store", "DiskStore.get", "runtime.store.get"),
    ("repro.runtime.store", "DiskStore.put", "runtime.store.put"),
    ("repro.runtime.engine", "Engine.sweep", "runtime.engine"),
    ("repro.runtime.engine", "Engine.summary", "runtime.engine"),
    ("repro.runtime.engine", "Engine.simulate", "runtime.engine"),
    ("repro.runtime.registry", "WrappedSimulator.simulate", "baselines.simulate"),
    ("repro.graph.generators", "hub_island_graph", "graph.generators.generate"),
    ("repro.graph.datasets", "hub_island_graph", "graph.generators.generate"),
    ("repro.graph.datasets", "load_dataset", "graph.datasets.load"),
    ("repro.runtime.engine", "load_dataset", "graph.datasets.load"),
)


def _resolve(module_name: str, path: str) -> tuple[Any, str, Any]:
    """(owner, attribute, raw value) of ``module:path``; raises if gone.

    A class attribute is read from the class ``__dict__`` so the value
    restored afterwards is the exact descriptor that was there.
    """
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None or not callable(raw):
        raise LookupError(
            f"trace target {module_name}.{path} no longer exists; "
            "move the span with the call site"
        )
    return owner, attr, raw


class Tracer:
    """In-memory span recorder over the public calls in :data:`TARGETS`."""

    def __init__(self, on_return: dict[str, Callable[[Any], None]] | None = None) -> None:
        #: Completed and open spans: [name, start_ns, end_ns, parent, child_ns].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._on_return = on_return or {}
        self._installed: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, 0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def _wrap(self, layer: str, target: str, fn: Callable) -> Callable:
        observe = self._on_return.get(target)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper for the ``with`` block, then restore."""
        try:
            for module_name, path, layer in TARGETS:
                owner, attr, raw = _resolve(module_name, path)
                self._installed.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(layer, path, raw))
            yield self
        finally:
            while self._installed:
                owner, attr, raw = self._installed.pop()
                setattr(owner, attr, raw)

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span (one op or one setup repetition)."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    # ------------------------------------------------------------------
    def breakdown(self, root: int) -> tuple[dict[str, float], dict[str, int], float]:
        """(self seconds per layer, calls per layer, unattributed s) of a root."""
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        inside = {root}
        for index in range(root + 1, len(self.spans)):
            name, start, end, parent, child_ns = self.spans[index]
            if parent not in inside:
                break
            inside.add(index)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_ns) / 1e9
            calls[name] = calls.get(name, 0) + 1
        _, start, end, _, child_ns = self.spans[root]
        return self_s, calls, (end - start - child_ns) / 1e9

    def write_chrome(self, path) -> None:
        """Write every span as Chrome trace-event JSON (complete events)."""
        events = []
        for name, start, end, parent, _ in self.spans:
            events.append({
                "name": name,
                "cat": "root" if parent < 0 else "layer",
                "ph": "X",
                "ts": start / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"parent": self.spans[parent][0] if parent >= 0 else None},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
