"""Spans recorded around calls into the program's layers, from the outside.

A traced run wraps public functions and methods of ``repro`` by replacing the
attributes its callers look up: a module-level function is replaced in every
``repro`` module that bound it (``from x import f`` copies the reference, so
``repro.search.space.map_forest_to_interface`` is patched next to
``repro.mapping.schema_matching.map_forest_to_interface``), a method on its
class.  The program's source is not touched.

Each span records its name, start, end, parent span and request id.  A span
opened with no parent in its thread starts a request.  A call into a layer
that is already the innermost open span of its thread (recursion, or
``parse_select`` calling ``parse``) is not recorded again.  Spans stay in
memory; :meth:`Tracer.write` writes them out when the run ends.  Per-name
calls, total time and self time (duration minus the time covered by child
spans) are accumulated when each span closes, per phase of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Spans kept for writing out; later spans still count toward the totals.
SPAN_STORE_CAP = 250_000

#: (module, attribute, span name) of the module-level functions wrapped.
FUNCTIONS = (
    ("repro.pipeline", "generate_interface", "pipeline.generate"),
    ("repro.sql.parser", "parse", "sql.parse"),
    ("repro.sql.parser", "parse_select", "sql.parse"),
    ("repro.sql.printer", "to_sql", "sql.to_sql"),
    ("repro.difftree.builder", "build_forest", "difftree.build"),
    ("repro.difftree.instantiate", "instantiate", "difftree.instantiate"),
    ("repro.mapping.schema_matching", "map_forest_to_interface", "mapping.map"),
    ("repro.cost.expressiveness", "tree_covered_count", "cost.coverage"),
    ("repro.cost.layout_costs", "layout_cost", "cost.layout"),
)

#: (module, class, method, span name) of the methods wrapped.
METHODS = (
    ("repro.notebook.extension", "Pi2Extension", "generate_interface", "notebook.generate"),
    ("repro.search.space", "SearchSpace", "actions", "search.actions"),
    ("repro.search.space", "SearchSpace", "evaluate", "search.evaluate"),
    ("repro.cost.model", "CostModel", "evaluate", "cost.evaluate"),
    ("repro.interface.state", "InterfaceState", "set_widget", "interface.event"),
    ("repro.interface.state", "InterfaceState", "apply_brush", "interface.event"),
    ("repro.interface.state", "InterfaceState", "apply_pan_zoom", "interface.event"),
    ("repro.interface.state", "InterfaceState", "apply_click", "interface.event"),
    ("repro.interface.state", "InterfaceState", "refresh_all", "interface.refresh"),
    ("repro.engine.catalog", "CatalogSnapshot", "execute", "engine.execute"),
    ("repro.engine.catalog", "Catalog", "append_rows", "engine.append"),
    ("repro.serving.session", "Session", "execute", "serving.execute"),
    ("repro.serving.session", "Session", "refresh", "serving.refresh"),
)


class LayerTotals:
    """Calls, total ms and self ms of one span name in one phase."""

    __slots__ = ("calls", "ms", "self_ms")

    def __init__(self) -> None:
        self.calls = 0
        self.ms = 0.0
        self.self_ms = 0.0


class _Open:
    """A span on a thread's stack; ``child_s`` sums its closed children."""

    __slots__ = ("span_id", "name", "request_id", "child_s")

    def __init__(self, span_id: int, name: str, request_id: int) -> None:
        self.span_id = span_id
        self.name = name
        self.request_id = request_id
        self.child_s = 0.0


class Tracer:
    """Records spans from wrapped layer entry points and the benchmark itself."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        #: Label of the benchmark phase running now; spans are totalled per phase.
        self.phase = "setup"
        self.totals: dict[tuple[str, str], LayerTotals] = defaultdict(LayerTotals)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[_Open | None, _Open | None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent.name == name:
            return None, parent
        span_id = next(self._ids)
        current = _Open(span_id, name, parent.request_id if parent else span_id)
        stack.append(current)
        return current, parent

    def _close(self, current: _Open, parent: _Open | None, start: float, end: float) -> None:
        self._stack().pop()
        duration = end - start
        if parent is not None:
            parent.child_s += duration
        with self._lock:
            totals = self.totals[(self.phase, current.name)]
            totals.calls += 1
            totals.ms += duration * 1000.0
            totals.self_ms += (duration - current.child_s) * 1000.0
            if len(self.spans) < SPAN_STORE_CAP:
                self.spans.append(
                    (
                        current.span_id,
                        parent.span_id if parent else None,
                        current.request_id,
                        current.name,
                        start,
                        end,
                    )
                )
            else:
                self.dropped += 1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark around one of its own operations."""
        current, parent = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            if current is not None:
                self._close(current, parent, start, time.perf_counter())

    def wrap(self, name: str, fn):
        """``fn`` recording a ``name`` span around each call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            current, parent = self._open(name)
            if current is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(current, parent, start, time.perf_counter())

        return traced

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Wrap every entry point in :data:`FUNCTIONS` and :data:`METHODS`."""
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(name, original)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and (
                    module.__dict__.get(attr) is original
                ):
                    self._patch(module, attr, traced)
        for module_name, class_name, attr, name in METHODS:
            owner = getattr(sys.modules[module_name], class_name)
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))

    def add_hook(self, owner, attr: str, after) -> None:
        """Call ``after(args, result)`` after each call of ``owner.attr``."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            after(args, result)
            return result

        self._patch(owner, attr, hooked)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` and :meth:`add_hook` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #

    def phase_totals(self, name: str) -> dict[str, LayerTotals]:
        """Totals of one span name, keyed by phase."""
        return {phase: totals for (phase, span), totals in self.totals.items() if span == name}

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines (times in ms from the first span)."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent_id, request_id, name, start, end in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent_id,
                    "request": request_id,
                    "name": name,
                    "start_ms": round((start - origin) * 1000.0, 4),
                    "end_ms": round((end - origin) * 1000.0, 4),
                }
                handle.write(json.dumps(record) + "\n")
            if self.dropped:
                handle.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
