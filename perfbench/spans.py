"""In-memory span recording around the public entry points of ``repro``.

The benchmark measures layers without touching the program: :class:`Tracer`
replaces each entry point named in :data:`FUNCTION_POINTS` and
:data:`METHOD_POINTS` with a wrapper that records one span per call and
restores the originals on :meth:`Tracer.uninstall`.  A module-level
function is replaced in every loaded ``repro`` module that binds it (for
example ``repro.core.diva.suppress`` as well as ``repro.core.suppress.
suppress``), so callers that imported the name directly are covered too.

A span is ``(span_id, parent_id, name, start, end, request)``;
the parent is the innermost open span of the same thread.  Spans stay in
memory; :meth:`Tracer.dump` writes them out when a run or server stops.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

#: (module, function name, span name) for module-level functions.
FUNCTION_POINTS = (
    ("repro.core.graph", "build_graph", "graph.build"),
    ("repro.core.clusterings", "enumerate_clusterings", "enumeration"),
    ("repro.core.suppress", "suppress", "suppress"),
    ("repro.core.integrate", "integrate", "integrate"),
)

#: Modules that bind the functions above at import time; imported before
#: patching so none of them can bind an unwrapped (or stale) copy later.
BINDING_MODULES = (
    "repro.core.approx", "repro.core.parallel", "repro.core.refine",
    "repro.core.diva", "repro.anonymize", "repro.stream", "repro.io",
    "repro.cli",
)

#: (module, class, method, span name) for methods, patched on the class.
METHOD_POINTS = (
    ("repro.core.index", "RelationIndex", "__init__", "index.build"),
    ("repro.core.searchstate", "SearchState", "__init__", "searchstate.init"),
    ("repro.core.coloring", "ColoringSearch", "run", "coloring.search"),
    ("repro.anonymize.kmember", "KMemberAnonymizer", "anonymize", "kmember"),
    ("repro.core.diva", "Diva", "run", "diva.run"),
    ("repro.stream.admission", "AdmissionState", "__init__", "admission.init"),
    ("repro.stream.admission", "AdmissionState", "try_admit", "admission.try_admit"),
    ("repro.stream.admission", "AdmissionState", "materialize", "admission.materialize"),
    ("repro.stream.ledger", "ReleaseLedger", "publish", "ledger.publish"),
    ("repro.stream.engine", "StreamingAnonymizer", "ingest", "stream.ingest"),
    ("repro.io.backends", "CsvBackend", "write_release", "io.write_release"),
)


def _count_result(tracer: "Tracer", name: str, span_id: int, result: Any) -> None:
    """Counters read off a wrapped call's return value."""
    if name == "diva.run":
        tracer.add("coloring.candidates_tried", result.stats.candidates_tried)
        tracer.add("coloring.backtracks", result.stats.backtracks)
    elif name == "admission.try_admit":
        tracer.add("admission.offered", 1)
        tracer.add("admission.admitted", 1 if result else 0)
    elif name == "ledger.publish":
        tracer.add("ledger.extended", result.extended)
        tracer.add("ledger.recomputed", result.recomputed)
        if result.mode in ("scoped", "full"):
            tracer.add("stream.recomputes", 1)
    elif name == "stream.ingest" and result is not None:
        tracer.published.append(span_id)


class Tracer:
    """Records spans and counters for the calls it wraps.

    ``request_of`` returns the request id stamped on each new span; by
    default it is whatever :meth:`set_request` last set on this thread.
    """

    def __init__(self, request_of: Optional[Callable[[], Any]] = None):
        self.spans: list[tuple] = []
        self.published: list[int] = []  # stream.ingest spans that published
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched: list[tuple[Any, str, Any, bool]] = []
        self._request_of = request_of or self._thread_request

    # -- recording -------------------------------------------------------------

    def _thread_request(self) -> Any:
        return getattr(self._local, "request", None)

    def set_request(self, request: Any) -> None:
        self._local.request = request

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1] if stack else None
            request = tracer._request_of()
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end, request))
            _count_result(tracer, name, span_id, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point; safe to call once per tracer."""
        for module_name in BINDING_MODULES:
            importlib.import_module(module_name)
        for module_name, fn_name, span_name in FUNCTION_POINTS:
            original = getattr(importlib.import_module(module_name), fn_name)
            wrapped = self.wrap(span_name, original)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)
        for module_name, cls_name, method, span_name in METHOD_POINTS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, method, self.wrap(span_name, getattr(cls, method)))
        return self

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._patched.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ----------------------------------------------------------------

    def payload(self, **extra: Any) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "published": self.published,
            "counters": dict(self.counters),
            **extra,
        }

    def dump(self, path: str, **extra: Any) -> None:
        with open(path, "w") as f:
            json.dump(self.payload(**extra), f)


# -- analysis ------------------------------------------------------------------


def self_times(spans: Iterable[tuple]) -> dict[int, float]:
    """Span id → duration minus the durations of its children.

    A span's parent is the innermost open span of its own thread, so the
    children of a span are nested in it and never overlap one another.
    """
    spans = list(spans)
    result = {span_id: end - start for span_id, _p, _n, start, end, *_ in spans}
    for _span_id, parent, _name, start, end, *_ in spans:
        if parent in result:
            result[parent] -= end - start
    return result


def summarize(spans: Iterable[tuple], since: float = float("-inf")) -> dict:
    """Per span name: call count, total duration, total self time, durations.

    Only spans that start at or after ``since`` are counted; self times are
    computed over every span, so a window cut never splits a parent from
    its children's accounting.
    """
    spans = list(spans)
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": {}}
    )
    for span_id, _parent, name, start, end, *_ in spans:
        if start < since:
            continue
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += selfs[span_id]
        entry["durations"][span_id] = end - start
    return dict(out)
