"""In-memory spans for the traced benchmark run.

Nothing under ``src/`` knows about this module. A :class:`Tracer`
replaces selected public functions and methods of the ``repro`` layers
with timing wrappers (see :data:`FUNCTION_PROBES` and friends), records
one span per call and puts the originals back on :meth:`Tracer.restore`.

A span is ``(id, parent_id, request_id, name, start, end)``. Parents
come from a per-thread stack, so nesting is exact on one thread; the
request id comes from a context variable that the benchmark (or the
daemon-side probes) set per request, with :attr:`Tracer.default_rid`
as the fallback for worker threads that do not inherit it. Spans stay
in memory and are written once, at the end, by :meth:`Tracer.dump`.

A layer's *self time* is its spans' duration minus the time their child
spans cover; the per-layer ``*_us`` metrics are self time per request.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

_RID: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request_id", default=None
)

#: (module, attribute, span name): module-level functions, patched in
#: the module that *calls* them (the name a caller looks up at run time).
FUNCTION_PROBES = (
    ("repro.sqlparser.parser", "tokenize", "sqlparser.tokenize"),
    ("repro.blocks.normalize", "parse_select", "sqlparser.parse"),
    ("repro.blocks.normalize", "normalize_select", "blocks.normalize"),
    ("repro.blocks.normalize", "parse_query", "blocks.normalize"),
    ("repro.federation.middleware", "parse_query", "blocks.normalize"),
    ("repro.core.rewriter", "all_rewritings", "core.search"),
    ("repro.service.executor", "all_rewritings", "core.search"),
    ("repro.core.rewriter", "estimate_cost", "core.rank"),
    ("repro.strategies", "cohen_nutt_rewritings", "strategies.cohen_nutt"),
    ("repro.core.result", "block_to_sql", "dialects.emit"),
    ("repro.core.result", "view_to_sql", "dialects.emit"),
    ("repro.service.requests", "block_to_sql", "dialects.emit"),
    ("repro.federation.middleware", "block_to_sql", "dialects.emit"),
    ("repro.federation.middleware", "view_to_sql", "dialects.emit"),
    ("repro.api", "to_envelope", "api.envelope"),
    ("repro.api", "execute_request", "service.execute_request"),
    ("repro.service.pool", "execute_request", "service.execute_request"),
    ("repro.serving.protocol", "execute_request", "service.execute_request"),
)

#: (module, class, method, span name): methods, patched on the class.
METHOD_PROBES = (
    ("repro.core.planner", "RewritePlanner", "__init__", "core.planner_init"),
    ("repro.engine.database", "Database", "execute", "engine.execute"),
    ("repro.engine.database", "Database", "materialize", "engine.materialize"),
    ("repro.federation.middleware", "SqlRewriter", "rewrite_sql",
     "federation.rewrite_sql"),
)

#: Daemon-side methods, patched only inside the traced ``repro serve``.
SERVING_METHOD_PROBES = (
    ("repro.serving.memo", "LocalMemoTier", "publish", "serving.memo_publish"),
    ("repro.serving.memo", "LocalMemoTier", "lookup", "serving.memo_lookup"),
    ("repro.serving.memo", "SharedMemoTier", "lookup", "serving.memo_lookup"),
    ("repro.serving.daemon", "RewriteDaemon", "apply_update",
     "maintenance.update"),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Request id for threads that never set one (pool workers).
        self.default_rid = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list = []

    # ------------------------------------------------------------------
    # Recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def rid(self):
        rid = _RID.get()
        return self.default_rid if rid is None else rid

    @contextlib.contextmanager
    def request(self, rid):
        """Tag every span opened inside with ``rid``."""
        token = _RID.set(rid)
        try:
            yield
        finally:
            _RID.reset(token)

    @contextlib.contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, self.rid(), name, start, end))

    def event(self, name: str, rid, at: float) -> None:
        """A zero-length marker (for example: a line was parsed)."""
        self.spans.append((next(self._ids), None, rid, name, at, at))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def timed(self, fn, name: str):
        """``fn`` wrapped so every call records one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, tracer.rid(), name, start, end)
                )

        return traced

    # ------------------------------------------------------------------
    # Patching

    def patch(self, owner, attr: str, replacement) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def install(self, serving: bool = False) -> None:
        """Wrap every probe point (``serving`` adds the daemon's)."""
        for module, attr, name in FUNCTION_PROBES:
            owner = importlib.import_module(module)
            self.patch(owner, attr, self.timed(getattr(owner, attr), name))
        methods = METHOD_PROBES + (SERVING_METHOD_PROBES if serving else ())
        for module, cls, attr, name in methods:
            owner = getattr(importlib.import_module(module), cls)
            self.patch(owner, attr, self.timed(getattr(owner, attr), name))
        self._install_counters()
        if serving:
            self._install_serving()

    def _install_counters(self) -> None:
        from repro.core.planner import RewritePlanner
        from repro.service.pool import BatchRewriteService

        tracer = self
        search = RewritePlanner.all_rewritings

        @functools.wraps(search)
        def counted_search(planner, *args, **kwargs):
            stats = planner.stats
            hits, misses = stats.substitution_hits, stats.substitution_misses
            results = search(planner, *args, **kwargs)
            tracer.count("core.substitution_hits", stats.substitution_hits - hits)
            tracer.count(
                "core.substitution_misses", stats.substitution_misses - misses
            )
            tracer.count("core.rewritings", len(results))
            return results

        self.patch(RewritePlanner, "all_rewritings", counted_search)

        # The only observable sign of a demoted chunk without turning on
        # the program's own metrics registry.
        demote = BatchRewriteService._demote_chunk

        @functools.wraps(demote)
        def counted_demote(service, *args, **kwargs):
            tracer.count("service.demotions")
            return demote(service, *args, **kwargs)

        self.patch(BatchRewriteService, "_demote_chunk", counted_demote)

    def _install_serving(self) -> None:
        from repro.serving import daemon as daemon_module
        from repro.serving.daemon import RewriteDaemon
        from repro.serving.worker import PlannerCache

        tracer = self
        parse_line = daemon_module.parse_line

        @functools.wraps(parse_line)
        def marked_parse_line(line, line_no=0):
            obj = parse_line(line, line_no)
            tracer.event("serving.parse_line", obj.get("id"), perf_counter())
            return obj

        self.patch(daemon_module, "parse_line", marked_parse_line)

        op_rewrite = RewriteDaemon._op_rewrite

        @functools.wraps(op_rewrite)
        async def tagged_op_rewrite(daemon, obj, line_no):
            # Each line runs in its own asyncio task, so the context
            # variable set here tags only this request's loop-side spans.
            with tracer.request(obj.get("id")):
                return await op_rewrite(daemon, obj, line_no)

        self.patch(RewriteDaemon, "_op_rewrite", tagged_op_rewrite)

        run = self.timed(PlannerCache.run, "serving.planner_cache")

        @functools.wraps(PlannerCache.run)
        def tagged_run(cache, request, strategy=None):
            with tracer.request(request.request_id):
                result = run(cache, request, strategy)
            # An event, not a counter, so the path is known per request.
            tracer.event(
                "serving.path." + result[4], request.request_id, perf_counter()
            )
            return result

        self.patch(PlannerCache, "run", tagged_run)

    def restore(self) -> None:
        while self._undo:
            owner, attr, had, original = self._undo.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Analysis and output

    def self_times(self) -> list:
        """``(span, self_seconds)`` for every span."""
        covered: dict[int, float] = defaultdict(float)
        for _sid, parent, _rid, _name, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [
            (span, (span[5] - span[4]) - covered[span[0]])
            for span in self.spans
        ]

    def self_means(self, requests: int) -> dict:
        """``{"<span name>_us": self time per request}`` over the spans
        of measured requests (integer request ids)."""
        totals: dict = defaultdict(float)
        for span, seconds in self.self_times():
            if isinstance(span[2], int):
                totals[span[3]] += seconds
        return {
            f"{name}_us": seconds * 1e6 / requests
            for name, seconds in totals.items()
        }

    def inclusive_us(self, name: str, rid=None) -> tuple[int, float]:
        """``(calls, total us)`` of the spans named ``name``, optionally
        only those of request ``rid``."""
        calls, total = 0, 0.0
        for _sid, _parent, span_rid, span_name, start, end in self.spans:
            if span_name == name and (rid is None or span_rid == rid):
                calls += 1
                total += (end - start) * 1e6
        return calls, total

    def self_time_table(self, group=lambda rid: None) -> dict:
        """``{group: {span name: [calls, self seconds]}}``."""
        table: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for span, seconds in self.self_times():
            cell = table[group(span[2])][span[3]]
            cell[0] += 1
            cell[1] += seconds
        return {g: dict(rows) for g, rows in table.items()}

    def dump(self, path: str, extra: dict) -> None:
        """Write every span, the counters and ``extra`` as one JSON file."""
        with open(path, "w") as handle:
            json.dump(
                dict(
                    extra,
                    counters=dict(self.counters),
                    span_fields=["id", "parent", "request", "name",
                                 "start", "end"],
                    spans=self.spans,
                ),
                handle,
            )

    @classmethod
    def load(cls, path: str) -> "Tracer":
        """A tracer holding the spans a :meth:`dump` wrote."""
        with open(path) as handle:
            doc = json.load(handle)
        tracer = cls()
        tracer.spans = [tuple(span) for span in doc["spans"]]
        tracer.counters.update(doc["counters"])
        return tracer


def format_table(table: dict) -> str:
    """The self-time table as text, one block per group."""
    lines = []
    for group in sorted(table, key=str):
        lines.append(f"-- self time, group {group}")
        rows = sorted(table[group].items(), key=lambda kv: -kv[1][1])
        for name, (calls, seconds) in rows:
            lines.append(f"{name:32s} {calls:9d} calls {seconds * 1e3:12.3f} ms")
    return "\n".join(lines)
