"""``rewrite-cold``: SQL text in, JSON envelope out, every request planned cold.

Why this workload
    It is the text-in -> JSON-out path of ``api.rewrite`` followed by
    ``json.dumps(to_envelope(...))``. ``api.rewrite`` builds a fresh
    engine per call, so every request plans cold: ``sqlparser``,
    ``blocks``, ``core``, ``strategies`` and ``api`` do the work and
    ``engine`` does none. A lexer, text->block cache or envelope win
    shows here first; a planner cache gains little, because the pool of
    distinct fingerprints is far larger than the program's caches.

Load
    One caller in a closed loop (one thread, no connections).

Sizes
    ``POOL_SCENARIOS`` seeded ``random_scenario`` catalogs plus the star
    catalog's five queries and the telephony query Q: 2054 distinct
    fingerprints against ``PlannerCache.MAX_PLANNERS`` = 8 and
    ``BatchRewriteService.MEMO_STORE_MAX`` = 32. ``BOTH_SHARE`` of the
    distinct requests use ``strategy="both"`` (C1-C4 plus Cohen-Nutt).

Correctness
    Every envelope's ranked rewriting SQL and original cost equal a cold
    ``execute_request`` of the same query pre-parsed, computed the first
    time a distinct request is served, outside the timed interval.

Reference path (``direct_p50_ms``)
    That cold ``execute_request`` on the pre-parsed block: the same
    planning without lexing, parsing, normalizing and the envelope. It
    is timed on each first occurrence and on every ``REFERENCE_EVERY``-th
    request, so its samples spread over the whole run.
"""

from __future__ import annotations

import contextlib
import json
import random
import time
from dataclasses import dataclass, field

from repro import api
from repro.blocks.normalize import parse_query, parse_view
from repro.blocks.to_sql import block_to_sql
from repro.errors import ReproError
from repro.service.executor import execute_request
from repro.service.requests import RewriteRequest
from repro.workloads import star, telephony
from repro.workloads.random_queries import random_scenario

from .harness import (
    Measurement,
    Mismatch,
    Stopwatch,
    balanced_stream,
    verifying,
)

NAME = "rewrite-cold"
#: peak_rss_mb counts this process only.
CHILD_RSS = False
POOL_SCENARIOS = 2048
SMOKE_SCENARIOS = 24
BOTH_SHARE = 0.25
REFERENCE_EVERY = 4


@dataclass
class Request:
    index: int
    sql: str
    catalog: object
    strategy: str


@dataclass
class State:
    requests: list
    stream: object
    #: request index -> (ranked SQL, original cost) from the oracle
    expected: dict = field(default_factory=dict)
    #: request index -> the query parsed once, for the reference path
    blocks: dict = field(default_factory=dict)

    def close(self) -> None:
        pass


def _fixed_catalogs() -> list[tuple[str, object]]:
    """The star catalog's queries and the telephony query Q."""
    star_catalog = star.star_catalog()
    for sql in star.VIEW_DEFINITIONS.values():
        star_catalog.add_view(parse_view(sql, star_catalog))
    phone_catalog = telephony.telephony_catalog()
    phone_catalog.add_view(parse_view(telephony.VIEW_SQL, phone_catalog))
    out = [(sql, star_catalog) for sql in star.QUERIES.values()]
    out.append(
        (telephony.QUERY_SQL.format(threshold=1_000_000), phone_catalog)
    )
    return out


def setup(seed: int, smoke: bool) -> State:
    rng = random.Random(seed)
    base = rng.randrange(1 << 30)
    texts = _fixed_catalogs()
    for offset in range(SMOKE_SCENARIOS if smoke else POOL_SCENARIOS):
        scenario = random_scenario(base + offset)
        texts.append((block_to_sql(scenario.query), scenario.catalog))
    requests = [
        Request(
            index,
            sql,
            catalog,
            "both" if rng.random() < BOTH_SHARE else "c1c4",
        )
        for index, (sql, catalog) in enumerate(texts)
    ]
    # Warm-up: first calls import lazily loaded modules (strategies,
    # envelope projection); users of a running process never pay that.
    for request in requests[:8]:
        _serve(request)
    return State(requests, balanced_stream(requests, rng))


def _serve(request: Request, tracer=None) -> str:
    response = api.rewrite(
        request.sql, request.catalog, strategy=request.strategy
    )
    span = tracer.span("api.envelope") if tracer else contextlib.nullcontext()
    with span:
        return json.dumps(api.to_envelope(response))


def _reference(state: State, request: Request, m: Measurement) -> None:
    """A timed cold ``execute_request`` of the pre-parsed query; the first
    one of each distinct request is its expected answer."""
    block = state.blocks.get(request.index)
    if block is None:
        block = state.blocks[request.index] = parse_query(
            request.sql, request.catalog
        )
    cold_request = RewriteRequest(
        query=block, catalog=request.catalog, strategy=request.strategy
    )
    started = time.perf_counter()
    cold = execute_request(cold_request)
    m.direct.append(time.perf_counter() - started)
    m.direct_stamps.append(started)
    state.expected.setdefault(
        request.index,
        ([ranked.rewriting.sql() for ranked in cold.ranked], cold.original_cost),
    )


def _check(state: State, request: Request, text: str, m: Measurement) -> None:
    doc = json.loads(text)
    if not doc["ok"]:
        m.failed += 1
        return
    # Every REFERENCE_EVERY-th request is also timed on the reference
    # path, so those samples spread over the whole run.
    if request.index not in state.expected or m.attempted % REFERENCE_EVERY == 0:
        _reference(state, request, m)
    sqls, cost = state.expected[request.index]
    got = [r["sql"] for r in doc["result"]["rewritings"]]
    if got != sqls or doc["result"]["original_cost"] != cost:
        raise Mismatch(
            f"rewrite-cold: request {request.index} ({request.strategy}) "
            f"differs from a cold execute_request: {got} != {sqls}"
        )


def measure(state: State, seconds: float, tracer=None) -> Measurement:
    m = Measurement()
    watch = Stopwatch()
    watch.start()
    while watch.running_total() < seconds:
        request = next(state.stream)
        rid = m.attempted
        m.attempted += 1
        started = time.perf_counter()
        m.stamps.append(started)
        try:
            if tracer is None:
                text = _serve(request)
            else:
                with tracer.request(rid), tracer.span("request"):
                    text = _serve(request, tracer)
        except ReproError:
            m.failed += 1
            continue
        finally:
            m.latencies.append(time.perf_counter() - started)
        with watch:
            with verifying(tracer):
                _check(state, request, text, m)
            m.host.tick()
    watch.stop()
    m.busy = watch.elapsed
    m.notes["distinct_requests"] = len(state.requests)
    return m


def layers(state: State, plain, traced, means, tracer) -> dict:
    """Per-layer values specific to this workload (``means`` = self us)."""
    return {"api.unattributed_us": means.get("request_us", 0.0)}
