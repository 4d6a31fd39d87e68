"""``answer-exec``: answering queries from materialized views, on both engines.

Why this workload
    It turns the paper's Example 1.1 claim (answering from a small
    summary view instead of the fact table) into tracked numbers, and it
    is the only workload where ``engine``, ``dialects`` and
    ``federation`` do the work while the planner stays warm and small.
    Each query is answered through ``RewriteEngine.answer`` on a
    ``Database`` and through ``FederationSession.execute`` on in-memory
    SQLite; direct evaluation on the base tables is timed alongside.

Load
    One caller in a closed loop over a seeded, balanced stream of
    (query, size, path) operations, path being ``engine``, ``federation``
    or ``direct``.

Sizes
    The star schema (five queries, three summary views) and the
    telephony warehouse (query Q over view V1), each generated at
    ``SIZES["small"]`` = 2000 fact rows, below ``engine=auto``'s
    ``COLUMNAR_AUTO_THRESHOLD`` (4096), and ``SIZES["large"]`` = 40960
    fact rows, ten times above it, so the two sizes fall on both sides
    of the row/columnar switch. Views are materialized during set-up, on
    the ``Database`` and as SQLite tables.

Correctness
    At set-up every answer is checked: the rewritten rows equal the
    direct rows as multisets, on the engine (``Table.multiset_equal``)
    and on SQLite (``FederationSession.execute(verify=True)``). During
    the run every operation's rows are compared with those references,
    outside the timed interval.

Latency and reference path
    ``latency_p50_ms`` and ``latency_p95_ms`` cover the ``engine`` and
    ``federation`` answers: the median of all of them, and the geometric
    mean over the 24 (query, size, path) kinds of each kind's p95, which
    weighs every query's tail alike. ``direct_p50_ms`` is direct
    evaluation of the original query on the ``Database``
    (``engine=auto``), the baseline the rewriting is meant to beat: the
    median over the (query, size) pairs of each pair's median time.
    ``throughput_rps`` is answers per second of answering time.
"""

from __future__ import annotations

import contextlib
import random
import sqlite3
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.blocks.to_sql import block_to_sql
from repro.core.rewriter import RewriteEngine
from repro.engine.database import Database
from repro.federation.middleware import FederationSession
from repro.oracle.values import rows_multiset_equal
from repro.workloads import star, telephony

from .harness import (
    Measurement,
    Mismatch,
    balanced_stream,
    percentile,
    verifying,
)

NAME = "answer-exec"
#: peak_rss_mb counts this process only.
CHILD_RSS = False
SIZES = {"small": 2000, "large": 40960}
SMOKE_SIZES = {"small": 200, "large": 4200}
PATHS = ("engine", "federation", "direct")


@dataclass
class Warehouse:
    """One generated schema at one size, on both engines."""

    catalog: object
    database: Database
    connection: sqlite3.Connection
    engine: RewriteEngine
    federation: FederationSession


@dataclass
class Query:
    size: str
    warehouse: Warehouse
    block: object
    sql: str
    engine_rows: object = None
    sqlite_rows: list = None
    #: input rows read per result row: {"rewritten": r, "direct": r}
    scanned: dict = field(default_factory=dict)


@dataclass
class State:
    queries: list
    stream: object
    warehouses: list
    #: request id -> (size, path) of the last measuring pass
    kinds: dict = field(default_factory=dict)

    def close(self) -> None:
        for warehouse in self.warehouses:
            warehouse.connection.close()
        self.warehouses = []


def _load_sqlite(catalog, database: Database) -> sqlite3.Connection:
    """Base tables and materialized views as SQLite tables."""
    connection = sqlite3.connect(":memory:")
    names = [(n, database.table(n)) for n in catalog.tables]
    names += [(n, database.materialize(n)) for n in catalog.views]
    for name, table in names:
        columns = ", ".join(f'"{c}"' for c in table.columns)
        marks = ", ".join("?" for _ in table.columns)
        connection.execute(f'CREATE TABLE "{name}" ({columns})')
        connection.executemany(
            f'INSERT INTO "{name}" VALUES ({marks})', table.rows
        )
    connection.commit()
    return connection


def _warehouse(workload) -> Warehouse:
    database = Database(workload.catalog, workload.tables)
    for name in workload.catalog.views:
        database.materialize(name)
    connection = _load_sqlite(workload.catalog, database)
    return Warehouse(
        workload.catalog,
        database,
        connection,
        RewriteEngine(workload.catalog),
        FederationSession(connection, catalog=workload.catalog),
    )


def _rows_read(block, database: Database, extra: dict) -> int:
    total = 0
    for relation in block.from_:
        if relation.name in extra:
            total += _rows_read(extra[relation.name].block, database, extra)
        elif database.catalog.is_view(relation.name):
            total += len(database.materialize(relation.name).rows)
        else:
            total += len(database.table(relation.name).rows)
    return total


def _check_references(query: Query) -> None:
    """Set-up correctness: rewritten == direct on both engines."""
    warehouse = query.warehouse
    result = warehouse.engine.rewrite(query.block)
    best = result.ranked[0] if result.ranked else None
    direct = warehouse.database.execute(query.block)
    answered = warehouse.engine.answer(query.block, warehouse.database)
    if not answered.multiset_equal(direct):
        raise Mismatch(f"answer-exec: engine rewriting differs for {query.sql}")
    federated = warehouse.federation.execute(query.sql, verify=True)
    if not federated.verified:
        raise Mismatch(f"answer-exec: SQLite rewriting differs for {query.sql}")
    query.engine_rows = direct
    query.sqlite_rows = federated.verify_rows or federated.rows
    results = max(len(direct.rows), 1)
    query.scanned["direct"] = (
        _rows_read(query.block, warehouse.database, {}) / results
    )
    if best is not None and best.cost < result.original_cost:
        plan, extra = best.rewriting.query, best.rewriting.extra_views()
    else:
        plan, extra = query.block, {}
    query.scanned["rewritten"] = (
        _rows_read(plan, warehouse.database, extra) / results
    )


def setup(seed: int, smoke: bool) -> State:
    rng = random.Random(seed)
    queries, warehouses = [], []
    for size, rows in (SMOKE_SIZES if smoke else SIZES).items():
        sales = star.generate(n_sales=rows, seed=rng.randrange(1 << 30))
        calls = telephony.generate(n_calls=rows, seed=rng.randrange(1 << 30))
        star_house, phone_house = _warehouse(sales), _warehouse(calls)
        warehouses += [star_house, phone_house]
        blocks = [(star_house, b) for b in sales.queries.values()]
        blocks.append((phone_house, calls.query))
        for warehouse, block in blocks:
            query = Query(size, warehouse, block, block_to_sql(block))
            _check_references(query)
            queries.append(query)
    operations = [(q, path) for q in queries for path in PATHS]
    return State(queries, balanced_stream(operations, rng), warehouses)


class _TimedCursor:
    """A DB-API cursor whose statements are ``federation.sqlite_exec``."""

    def __init__(self, cursor, tracer):
        self._cursor, self._tracer = cursor, tracer

    def execute(self, *args):
        with self._tracer.span("federation.sqlite_exec"):
            return self._cursor.execute(*args)

    def fetchall(self):
        with self._tracer.span("federation.sqlite_exec"):
            return self._cursor.fetchall()


class _TimedConnection:
    def __init__(self, connection, tracer):
        self._connection, self._tracer = connection, tracer

    def cursor(self):
        return _TimedCursor(self._connection.cursor(), self._tracer)


def _run(query: Query, path: str):
    warehouse = query.warehouse
    if path == "engine":
        return warehouse.engine.answer(query.block, warehouse.database)
    if path == "federation":
        return warehouse.federation.execute(query.sql)
    return warehouse.database.execute(query.block)


def _check(query: Query, path: str, answer) -> None:
    if path == "federation":
        ok = rows_multiset_equal(answer.rows, query.sqlite_rows)
    else:
        ok = answer.multiset_equal(query.engine_rows)
    if not ok:
        raise Mismatch(f"answer-exec: {path} answer differs for {query.sql}")


def measure(state: State, seconds: float, tracer=None) -> Measurement:
    m = Measurement()
    kinds: dict = {}
    direct_by_kind = defaultdict(list)
    answers_by_kind = defaultdict(list)
    if tracer is not None:
        for warehouse in state.warehouses:
            warehouse.federation.connection = _TimedConnection(
                warehouse.connection, tracer
            )
    try:
        started_run = time.perf_counter()
        checking = 0.0
        while time.perf_counter() - started_run - checking < seconds:
            query, path = next(state.stream)
            rid = m.attempted
            m.attempted += 1
            kinds[rid] = (query.size, path)
            scope = (
                tracer.request(rid) if tracer else contextlib.nullcontext()
            )
            with scope:
                started = time.perf_counter()
                answer = _run(query, path)
                elapsed = time.perf_counter() - started
            if path == "direct":
                m.direct.append(elapsed)
                m.direct_stamps.append(started)
                direct_by_kind[(query.size, query.sql)].append(
                    len(m.direct) - 1
                )
            else:
                m.latencies.append(elapsed)
                m.stamps.append(started)
                answers_by_kind[(query.size, query.sql, path)].append(
                    len(m.latencies) - 1
                )
            check_started = time.perf_counter()
            with verifying(tracer):
                _check(query, path, answer)
            m.host.tick()
            checking += time.perf_counter() - check_started
    finally:
        for warehouse in state.warehouses:
            warehouse.federation.connection = warehouse.connection
    m.busy = sum(m.latencies)
    # Twelve (query, size) pairs with well separated times: a plain
    # median of all samples sits on the edge between the sixth and the
    # seventh pair and jumps between them from run to run, so the
    # median is taken over the pairs' own medians.
    direct = m.at_mean_speed(m.direct, m.direct_stamps)
    m.direct_p50 = statistics.median(
        statistics.median(direct[i] for i in kind)
        for kind in direct_by_kind.values()
    )
    # The same holds for a p95 of all answers, which sits on the edge
    # between the slowest kinds' times.
    answers = m.at_mean_speed(m.latencies, m.stamps)
    m.latency_p95 = statistics.geometric_mean(
        percentile([answers[i] for i in kind], 95)
        for kind in answers_by_kind.values()
    )
    m.notes["operations"] = dict(
        zip(PATHS, (sum(1 for k in kinds.values() if k[1] == p) for p in PATHS))
    )
    state.kinds = kinds
    return m


def layers(state: State, plain, traced, means, tracer) -> dict:
    execute = defaultdict(float)
    ops = defaultdict(int)
    for size, path in state.kinds.values():
        ops[(size, path)] += 1
    for span, seconds in tracer.self_times():
        kind = state.kinds.get(span[2]) if isinstance(span[2], int) else None
        if kind is not None and span[3] == "engine.execute":
            execute[kind] += seconds
    values = {}
    for size in SIZES:
        for plan, path in (("rewritten", "engine"), ("direct", "direct")):
            count = ops[(size, path)]
            if count:
                values[f"engine.execute_us.{size}.{plan}"] = (
                    execute[(size, path)] * 1e6 / count
                )
            values[f"engine.rows_scanned_per_result_row.{size}.{plan}"] = (
                statistics.fmean(
                    q.scanned[plan] for q in state.queries if q.size == size
                )
            )
    return values
