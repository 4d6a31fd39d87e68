"""``serve-mixed``: ``repro serve`` over a Unix socket, reads and writes.

Why this workload
    It is the only one that goes through ``serving`` (JSONL protocol,
    admission, the asyncio -> worker-thread handoff, the shared-memory
    memo tier) and ``maintenance``. Hot reads repeat a few fingerprints,
    cold reads pin one-off view subsets, and writes (``update`` inserts
    into ``Sales``, which every view reads) maintain the views and
    invalidate memos, so a read-path gain that makes writes cost more,
    or that stops surviving invalidation, shows here.

Load
    One process, two threads, one connection: the main thread sends and
    a reader thread collects responses. Each of ``ROUNDS`` rounds is a
    closed-loop phase with ``WINDOW`` operations in flight, which
    measures the daemon's capacity, and then an open-loop phase of
    Poisson arrivals at ``NOMINAL_RPS``. After the rounds, the ladder
    looks for the knee: one open-loop phase at each ``LADDER`` fraction
    of the measured capacity. Open-loop operations are timed from when
    they were *due*, so a stall also charges the requests queued behind
    it; how late the sender ran is reported separately. The daemon runs
    with its defaults (``--workers 0``: one worker thread, queue limit
    64) as a subprocess.

Writes run alone
    A write is sent only once every earlier operation is answered, and
    the next operation only once the write is answered; reads before
    and after it still overlap one another. The daemon applies an
    update on an executor thread whose maintenance listener evicts from
    the memo tier while the event loop publishes into it, and about one
    operation in 10 000 then failed with "OrderedDict mutated during
    iteration" (a defect of ``repro.serving``). Sent beside reads,
    writes made the failure count differ from run to run of the same
    code. In the open loop the operations that fall due while a write
    runs are sent when it is answered and charged the wait, as behind a
    writer lock; the wait also counts in how late the sender ran.

Sizes
    The star schema with ``len(VIEWS)`` = 6 summary views (63 view
    subsets) and six queries. A cycle of ``MIX`` = 20 operations holds
    12 hot reads (two fingerprints: all views, and ``HOT_SUBSET``), 7
    cold reads (a seeded view subset each) and 1 write.
    ``PlannerCache.MAX_PLANNERS`` = 8 planners stay warm per process.
    On a 2-core x86 host the closed loop completes 230-350 mixed
    operations/s (cold reads and writes cost more than the hot star
    reads, which alone reach close to 400/s). ``NOMINAL_RPS`` = 70 is
    about a quarter of that, a provisioned service's load; the ladder's
    top step, 0.9 of capacity, is where the p99 reaches the limit on
    some runs and not on others.

Throughput and latency
    ``throughput_rps`` is the median over the rounds of the closed-loop
    phase's completed operations per second. ``latency_p50_ms`` pools
    every operation at the nominal rate and ``latency_p95_ms`` is their
    p95: a 20 s run has some 840 of them, so forty lie beyond it. Each
    is scaled by the calibration chunks run in the idle gaps of the
    phase just before and after it was due. Their
    p99 (in the metadata) is not gated: the daemon stalls for some 30 ms
    a few times a minute, each stall delays the half dozen requests that
    arrive meanwhile, and whether one or three stalls fall in a run
    moved the p99 by 30-40% (IQR over median, ten runs). The ladder's
    latencies are not gated: near the knee they move with every change
    in host speed. The highest rate whose p99 over all its
    operations meets ``SLO_MS`` and whose backlog drains within
    ``SLO_MS`` of the last send (``max_rps_at_slo``) is reported with
    the run's metadata, not gated either: it moves in ladder steps.

Correctness
    An envelope that is not ``ok``, or a refused read, counts as failed
    (``failed`` / ``attempted`` is the error rate). Every other read's
    rewriting set must equal a cold ``execute_request`` of the same
    query and views on the schema (the set does not depend on the
    statistics that writes change).
    After the last write, a hot read must match a cold planner on the
    post-update catalog exactly (order and original cost), as
    ``benchmarks/bench_serving.assert_cold_parity`` does; the
    post-update catalog is rebuilt in process by replaying the writes
    through ``RewriteDaemon.apply_update``.

Request ids
    Measured operations carry decimal ids; warm-up, parity and shutdown
    requests carry ids with a letter prefix, so the traced run's
    per-layer figures count measured operations only.

Reference path (``direct_p50_ms``)
    That cold in-process ``execute_request``, timed once per read while
    the phase's responses are checked: the same planning with no socket,
    no daemon and no warm state.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.catalog.load import load_schema
from repro.engine.database import Database
from repro.service.executor import execute_request
from repro.service.requests import RewriteRequest
from repro.serving.daemon import RewriteDaemon
from repro.serving.memo import LocalMemoTier
from repro.workloads import star

from .harness import Measurement, Mismatch, percentile, verifying
from .tracing import Tracer

NAME = "serve-mixed"
#: peak_rss_mb adds the daemon's high-water mark to this process's.
CHILD_RSS = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

VIEWS = dict(
    star.VIEW_DEFINITIONS,
    Sales_By_Product_Store="""
        CREATE VIEW Sales_By_Product_Store (Prod_Id, Store_Id, Revenue, N) AS
        SELECT Prod_Id, Store_Id, SUM(Amount), COUNT(Sale_Id)
        FROM Sales GROUP BY Prod_Id, Store_Id
    """,
    Sales_By_Day="""
        CREATE VIEW Sales_By_Day (Day, Month, Revenue, Units, N) AS
        SELECT Day, Month, SUM(Amount), SUM(Qty), COUNT(Sale_Id)
        FROM Sales GROUP BY Day, Month
    """,
    Sales_By_Region_Month="""
        CREATE VIEW Sales_By_Region_Month (Region, Month, Revenue, N) AS
        SELECT Region, Month, SUM(Amount), COUNT(Sale_Id)
        FROM Sales, Store WHERE Sales.Store_Id = Store.Store_Id
        GROUP BY Region, Month
    """,
)
TABLES = """
CREATE TABLE Sales (Sale_Id INT PRIMARY KEY, Prod_Id INT, Store_Id INT,
                    Day INT, Month INT, Qty INT, Amount INT);
CREATE TABLE Product (Prod_Id INT PRIMARY KEY, Category TEXT);
CREATE TABLE Store (Store_Id INT PRIMARY KEY, Region TEXT);
"""
QUERIES = [" ".join(sql.split()) for sql in star.QUERIES.values()] + [
    "SELECT Region, SUM(Amount) FROM Sales, Store "
    "WHERE Sales.Store_Id = Store.Store_Id GROUP BY Region"
]
HOT_SUBSET = ["Sales_By_Product_Month", "Sales_By_Store_Month"]
MIX = {"hot": 12, "cold": 7, "write": 1}
#: The open-loop rate the latency metrics are measured at (operations/s).
NOMINAL_RPS = 70.0
#: The steps that look for the knee, as fractions of the measured
#: capacity, and the p99 limit.
LADDER = (0.5, 0.75, 0.9)
SLO_MS = 100.0
#: Operations in flight in the closed-loop phase: enough that a stall
#: of this process does not leave the daemon idle.
WINDOW = 4
#: Each round is a closed-loop phase and then a nominal-rate phase.
ROUNDS = 3
#: Shares of a pass's time: the closed loops, the nominal phases and the
#: ladder. The closed loops need seconds to average out the daemon's
#: short stalls; the nominal rate's p95 needs some 800 samples.
SHARES = (0.3, 0.6, 0.1)
#: Closed-loop operations sent before timing starts.
WARMUP_OPS = 60
DRAIN_TIMEOUT_S = 30.0
#: The idle gap before the next due operation that leaves room for one
#: calibration chunk (about 2 ms) in an open-loop phase.
PROBE_GAP_S = 0.006


def schema_script() -> str:
    views = ";\n".join(" ".join(sql.split()) for sql in VIEWS.values())
    return TABLES + views + ";\n"


class Client:
    """One pipelined JSONL connection: send from the caller's thread,
    read every response on a background thread."""

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.received: dict = {}
        #: responses read so far, for telling when nothing is in flight
        self.answered = 0
        self._done = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        with self.sock.makefile("rb") as stream:
            for line in stream:
                now = time.perf_counter()
                doc = json.loads(line)
                with self._done:
                    self.received[doc.get("id")] = (now, doc)
                    self.answered += 1
                    self._done.notify_all()

    def send(self, obj: dict) -> float:
        payload = (json.dumps(obj) + "\n").encode()
        sent = time.perf_counter()
        self.sock.sendall(payload)
        return sent

    def wait(self, ids, timeout: float = DRAIN_TIMEOUT_S) -> None:
        deadline = time.monotonic() + timeout
        with self._done:
            while not all(i in self.received for i in ids):
                left = deadline - time.monotonic()
                if left <= 0:
                    raise Mismatch(
                        "serve-mixed: the daemon left requests unanswered"
                    )
                self._done.wait(left)

    def call(self, obj: dict) -> dict:
        self.send(obj)
        self.wait([obj["id"]])
        return self.received.pop(obj["id"])[1]

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(timeout=10)


@dataclass
class State:
    workdir: str
    catalog: object
    rng: random.Random
    process: subprocess.Popen = None
    client: Client = None
    next_id: int = 1
    next_sale: int = 1
    #: every write sent, in order, for the post-update replay
    writes: list = field(default_factory=list)
    #: (sql, views) -> sorted rewriting SQL of a cold planner
    expected: dict = field(default_factory=dict)
    #: facts of the last measuring pass, for the per-layer metrics
    reads: dict = field(default_factory=dict)
    invalidated: list = field(default_factory=list)
    refused: int = 0
    #: "kind: reason" -> count of the failed operations, for the metadata
    failures: Counter = field(default_factory=Counter)
    #: when the last measuring pass's first operation was sent
    measured_from: float = 0.0

    def new_id(self, tag: str = "") -> str:
        """A fresh id; measured operations get no ``tag`` (see above).

        The daemon echoes rewrite ids as strings, so every id is one.
        """
        self.next_id += 1
        return f"{tag}{self.next_id}"

    def close(self) -> None:
        stop_daemon(self)
        shutil.rmtree(self.workdir, ignore_errors=True)


def start_daemon(state: State, trace_out: str = None) -> None:
    """``repro serve`` on a Unix socket; returns once it is ready."""
    socket_path = os.path.relpath(os.path.join(state.workdir, "d.sock"), ROOT)
    schema = os.path.join(state.workdir, "schema.sql")
    serve = ["serve", "--schema", schema, "--socket", socket_path]
    if trace_out is None:
        command = [sys.executable, "-m", "repro"] + serve
    else:
        shim = os.path.join(ROOT, "perfbench", "traced_serve.py")
        command = [sys.executable, shim, trace_out] + serve
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    state.process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    state.writes = []  # a fresh daemon has seen none of them
    ready = state.process.stdout.readline()
    if '"serve-ready"' not in ready:
        stop_daemon(state)
        raise RuntimeError(f"repro serve did not start: {ready!r}")
    state.client = Client(os.path.join(ROOT, socket_path))


def stop_daemon(state: State) -> None:
    if state.process is None:
        return
    try:
        if state.client is not None:
            state.client.call({"op": "shutdown", "id": state.new_id("s")})
    except (OSError, Mismatch):
        state.process.terminate()
    finally:
        if state.client is not None:
            state.client.close()
        try:
            state.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            state.process.kill()
            state.process.wait()
        state.process.stdout.close()
        state.process = None
        state.client = None


def setup(seed: int, smoke: bool) -> State:
    workdir = os.path.join(ROOT, "perfbench", "out", f"serve-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    script = schema_script()
    with open(os.path.join(workdir, "schema.sql"), "w") as handle:
        handle.write(script)
    catalog, _queries = load_schema(script)
    state = State(workdir, catalog, random.Random(seed))
    try:
        start_daemon(state)
        _warm_up(state)
    except BaseException:
        state.close()
        raise
    return state


def _warm_up(state: State) -> None:
    """Closed-loop operations before timing starts, with tagged ids."""
    for op in _operations(state, WARMUP_OPS):
        state.client.call(_wire(state, op, tag="w"))


def _operation_stream(state: State):
    """Whole seeded cycles of the hot/cold/write mix, without end."""
    rng = state.rng
    names = list(VIEWS)
    cycle = [kind for kind, n in MIX.items() for _ in range(n)]
    while True:
        rng.shuffle(cycle)
        for kind in cycle:
            if kind == "hot":
                views = rng.choice([None, HOT_SUBSET])
                yield ("hot", rng.choice(QUERIES), views)
            elif kind == "cold":
                size = rng.randint(1, len(names) - 1)
                yield ("cold", rng.choice(QUERIES), sorted(rng.sample(names, size)))
            else:
                yield ("write", None, None)


def _operations(state: State, count: int) -> list:
    return list(itertools.islice(_operation_stream(state), count))


def _wire(state: State, op, tag: str = "") -> dict:
    kind, sql, views = op
    if kind == "write":
        sale = state.next_sale
        state.next_sale += 1
        rng = state.rng
        row = [sale, rng.randrange(50), rng.randrange(20),
               rng.randint(1, 28), rng.randint(1, 12),
               rng.randint(1, 10), rng.randint(1, 1000)]
        state.writes.append(row)
        return {"op": "update", "id": state.new_id(tag), "table": "Sales",
                "insert": [row]}
    obj = {"op": "rewrite", "id": state.new_id(tag), "sql": sql}
    if views is not None:
        obj["views"] = views
    return obj


def _schedule(state: State, rate: float, seconds: float) -> list:
    """Poisson arrivals with exactly ``rate * seconds`` operations.

    Given their number, a Poisson process's arrival times are uniform
    order statistics; fixing the number keeps the offered rate exact,
    so a step's completed rate does not carry the count's sampling noise.
    """
    count = max(1, round(rate * seconds))
    times = sorted(state.rng.uniform(0, seconds) for _ in range(count))
    return list(zip(times, _operations(state, count)))


def _run_phase(
    state: State, rate: float, seconds: float, nominal: bool, host=None
) -> dict:
    """One open-loop phase. With ``host``, a calibration chunk runs in
    the gaps where nothing is in flight and the next operation is not
    due for ``PROBE_GAP_S``, so the latencies can be scaled by the host
    speed around them; the daemon is idle then and no response waits."""
    schedule = _schedule(state, rate, seconds)
    records = []
    answered_before = state.client.answered
    start = time.perf_counter() + 0.05
    for due_offset, op in schedule:
        due = start + due_offset
        if (
            host is not None
            and due - time.perf_counter() > PROBE_GAP_S
            and state.client.answered - answered_before == len(records)
        ):
            host.tick()
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        if op[0] == "write":
            state.client.wait([r[0] for r in records])
        obj = _wire(state, op)
        sent = state.client.send(obj)
        records.append((obj["id"], op, due, sent))
        if op[0] == "write":
            state.client.wait([obj["id"]])
    state.client.wait([r[0] for r in records])
    return {"rate": rate, "start": start, "records": records,
            "nominal": nominal}


def _run_closed(state: State, seconds: float) -> dict:
    """``WINDOW`` operations in flight until ``seconds`` have passed.

    Each operation is sent when the oldest one in flight is answered;
    the phase's rate is completed operations over the time from the
    first send to the last answer.
    """
    client, stream = state.client, _operation_stream(state)
    records, in_flight = [], []
    start = time.perf_counter()
    while True:
        while len(in_flight) < WINDOW and time.perf_counter() - start < seconds:
            op = next(stream)
            if op[0] == "write":
                client.wait(in_flight)
                in_flight.clear()
            obj = _wire(state, op)
            sent = client.send(obj)
            records.append((obj["id"], op, sent, sent))
            in_flight.append(obj["id"])
            if op[0] == "write":
                client.wait(in_flight)
                in_flight.clear()
        if not in_flight:
            break
        client.wait(in_flight[:1])
        in_flight.pop(0)
    return {"rate": None, "start": start, "records": records,
            "nominal": False}


def _verify(state: State, phase: dict, m: Measurement) -> None:
    """Check one drained phase's responses, between phases.

    Records in ``phase`` the receive time per id and the ids that failed,
    and ``(kind, sent, received, elapsed)`` per read at the nominal
    rate in ``state.reads``.
    Each read also gets one timed reference plan, so ``direct_p50_ms``
    samples spread over the whole run.
    """
    phase["received"], phase["failed"] = {}, set()
    for rid, op, _due, sent in phase["records"]:
        m.host.tick()
        received, doc = state.client.received.pop(rid)
        phase["received"][rid] = received
        kind, sql, views = op
        if not doc.get("ok"):
            m.failed += 1
            phase["failed"].add(rid)
            state.failures[f"{kind}: {doc['error'].get('message')}"] += 1
            continue
        result = doc["result"]
        if kind == "write":
            state.invalidated.append(len(result["invalidated_views"]))
            continue
        if result.get("degraded"):
            m.failed += 1
            phase["failed"].add(rid)
            state.refused += 1
            tripped = (result.get("budget") or {}).get("tripped")
            state.failures[f"{kind}: refused {tripped}"] += 1
            continue
        got = sorted(r["sql"] for r in result["rewritings"])
        expected = _reference(state, sql, views, m)
        if got != expected:
            raise Mismatch(
                f"serve-mixed: rewritings of {sql!r} over {views} differ "
                f"from a cold execute_request: {got} != {expected}"
            )
        if phase["nominal"]:
            state.reads[int(rid)] = (kind, sent, received, result["elapsed"])


def _reference(state: State, sql, views, m: Measurement) -> list:
    """One timed cold plan; the first for a (query, views) is its answer."""
    request = RewriteRequest(
        query=sql,
        catalog=state.catalog,
        views=tuple(state.catalog.view(v) for v in views) if views else None,
    )
    started = time.perf_counter()
    cold = execute_request(request)
    m.direct.append(time.perf_counter() - started)
    m.direct_stamps.append(started)
    return state.expected.setdefault(
        (sql, tuple(views) if views else None),
        sorted(r.sql() for r in cold.rewritings),
    )


class _MirrorTier(LocalMemoTier):
    """A process-local tier that stays truthy when empty.

    ``RewriteDaemon`` picks its tier with ``memo_tier or
    create_memo_tier(...)``; an empty ``LocalMemoTier`` is falsy (it has
    ``__len__``), which would give the mirror a shared-memory segment
    and this process a resource-tracker child.
    """

    def __bool__(self) -> bool:
        return True


def _final_parity(state: State) -> None:
    """After the last write: exact parity with a cold planner on the
    post-update catalog, rebuilt by replaying the writes in process."""
    catalog, _ = load_schema(schema_script())
    mirror = RewriteDaemon(
        catalog, database=Database(catalog), memo_tier=_MirrorTier()
    )
    try:
        for row in state.writes:
            mirror.apply_update("Sales", [tuple(row)])
    finally:
        mirror._unsubscribe()  # the maintenance listener the mirror added
    sql = QUERIES[0]
    doc = state.client.call(
        {"op": "rewrite", "id": state.new_id("p"), "sql": sql}
    )
    cold = execute_request(RewriteRequest(query=sql, catalog=catalog))
    expected = (
        [ranked.sql() for ranked in cold.ranked],
        cold.original_cost,
    )
    got = (
        [r["sql"] for r in doc["result"]["rewritings"]],
        doc["result"]["original_cost"],
    ) if doc["ok"] else doc
    if got != expected:
        raise Mismatch(
            "serve-mixed: after the last update the daemon's answer differs "
            f"from a cold planner on the post-update catalog: {got} != "
            f"{expected}"
        )


def measure(state: State, seconds: float, tracer=None) -> Measurement:
    m = Measurement()
    state.invalidated, state.refused, state.failures = [], 0, Counter()
    trace_out = None
    if tracer is not None:
        # Restart the daemon under the probes; its spans come back in a
        # file when it shuts down.
        stop_daemon(state)
        trace_out = os.path.join(state.workdir, "daemon-trace.json")
        start_daemon(state, trace_out)
        _warm_up(state)
    state.reads, state.measured_from = {}, time.perf_counter()
    closed_s, nominal_s, ladder_s = (seconds * share for share in SHARES)
    closed, opened = [], []
    for _round in range(ROUNDS):
        closed.append(_run_closed(state, closed_s / ROUNDS))
        opened.append(
            _run_phase(state, NOMINAL_RPS, nominal_s / ROUNDS, True, m.host)
        )
        for phase in closed[-1], opened[-1]:
            with verifying(tracer):
                _verify(state, phase, m)
    m.throughput = statistics.median(_completed_rps(p) for p in closed)
    rates = [NOMINAL_RPS] + [share * m.throughput for share in LADDER]
    for rate in rates[1:]:
        opened.append(_run_phase(state, rate, ladder_s / len(LADDER), False))
        with verifying(tracer):
            _verify(state, opened[-1], m)
    with verifying(tracer):
        _final_parity(state)

    m.attempted = sum(len(p["records"]) for p in closed + opened)
    late, writes = [], []
    by_rate = {
        rate: {"slo": [], "ms": [], "ops": 0, "busy": 0.0, "drained": True}
        for rate in rates
    }
    for phase in opened:
        records, received_at = phase["records"], phase["received"]
        latencies = [received_at[rid] - due for rid, _op, due, _s in records]
        late.extend(sent - due for _rid, _op, due, sent in records)
        if phase["nominal"]:
            writes.extend(
                latency
                for (_rid, op, _due, _s), latency in zip(records, latencies)
                if op[0] == "write"
            )
            m.latencies.extend(latencies)
            m.stamps.extend(due for _rid, _op, due, _s in records)
        finished = max(received_at[rid] for rid, _op, _due, _s in records)
        cell = by_rate[phase["rate"]]
        # A failed or refused operation misses the limit whatever its time.
        cell["slo"].extend(
            float("inf") if rid in phase["failed"] else latency
            for (rid, _op, _due, _s), latency in zip(records, latencies)
        )
        cell["ms"].extend(latency * 1e3 for latency in latencies)
        cell["ops"] += len(records)
        cell["busy"] += finished - phase["start"]
        cell["drained"] &= (finished - records[-1][2]) * 1e3 <= SLO_MS
    best = 0.0
    for cell in by_rate.values():
        cell["p50_ms"] = statistics.median(cell.pop("ms"))
        cell["p99_ms"] = percentile(cell.pop("slo"), 99) * 1e3
        cell["meets_slo"] = cell["p99_ms"] <= SLO_MS and cell["drained"]
        cell["completed_rps"] = cell["ops"] / cell["busy"]
        if cell["meets_slo"]:
            best = max(best, cell["completed_rps"])
    m.notes.update(
        closed_rps=[_completed_rps(p) for p in closed],
        rates={f"{rate:.1f}": cell for rate, cell in by_rate.items()},
        max_rps_at_slo=best,
        generator_late_p99_us=percentile(late, 99) * 1e6,
        write_p50_ms=statistics.median(writes) * 1e3 if writes else 0.0,
        invalidated_per_update=(
            statistics.fmean(state.invalidated) if state.invalidated else 0.0
        ),
        refused=state.refused,
        failures=dict(state.failures),
    )
    if tracer is not None:
        stop_daemon(state)
        m.tracer = _load_daemon_trace(trace_out)
    return m


def _completed_rps(phase: dict) -> float:
    last = max(phase["received"].values())
    return len(phase["records"]) / (last - phase["start"])


def _load_daemon_trace(path: str) -> Tracer:
    tracer = Tracer.load(path)
    # Wire ids come back as strings from RewriteRequest.request_id.
    tracer.spans = [
        (sid, parent, int(rid) if isinstance(rid, str) and rid.isdigit() else rid,
         name, start, end)
        for sid, parent, rid, name, start, end in tracer.spans
    ]
    return tracer


def layers(state: State, plain, traced, means, tracer) -> dict:
    """Serving attribution from the daemon's spans joined, by request id,
    with the client's send and receive times."""
    runs, parsed, envelopes, publishes = {}, {}, {}, {}
    for _sid, _parent, rid, name, start, end in tracer.spans:
        if name == "serving.planner_cache":
            runs[rid] = (start, end)
        elif name == "serving.parse_line":
            parsed[rid] = start
        elif name == "api.envelope":
            envelopes[rid] = (start, end)
        elif name == "serving.memo_publish":
            publishes[rid] = (start, end)
    reads = state.reads
    hot = [
        rid
        for rid, (kind, *_rest) in reads.items()
        if kind == "hot" and rid in runs and rid in parsed and rid in envelopes
    ]

    def hot_mean_us(segment) -> float:
        return statistics.fmean(segment(rid) for rid in hot) * 1e6 if hot else 0.0

    def round_trip(rid) -> float:
        return reads[rid][2] - reads[rid][1]

    values = {
        "serving.overhead_us": statistics.fmean(
            round_trip(rid) - elapsed for rid, (*_r, elapsed) in reads.items()
        ) * 1e6,
        "serving.socket_in_us": hot_mean_us(lambda r: parsed[r] - reads[r][1]),
        "serving.wait_us": hot_mean_us(lambda r: runs[r][0] - parsed[r]),
        "serving.return_us": hot_mean_us(
            lambda r: publishes.get(r, envelopes[r])[0] - runs[r][1]
        ),
        "serving.socket_out_us": hot_mean_us(
            lambda r: reads[r][2] - envelopes[r][1]
        ),
        "serving.hot_outside_run_us": hot_mean_us(
            lambda r: round_trip(r) - (runs[r][1] - runs[r][0])
        ),
        "serving.refused_ratio": traced.notes["refused"] / max(
            traced.attempted, 1
        ),
        "serving.generator_late_us": traced.notes["generator_late_p99_us"],
        "maintenance.invalidated_per_update": traced.notes[
            "invalidated_per_update"
        ],
        "maintenance.write_p50_ms": plain.notes["write_p50_ms"],
    }
    paths = {name: 0 for name in ("cold", "warm_local", "warm_shared")}
    updates = []
    for _sid, _parent, rid, name, start, end in tracer.spans:
        if name.startswith("serving.path.") and isinstance(rid, int):
            paths[name[len("serving.path."):]] += 1
        elif name == "maintenance.update" and start >= state.measured_from:
            # Worker-thread spans carry no request id; the warm-up's
            # writes all end before the measured operations start.
            updates.append(end - start)
    total = sum(paths.values())
    for name, count in paths.items():
        values[f"serving.path.{name}"] = count / total if total else 0.0
    if updates:
        values["maintenance.update_us"] = statistics.fmean(updates) * 1e6
    return values
