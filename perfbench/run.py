"""The repository benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rewrite-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed.
``--trace 1`` measures the same workload twice, plain and then with the
probes of :mod:`perfbench.tracing` installed, and reports the per-layer
metrics plus ``trace.overhead_ratio``; its spans and a self-time table
go to ``perfbench/out/``. The last line of standard output is always
``{"correct", "attempted", "failed", "metrics"}``; the line before it
carries host metadata (calibration loop, raw times, sizes) that is
never gated. A wrong answer from the program prints ``"correct": false``
and exits 1.

Host scaling: the end-to-end times and rates are scaled to a host whose
calibration loop takes ``REFERENCE_LOOP_MS`` (see :func:`host_scaled`);
latency samples are first brought to the run's mean host speed, each
from the loop time around it (see ``Measurement.at_mean_speed``).

The workloads, why each exists and their sizes are documented in their
modules and in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    # The benchmark measures the checkout it sits in, never an installed copy.
    sys.exit(f"perfbench: no program sources under {ROOT}/src")
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import answer_exec, batch_hot, rewrite_cold, serve_mixed  # noqa: E402
from perfbench.harness import (  # noqa: E402
    HostProbe,
    Mismatch,
    peak_rss_mb,
    percentile,
)
from perfbench.tracing import Tracer, format_table  # noqa: E402

WORKLOADS = {
    module.NAME: module
    for module in (rewrite_cold, batch_hot, serve_mixed, answer_exec)
}

#: Set-ups per run; the median is ``setup_s``.
SETUP_REPEATS = 3
#: Calibration chunks run just before and just after each set-up.
SETUP_PROBE_CHUNKS = 5
#: The calibration loop time the end-to-end metrics are scaled to.
REFERENCE_LOOP_MS = 30.0
#: How each end-to-end metric scales with host speed: times (power 1)
#: grow with the calibration loop's time, rates (power -1) shrink.
HOST_POWER = {
    "setup_s": 1,
    "throughput_rps": -1,
    "latency_p50_ms": 1,
    "latency_p95_ms": 1,
    "direct_p50_ms": 1,
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    _DECLARED = json.load(_handle)
#: name -> unit of the metrics each mode prints, all of them every run.
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
#: A layer a workload does not reach reads 0.
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


def per_layer(module, state, plain, traced, tracer) -> dict:
    values = {name: 0.0 for name in PER_LAYER}
    source = traced.tracer or tracer
    requests = max(traced.attempted, 1)
    means = source.self_means(requests)
    values.update({k: v for k, v in means.items() if k in values})
    counters = source.counters
    probes = counters["core.substitution_hits"] + counters[
        "core.substitution_misses"
    ]
    if probes:
        values["core.memo_hit_ratio"] = (
            counters["core.substitution_hits"] / probes
        )
        values["core.useful_ratio"] = counters["core.rewritings"] / probes
    values["service.demotions"] = counters["service.demotions"]
    values["oracle.verify_us"] = (
        tracer.inclusive_us("oracle.verify")[1] / requests
    )
    values["engine.materialize_us"] = _setup_materialize_us(tracer)
    values.update(module.layers(state, plain, traced, means, source))
    values["trace.overhead_ratio"] = _scaled_rps(plain) / _scaled_rps(traced)
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return values


def _setup_materialize_us(tracer: Tracer) -> float:
    """Time in the traced set-up's outermost ``Database.materialize`` calls.

    ``materialize`` is memoized and set-up calls it again for views it
    already built, so a per-call mean would move with the number of
    cache hits; the total moves only with the materializing itself.
    """
    spans = {span[0]: span for span in tracer.spans}
    total = 0.0
    for _sid, parent, rid, name, start, end in tracer.spans:
        if name != "engine.materialize" or rid != "setup":
            continue
        while parent is not None and spans[parent][3] != "engine.materialize":
            parent = spans[parent][1]
        if parent is None:
            total += end - start
    return total * 1e6


def _scaled_rps(measured) -> float:
    return host_scaled("throughput_rps", measured.rps(), measured.host.loop_ms())


def host_scaled(name: str, value: float, loop_ms: float) -> float:
    """``value`` as it would read on a host whose calibration loop takes
    ``REFERENCE_LOOP_MS``, given that it took ``loop_ms`` meanwhile.

    On a shared host the speed of this pure-Python loop moves by tens of
    percent between runs and the program's times move with it; scaling
    by a loop run interleaved with the work takes most of that out,
    while a change to the program, which leaves the loop alone, shows
    in full. The raw values are kept in the metadata line.
    """
    return value * (REFERENCE_LOOP_MS / loop_ms) ** HOST_POWER.get(name, 0)


def run(args) -> int:
    module = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    setup_times, setup_scaled, setup_loops = [], [], []
    state = None
    for attempt in range(SETUP_REPEATS):
        if state is not None:
            state.close()
        last = attempt == SETUP_REPEATS - 1
        if tracer is not None and last:
            # engine.materialize_us comes from the last set-up.
            tracer.default_rid = "setup"
            tracer.install()
        probe = HostProbe()
        probe.sample(SETUP_PROBE_CHUNKS)
        started = time.perf_counter()
        try:
            state = module.setup(args.seed, args.smoke)
        finally:
            if tracer is not None and last:
                tracer.restore()
                tracer.default_rid = None
        setup_times.append(time.perf_counter() - started)
        probe.sample(SETUP_PROBE_CHUNKS)
        setup_loops.append(probe.loop_ms())
        setup_scaled.append(
            host_scaled("setup_s", setup_times[-1], setup_loops[-1])
        )

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    raw = None
    try:
        if tracer is None:
            measured = module.measure(state, args.seconds)
            state.close()  # reaps the daemon, so its peak RSS is known
            rss = peak_rss_mb() + (
                peak_rss_mb(children=True) if module.CHILD_RSS else 0.0
            )
            raw = measured.end_to_end(statistics.median(setup_times), rss)
            values = {
                name: host_scaled(name, value, measured.host.loop_ms())
                for name, value in raw.items()
            }
            values["setup_s"] = statistics.median(setup_scaled)
            units = END_TO_END
        else:
            plain = module.measure(state, args.seconds / 2)
            tracer.install(serving=False)
            try:
                measured = module.measure(state, args.seconds / 2, tracer)
            finally:
                tracer.restore()
            values = per_layer(module, state, plain, measured, tracer)
            units = PER_LAYER
        result["metrics"] = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        }
    except Mismatch as error:
        print(f"CORRECTNESS FAILURE: {error}", file=sys.stderr)
        result["correct"] = False
        print(json.dumps(result))
        return 1
    finally:
        state.close()

    result["attempted"] = measured.attempted
    result["failed"] = measured.failed
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "calibration_ms": measured.host.loop_ms(),
        "calibration_chunks": len(measured.host.samples),
        "setup_calibration_ms": setup_loops,
        "setup_times_s": setup_times,
        "error_rate": measured.failed / max(measured.attempted, 1),
        "samples": len(measured.latencies),
        "latency_ms": {
            f"p{q}": percentile(measured.latencies, q) * 1e3
            for q in (50, 90, 95, 99)
        },
        "unscaled": raw,
        **measured.notes,
    }
    if tracer is not None:
        meta["trace_file"] = _write_trace(args, tracer, measured, meta)
    print(json.dumps({"perfbench-meta": meta}))
    print(json.dumps(result))
    return 0


def _write_trace(args, tracer: Tracer, measured, meta: dict) -> str:
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"trace-{args.workload}-seed{args.seed}.json"
    )
    def request_group(rid):
        # Measured operations have integer ids; serve-mixed tags the
        # others with a letter prefix ("w" warm-up, "p" parity, ...).
        if isinstance(rid, int):
            return "measured"
        return rid.rstrip("0123456789") if isinstance(rid, str) else rid

    sources = {"benchmark": tracer}
    if measured.tracer is not None:
        sources["daemon"] = measured.tracer
    tables = {
        where: source.self_time_table(request_group)
        for where, source in sources.items()
    }
    for where, table in tables.items():
        print(f"== {args.workload}: {where} process")
        print(format_table(table))
    doc = {"meta": meta, "self_time": tables}
    if measured.tracer is not None:
        doc["daemon_spans"] = measured.tracer.spans
        doc["daemon_counters"] = dict(measured.tracer.counters)
    tracer.dump(path, doc)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    _pin_hash_seed(args.seed)
    return run(args)


def _pin_hash_seed(seed: int) -> None:
    """Re-execute under ``PYTHONHASHSEED`` derived from ``--seed``.

    The rewriting SQL the program emits depends on set iteration order
    (for example the operand order of a join equality), so two processes
    with different hash seeds print equivalent rewritings differently.
    The daemon inherits this environment, which lets serve-mixed compare
    its answers with an in-process cold planner text for text; it also
    makes every run repeatable from its seed alone.
    """
    wanted = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


if __name__ == "__main__":
    sys.exit(main())
