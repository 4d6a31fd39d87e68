#!/usr/bin/env python
"""Run the tier-1 tests, then the rewriting benchmarks, and write
``BENCH_rewriting.json`` at the repository root.

Usage::

    python benchmarks/run_benchmarks.py [--skip-tests] [--quick] [--output PATH]

The exit code is non-zero when the tier-1 tests fail or when any
planner/naive parity assertion inside a collector fires, so the script
doubles as the performance-regression gate described in DESIGN.md.
``--quick`` shrinks workload sizes and repeat counts for use as a CI
smoke gate (numbers are indicative only — do not compare them against a
full run).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (REPO_ROOT / "src", REPO_ROOT / "benchmarks"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))


def run_tier1_tests() -> int:
    """The repo's own test suite; benchmarks are meaningless if it fails."""
    print("== tier-1 tests ==", flush=True)
    env = {"PYTHONPATH": str(REPO_ROOT / "src")}
    import os

    env = {**os.environ, **env}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q"],
        cwd=REPO_ROOT,
        env=env,
    )
    return proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--skip-tests",
        action="store_true",
        help="skip the tier-1 pytest run (benchmarks only)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workloads / few repeats (CI smoke gate)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_rewriting.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    if not args.skip_tests:
        code = run_tier1_tests()
        if code != 0:
            print("tier-1 tests failed; not benchmarking", file=sys.stderr)
            return code

    from repro.bench import BenchReport

    from bench_cache import collect_cache_metrics
    from bench_closure import collect_closure_metrics
    from bench_columnar import collect_columnar_metrics
    from bench_dialects import collect_dialects_metrics
    from bench_metrics import collect_metrics_metrics
    from bench_multiview import (
        collect_church_rosser_metrics,
        collect_multiview_metrics,
    )
    from bench_obs import collect_obs_metrics
    from bench_oracle import collect_oracle_metrics
    from bench_service import collect_service_metrics
    from bench_serving import collect_serving_metrics
    from bench_strategies import collect_strategies_metrics

    repeats = 2 if args.quick else 7
    report = BenchReport()
    if args.quick:
        report.meta["quick"] = True
    failures = 0
    for name, collector in [
        ("multiview", lambda: collect_multiview_metrics(repeats=repeats)),
        ("church_rosser", collect_church_rosser_metrics),
        ("cache", lambda: collect_cache_metrics(repeats=min(repeats, 5))),
        ("closure", lambda: collect_closure_metrics(repeats=min(repeats, 5))),
        ("obs", lambda: collect_obs_metrics(quick=args.quick)),
        (
            "metrics",
            lambda: collect_metrics_metrics(
                repeats=repeats, quick=args.quick
            ),
        ),
        (
            "service",
            lambda: collect_service_metrics(
                repeats=repeats, quick=args.quick
            ),
        ),
        (
            "serving",
            lambda: collect_serving_metrics(
                repeats=repeats, quick=args.quick
            ),
        ),
        ("oracle", lambda: collect_oracle_metrics(quick=args.quick)),
        ("columnar", lambda: collect_columnar_metrics(quick=args.quick)),
        ("dialects", lambda: collect_dialects_metrics(quick=args.quick)),
        (
            "strategies",
            lambda: collect_strategies_metrics(quick=args.quick),
        ),
    ]:
        print(f"== bench: {name} ==", flush=True)
        try:
            report.add_workload(name, **collector())
        except AssertionError as exc:
            # Parity violations are correctness bugs, not perf noise.
            failures += 1
            report.add_workload(name, error=str(exc))
            print(f"PARITY FAILURE in {name}: {exc}", file=sys.stderr)

    report.write(args.output)
    print(f"wrote {args.output}")

    multiview = report.workloads.get("multiview", {})
    if "speedup" in multiview and multiview["speedup"] is not None:
        print(
            f"multiview speedup: {multiview['speedup']:.2f}x "
            f"(naive {multiview['naive_seconds'] * 1e3:.2f} ms, "
            f"planner {multiview['planner_seconds'] * 1e3:.2f} ms)"
        )
    oracle = report.workloads.get("oracle", {})
    if "scenarios_per_sec" in oracle:
        print(
            f"oracle throughput: {oracle['scenarios_per_sec']:.0f} "
            f"scenarios/sec ({oracle['clean_checks']} checks, "
            f"{oracle['clean_rewritings']} rewritings cross-checked)"
        )
    service = report.workloads.get("service", {})
    if "speedup_at_4_workers" in service:
        print(
            f"service speedup at 4 workers: "
            f"{service['speedup_at_4_workers']:.2f}x vs per-request serial "
            f"({service['requests']} hot requests, "
            f"{service['groups']} signature groups)"
        )
    serving = report.workloads.get("serving", {})
    if "sustained_rps" in serving:
        print(
            f"serving daemon: {serving['sustained_rps']:.0f} req/s "
            f"sustained (p99 {serving['p99_seconds'] * 1e3:.2f} ms), "
            f"warm shared-memo {serving['warm_speedup']:.2f}x cold, "
            f"live invalidation without restart"
        )
    columnar = report.workloads.get("columnar", {})
    if "gated_ratios" in columnar:
        ratios = ", ".join(
            f"{name} {ratio:.2f}x"
            for name, ratio in sorted(columnar["gated_ratios"].items())
        )
        print(
            f"columnar vs SQLite at {columnar['gate_rows']} rows: {ratios} "
            f"of SQLite's time (ceilings {columnar['sqlite_ratio_ceiling']}; "
            f"parity sweep {columnar['parity_sweep']['scenarios']} "
            f"scenarios, {columnar['parity_sweep']['checks']} checks, "
            f"0 mismatches)"
        )
    metrics = report.workloads.get("metrics", {})
    if "overhead" in metrics:
        print(
            f"metrics overhead: {metrics['overhead']:.4f}x "
            f"({metrics['recording_seconds'] * 1e6:.2f}us recording per "
            f"{metrics['search_seconds'] * 1e6:.1f}us cold search, "
            f"gate <= {metrics['max_overhead']})"
        )
    dialects = report.workloads.get("dialects", {})
    if "nway" in dialects:
        nway = dialects["nway"]
        print(
            f"dialects N-way sweep [{', '.join(nway['backends'])}]: "
            f"{nway['scenarios']} scenarios, {nway['checks']} checks, "
            f"{nway['mismatches']} mismatches "
            f"({nway['scenarios_per_sec']:.0f}/s)"
        )
    strategies = report.workloads.get("strategies", {})
    if "sweep" in strategies:
        sweep = strategies["sweep"]
        print(
            f"strategies sweep: {sweep['scenarios']} scenarios, "
            f"{sweep['mismatches']} mismatches, "
            f"{sweep['dominance_violations']} dominance violations; "
            f"coverage {sweep['c1c4_scenarios_answered']} (C1-C4) -> "
            f"{sweep['cohen_nutt_scenarios_answered']} (Cohen-Nutt), "
            f"search overhead "
            f"{strategies['latency']['completeness_overhead']}x"
        )
    print(json.dumps({"parity_failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
