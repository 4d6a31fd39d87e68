"""Shared pieces of the workloads: streams, clocks, statistics, host data."""

from __future__ import annotations

import bisect
import contextlib
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence


class Mismatch(AssertionError):
    """The program returned a wrong answer; the run must fail."""


def verifying(tracer):
    """The span that marks correctness checks in a traced run."""
    return tracer.span("oracle.verify") if tracer else contextlib.nullcontext()


def balanced_stream(items: Sequence, rng: random.Random) -> Iterator:
    """Every item once per cycle, each cycle in a fresh seeded order.

    Whole cycles keep the mix's proportions exact, so percentiles do not
    move with the luck of the draw; the seed still decides the order.
    """
    order = list(items)
    while True:
        rng.shuffle(order)
        yield from order


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    if ordered[high] == ordered[low] or position == low:
        return ordered[low]  # also keeps infinite samples well defined
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(children: bool = False) -> float:
    """High-water resident set of this process (or its reaped children)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    kilobytes = resource.getrusage(who).ru_maxrss
    return kilobytes / 1024.0


class HostProbe:
    """A fixed pure-Python calibration loop, run in small chunks
    interleaved with the work: host speed, recorded with every run.

    ``tick`` runs one chunk when ``EVERY_S`` seconds have passed since
    the last; callers place it outside their timed intervals. The mean
    chunk time, as the time of a ``LOOP``-iteration loop, says how fast
    the host ran *during* the measurement: on a shared host it moves by
    tens of percent within seconds, and the program with it.
    """

    LOOP = 300_000
    CHUNK = 20_000
    EVERY_S = 0.1

    def __init__(self) -> None:
        self.samples: list = []
        #: ``perf_counter`` at the end of each chunk, for :meth:`loop_ms_at`.
        self.times: list = []
        self._due = 0.0

    def tick(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()
            self._due = time.perf_counter() + self.EVERY_S

    def sample(self, chunks: int = 1) -> None:
        for _ in range(chunks):
            started = time.perf_counter()
            total = 0
            for i in range(self.CHUNK):
                total += (i * i) % 7
            ended = time.perf_counter()
            self.samples.append(ended - started)
            self.times.append(ended)

    def loop_ms(self) -> float:
        """Mean chunk time as the time of the whole ``LOOP``, ms."""
        return statistics.fmean(self.samples) * self.LOOP / self.CHUNK * 1e3

    def loop_ms_at(self, when: float) -> float:
        """The loop time around ``when``: the mean of the chunks just
        before and just after it, as the time of the whole ``LOOP``, ms."""
        after = bisect.bisect(self.times, when)
        near = self.samples[max(after - 1, 0):after + 1]
        return statistics.fmean(near) * self.LOOP / self.CHUNK * 1e3


class Stopwatch:
    """Measured time of a closed loop, with pauses for checking.

    Verification and reference timings run between operations; the loop
    pauses the stopwatch around them so throughput counts only the
    program's own work.
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._since: Optional[float] = None

    def start(self) -> None:
        self._since = time.perf_counter()

    def stop(self) -> None:
        if self._since is not None:
            self.elapsed += time.perf_counter() - self._since
            self._since = None

    def __enter__(self) -> "Stopwatch":
        self.stop()
        return self

    def __exit__(self, *exc) -> None:
        self.start()

    def running_total(self) -> float:
        if self._since is None:
            return self.elapsed
        return self.elapsed + time.perf_counter() - self._since


@dataclass
class Measurement:
    """What one measuring pass saw, before it becomes metrics."""

    #: Per-operation latency, seconds.
    latencies: list = field(default_factory=list)
    #: ``perf_counter`` at the start of each latency sample, where the
    #: workload ticks ``host`` between operations (see
    #: :meth:`at_mean_speed`).
    stamps: list = field(default_factory=list)
    #: Reference-path latency (see each workload's ``direct`` note), s.
    direct: list = field(default_factory=list)
    direct_stamps: list = field(default_factory=list)
    #: Seconds the closed loop spent on the program's work.
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Throughput override (requests/s) where the loop is not one
    #: operation per latency sample.
    throughput: Optional[float] = None
    #: ``direct_p50_ms`` and ``latency_p95_ms`` overrides, seconds (see
    #: answer-exec).
    direct_p50: Optional[float] = None
    latency_p95: Optional[float] = None
    #: Extra host-facing numbers printed with the run (not gated).
    notes: dict = field(default_factory=dict)
    #: Spans recorded outside this process (the traced daemon), if any.
    tracer: object = None
    #: Host speed during the pass (see ``run.host_scaled``).
    host: HostProbe = field(default_factory=HostProbe)

    def rps(self) -> float:
        """``throughput_rps``: the override, or operations per busy second."""
        if self.throughput is not None:
            return self.throughput
        return len(self.latencies) / self.busy

    def at_mean_speed(self, samples: list, stamps: list) -> list:
        """``samples`` (seconds) brought to the run's mean host speed,
        each from the speed measured around it: its stamp's
        :meth:`HostProbe.loop_ms_at` over the run's :meth:`HostProbe.loop_ms`.
        Without stamps, ``samples`` as they are.

        A shared host runs slow for a second or two at a time. Taken as
        measured, a run's latencies form two humps, fast and slow
        phases, and their median sits in the valley between them, where
        a small change in the share of slow phases moves it by tens of
        percent. Scaled sample by sample, they form one hump.
        """
        if not stamps:
            return list(samples)
        mean = self.host.loop_ms()
        return [
            sample * mean / self.host.loop_ms_at(stamp)
            for sample, stamp in zip(samples, stamps)
        ]

    def end_to_end(self, setup_s: float, rss_mb: float) -> dict:
        """Every end-to-end metric by name, in the units BENCHMARK.json
        declares."""
        ms = [
            x * 1e3 for x in self.at_mean_speed(self.latencies, self.stamps)
        ]
        direct_p50 = (
            self.direct_p50
            if self.direct_p50 is not None
            else statistics.median(
                self.at_mean_speed(self.direct, self.direct_stamps)
            )
        )
        return {
            "setup_s": setup_s,
            "throughput_rps": self.rps(),
            "latency_p50_ms": statistics.median(ms),
            "latency_p95_ms": (
                self.latency_p95 * 1e3
                if self.latency_p95 is not None
                else percentile(ms, 95)
            ),
            "peak_rss_mb": rss_mb,
            "direct_p50_ms": direct_p50 * 1e3,
        }
