"""Smoke runs of every workload at tiny sizes.

Run with ``python3 -m pytest perfbench``. Each test drives
``perfbench/run.py`` as the benchmark driver would (a subprocess from
the repository root) and checks the output contract: the last line is
one JSON object with exactly ``correct``, ``attempted``, ``failed`` and
``metrics``, and the metric names and units are exactly the ones
``BENCHMARK.json`` declares for the run's mode.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "trace, section", [(0, "end_to_end"), (1, "per_layer")]
)
def test_workload_prints_every_declared_metric(workload, trace, section):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    printed = {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert printed == _declared(section)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        meta = json.loads(done.stdout.strip().splitlines()[-2])
        trace_file = os.path.join(ROOT, meta["perfbench-meta"]["trace_file"])
        with open(trace_file) as handle:
            assert json.load(handle)["spans"]


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
