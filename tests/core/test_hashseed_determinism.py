"""Rewriting SQL must not depend on the interpreter's string-hash seed.

Rewriting code iterates frozensets of columns, whose order follows
``PYTHONHASHSEED``. Two processes with different seeds must still emit
the same rewritings, operand order included, or a cached or logged
rewriting stops comparing equal across processes (the daemon's workers,
a restarted server).
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCENARIOS = 200

SCRIPT = """
import sys
from repro import api
from repro.blocks.to_sql import block_to_sql
from repro.blocks.normalize import parse_view
from repro.workloads import star
from repro.workloads.random_queries import random_scenario

requests = []
catalog = star.star_catalog()
for sql in star.VIEW_DEFINITIONS.values():
    catalog.add_view(parse_view(sql, catalog))
requests += [(sql, catalog) for sql in star.QUERIES.values()]
for seed in range(int(sys.argv[1])):
    scenario = random_scenario(seed)
    requests.append((block_to_sql(scenario.query), scenario.catalog))
for index, (sql, catalog) in enumerate(requests):
    for strategy in ("c1c4", "both"):
        result = api.rewrite(sql, catalog, strategy=strategy)
        for ranked in result.ranked:
            print(index, strategy, ranked.rewriting.sql().replace("\\n", " "))
"""


def _rewritings(hash_seed: int) -> list[str]:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SCENARIOS)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_rewriting_sql_is_identical_across_hash_seeds():
    first = _rewritings(1)
    second = _rewritings(2)
    assert len(first) > SCENARIOS, "a vacuous corpus would prove nothing"
    differing = [(a, b) for a, b in zip(first, second) if a != b]
    assert len(first) == len(second) and not differing, differing[:5]
