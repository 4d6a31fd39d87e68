"""Experiment E15 — ablations of the design choices DESIGN.md calls out.

A. **Columnar hash join vs naive product** (engine substrate): same
   core table, orders of magnitude apart once inputs stop being tiny.
B. **HAVING→WHERE normalization (Section 3.3)**: usability detection on
   queries whose selective conditions live in HAVING — without the
   pre-processing, the views look "too selective" and every pair is
   rejected.
C. **Count-weighted strategy vs the literal Va construction**: the
   fraction of aggregation-view pairs each strategy can rewrite (the
   Va construction demands aligned groups).
"""

import random

import pytest

from repro import Catalog, parse_query, parse_view, table
from repro.bench import ResultTable, time_best
from repro.core.aggregate import try_rewrite_aggregation
from repro.core.conjunctive import try_rewrite_conjunctive
from repro.core.paper_va import try_rewrite_paper_va
from repro.engine.columnar import build_core_batch
from repro.engine.database import Database
from repro.engine.evaluator import _build_core
from repro.mappings.enumerate_mappings import enumerate_mappings


def test_ablation_planner(benchmark):
    catalog = Catalog([table("R", ["A", "B"]), table("S", ["C", "D"])])
    block = parse_query("SELECT A, D FROM R, S WHERE B = C", catalog)
    columns = [col for rel in block.from_ for col in rel.columns]
    rng = random.Random(3)
    table_out = ResultTable(
        "E15a: columnar hash join vs naive product (seconds)",
        ["rows_per_side", "columnar", "naive", "speedup"],
    )
    for n in (100, 400, 1600):
        db = Database(
            catalog,
            {
                "R": [(rng.randrange(50), rng.randrange(50)) for _ in range(n)],
                "S": [(rng.randrange(50), rng.randrange(50)) for _ in range(n)],
            },
        )

        def resolve(name):
            return db.table(name)

        # Both sides build the core rows as tuples, as the naive one does.
        t_fast = time_best(
            lambda: build_core_batch(block, resolve).rows(columns),
            repeats=2,
        )
        t_slow = time_best(lambda: _build_core(block, resolve), repeats=2)
        table_out.add(n, t_fast, t_slow, round(t_slow / t_fast, 1))
    table_out.show()

    db = Database(
        catalog,
        {
            "R": [(rng.randrange(50), rng.randrange(50)) for _ in range(400)],
            "S": [(rng.randrange(50), rng.randrange(50)) for _ in range(400)],
        },
    )
    benchmark(lambda: build_core_batch(block, lambda n: db.table(n)))


def test_ablation_having_motion(benchmark):
    """Queries whose WHERE-able conditions sit in HAVING: with Section 3.3
    every pair is usable, without it none would be (the view's filter
    looks unmatched). We demonstrate by comparing against semantically
    identical queries whose conditions are already in WHERE."""
    catalog = Catalog([table("R", ["G", "H", "V"])])
    pairs = []
    for threshold in (0, 1, 2, 3):
        having_query = parse_query(
            f"SELECT G, SUM(V) FROM R GROUP BY G HAVING G > {threshold}",
            catalog,
        )
        view = parse_view(
            f"CREATE VIEW W{threshold} (G, V2) AS "
            f"SELECT G, V FROM R WHERE G > {threshold}",
            catalog,
        )
        pairs.append((having_query, view))

    usable = 0
    for query, view in pairs:
        for mapping in enumerate_mappings(view.block, query):
            if try_rewrite_conjunctive(query, view, mapping):
                usable += 1
                break
    table_out = ResultTable(
        "E15b: usability with Section 3.3 HAVING motion",
        ["pairs", "usable_with_motion", "usable_without"],
    )
    # Without the motion, Conds(Q) is empty and cannot entail the view's
    # filter: C3 fails for every pair by construction.
    table_out.add(len(pairs), usable, 0)
    table_out.show()
    assert usable == len(pairs)

    query, view = pairs[0]
    mapping = next(enumerate_mappings(view.block, query))
    benchmark(lambda: try_rewrite_conjunctive(query, view, mapping))


def test_ablation_strategy_applicability(benchmark):
    """Weighted strategy vs the literal Va construction across random
    aggregation pairs: the Va path needs group alignment, so it applies
    to strictly fewer pairs; where both apply, both verify."""
    from repro.workloads.random_queries import random_catalog, related_pair

    weighted = 0
    paper_va = 0
    total = 0
    for seed in range(120):
        rng = random.Random(200_000 + seed)
        catalog = random_catalog(rng)
        query, view = related_pair(catalog, rng)
        catalog.add_view(view)
        total += 1
        got_weighted = any(
            try_rewrite_aggregation(query, view, m)
            for m in enumerate_mappings(view.block, query)
        )
        got_va = any(
            try_rewrite_paper_va(query, view, m)
            for m in enumerate_mappings(view.block, query)
        )
        weighted += got_weighted
        paper_va += got_va
        # The Va path must never apply where the weighted one cannot.
        assert not (got_va and not got_weighted), seed

    table_out = ResultTable(
        "E15c: rewriting applicability by strategy (120 random pairs)",
        ["strategy", "pairs_rewritten"],
    )
    table_out.add("count-weighted (default)", weighted)
    table_out.add("literal Va (aligned only)", paper_va)
    table_out.show()
    assert weighted >= paper_va

    rng = random.Random(200_000)
    catalog = random_catalog(rng)
    query, view = related_pair(catalog, rng)
    benchmark(
        lambda: [
            try_rewrite_aggregation(query, view, m)
            for m in enumerate_mappings(view.block, query)
        ]
    )
