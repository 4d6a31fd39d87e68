"""Join planning: the columnar core table equals the naive row product.

The row engine builds the core table as the FROM product filtered by the
WHERE clause (``evaluator._build_core``); the columnar executor pushes
predicates into scans, orders joins greedily and hash-joins on equality
edges (``columnar.build_core_batch``). Both must give the same multiset
of core rows, NULL join keys included. The plan decisions themselves
(``columnar.plan``) are pinned at the end.
"""

import random
import time

import pytest

from repro.blocks.normalize import parse_query
from repro.blocks.terms import Column, Constant, Op
from repro.catalog.schema import Catalog, table
from repro.engine.columnar import build_core_batch
from repro.engine.columnar.plan import classify_predicates, greedy_join_order
from repro.engine.database import Database
from repro.engine.evaluator import _build_core


@pytest.fixture
def catalog():
    return Catalog(
        [
            table("R", ["A", "B"]),
            table("S", ["C", "D"]),
            table("T", ["E", "F"]),
        ]
    )


def columnar_core(block, resolve, index):
    """The columnar core table as tuples in the naive layout."""
    columns = sorted(index, key=index.get)
    return build_core_batch(block, resolve).rows(columns)


def assert_same_core(catalog, sql, data):
    block = parse_query(sql, catalog)
    db = Database(catalog, data)

    def resolve(name):
        return db.table(name)

    naive_rows, index = _build_core(block, resolve)
    fast_rows = columnar_core(block, resolve, index)
    assert sorted(fast_rows, key=repr) == sorted(naive_rows, key=repr), sql
    return naive_rows


def random_data(rng, sizes=(6, 6, 6)):
    return {
        "R": [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(sizes[0])],
        "S": [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(sizes[1])],
        "T": [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(sizes[2])],
    }


QUERIES = [
    "SELECT A FROM R",
    "SELECT A FROM R WHERE A = 1",
    "SELECT A, C FROM R, S WHERE B = C",
    "SELECT A, C FROM R, S WHERE B = C AND A <> D",
    "SELECT A, E FROM R, S, T WHERE B = C AND D = E",
    "SELECT A, E FROM R, S, T WHERE B = C AND D = E AND A = F",  # cycle
    "SELECT A, C FROM R, S",  # pure cross product
    "SELECT A, C FROM R, S WHERE B < D",  # non-equi join
    "SELECT x.A, y.A FROM R x, R y WHERE x.B = y.B",  # self equi-join
    "SELECT A FROM R, S, T WHERE A = 1 AND C = 2 AND E = F",
]


class TestEquivalenceToNaive:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_naive(self, catalog, sql):
        rng = random.Random(hash(sql) & 0xFFF)
        for _ in range(10):
            assert_same_core(catalog, sql, random_data(rng))

    def test_empty_relations(self, catalog):
        assert_same_core(
            catalog,
            "SELECT A, C FROM R, S WHERE B = C",
            {"R": [], "S": [(1, 2)], "T": []},
        )
        assert_same_core(
            catalog,
            "SELECT A, C FROM R, S",
            {"R": [(1, 2)], "S": [], "T": []},
        )

    def test_constant_only_false_predicate(self, catalog):
        rows = assert_same_core(
            catalog,
            "SELECT A FROM R WHERE 1 = 2",
            {"R": [(1, 2)], "S": [], "T": []},
        )
        assert rows == []

    def test_constant_only_true_predicate(self, catalog):
        rows = assert_same_core(
            catalog,
            "SELECT A FROM R WHERE 2 = 2",
            {"R": [(1, 2)], "S": [], "T": []},
        )
        assert len(rows) == 1

    def test_duplicates_preserved(self, catalog):
        rows = assert_same_core(
            catalog,
            "SELECT A, C FROM R, S WHERE B = C",
            {"R": [(1, 5), (1, 5)], "S": [(5, 0), (5, 0)], "T": []},
        )
        assert len(rows) == 4  # 2 x 2 multiset join

    @pytest.mark.parametrize(
        "sql, expected",
        [
            ("SELECT A, C FROM R, S WHERE B = C", 2),
            ("SELECT A, E FROM R, S, T WHERE B = C AND D = E", 1),
            ("SELECT x.A, y.A FROM R x, R y WHERE x.B = y.B", 1),
        ],
    )
    def test_null_join_keys_never_match(self, catalog, sql, expected):
        # SQL: NULL = NULL is not true, so NULL keys on either side of an
        # equi-join pair with nothing.
        rows = assert_same_core(
            catalog,
            sql,
            {
                "R": [(1, None), (2, None), (3, 7)],
                "S": [(None, None), (None, 4), (7, None), (7, 7)],
                "T": [(None, 0), (7, 1)],
            },
        )
        assert len(rows) == expected

    @pytest.mark.parametrize("seed", range(25))
    def test_random_sweep(self, catalog, seed):
        rng = random.Random(seed)
        from repro.workloads.random_queries import random_block

        block = random_block(
            catalog, rng, aggregation=False, max_tables=3, max_atoms=4
        )
        db = Database(catalog, random_data(rng))

        def resolve(name):
            return db.table(name)

        naive_rows, index = _build_core(block, resolve)
        fast_rows = columnar_core(block, resolve, index)
        assert sorted(fast_rows) == sorted(naive_rows), str(block)


class TestPerformance:
    def test_hash_join_beats_product(self, catalog):
        """At 2k x 2k rows, the nested product (4M tuples) would take
        seconds; the columnar hash join must stay well under half a
        second."""
        rng = random.Random(1)
        data = {
            "R": [(rng.randrange(500), rng.randrange(500)) for _ in range(2000)],
            "S": [(rng.randrange(500), rng.randrange(500)) for _ in range(2000)],
            "T": [],
        }
        block = parse_query("SELECT A, D FROM R, S WHERE B = C", catalog)
        db = Database(catalog, data)
        start = time.perf_counter()
        batch = build_core_batch(block, lambda n: db.table(n))
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, elapsed
        assert batch.length  # joins actually matched

    def test_local_predicate_pushdown(self, catalog):
        """Selective scans shrink the join input: a selective constant
        filter must keep the join fast even with a weak join key."""
        rng = random.Random(2)
        data = {
            "R": [(rng.randrange(4), rng.randrange(4)) for _ in range(3000)],
            "S": [(rng.randrange(4), 999) for _ in range(3000)],
            "T": [],
        }
        data["S"][0] = (data["S"][0][0], 5)
        block = parse_query(
            "SELECT A FROM R, S WHERE B = C AND D = 5", catalog
        )
        db = Database(catalog, data)
        start = time.perf_counter()
        build_core_batch(block, lambda n: db.table(n))
        elapsed = time.perf_counter() - start
        assert elapsed < 0.3, elapsed


def _owners(block):
    return {
        col: i for i, rel in enumerate(block.from_) for col in rel.columns
    }


class TestClassifyPredicates:
    def test_local_equi_and_deferred(self, catalog):
        block = parse_query(
            "SELECT A FROM R, S, T WHERE A = 1 AND B = C AND A < D "
            "AND E = F",
            catalog,
        )
        out = classify_predicates(block, _owners(block))
        # Normalization renames columns (A becomes A$1), so compare the
        # atoms' shapes rather than their text.
        assert [(a.op, a.right) for a in out.local[0]] == [
            (Op.EQ, Constant(1))
        ]
        assert out.local[1] == []
        assert len(out.local[2]) == 1 and out.local[2][0].op is Op.EQ
        assert [(a, b) for a, b, _l, _r in out.equi_joins] == [(0, 1)]
        assert [a.op for a in out.deferred] == [Op.LT]
        assert not out.contradiction

    def test_constant_atoms_decided_once(self, catalog):
        true_block = parse_query("SELECT A FROM R WHERE 2 = 2", catalog)
        out = classify_predicates(true_block, _owners(true_block))
        assert not out.contradiction
        assert out.local == {0: []} and not out.deferred
        false_block = parse_query("SELECT A FROM R WHERE 1 = 2", catalog)
        assert classify_predicates(
            false_block, _owners(false_block)
        ).contradiction

    def test_self_join_equality_is_an_edge(self, catalog):
        block = parse_query(
            "SELECT x.A FROM R x, R y WHERE x.B = y.B", catalog
        )
        out = classify_predicates(block, _owners(block))
        assert [(a, b) for a, b, _l, _r in out.equi_joins] == [(0, 1)]


class TestGreedyJoinOrder:
    def test_smallest_first_then_connected(self):
        a, b, c, d = (Column(n) for n in "abcd")
        # 1 is smallest; 0 is joined to it, so 0 comes before the smaller
        # but unconnected 2.
        edges = [(1, 0, a, b)]
        assert greedy_join_order([10, 1, 5], edges) == [1, 0, 2]
        edges.append((2, 0, c, d))
        assert greedy_join_order([10, 1, 5], edges) == [1, 0, 2]

    def test_unconnected_falls_back_to_size(self):
        assert greedy_join_order([7, 3, 5], []) == [1, 2, 0]
