"""Single-block evaluation under SQL multiset semantics."""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.blocks.normalize import parse_query
from repro.blocks.terms import Column, Comparison, Constant, Op
from repro.catalog.schema import Catalog, table
from repro.engine.database import Database
from repro.errors import EvaluationError, SchemaError


@pytest.fixture
def catalog():
    return Catalog(
        [
            table("R", ["A", "B"]),
            table("S", ["C", "D"]),
        ]
    )


def db(catalog, r_rows, s_rows=()):
    return Database(catalog, {"R": r_rows, "S": s_rows})


class TestProjection:
    def test_projection_keeps_duplicates(self, catalog):
        d = db(catalog, [(1, 10), (1, 20)])
        result = d.execute("SELECT A FROM R")
        assert result.rows == [(1,), (1,)]

    def test_distinct_removes_duplicates(self, catalog):
        d = db(catalog, [(1, 10), (1, 20)])
        assert d.execute("SELECT DISTINCT A FROM R").rows == [(1,)]

    def test_column_order_follows_select(self, catalog):
        d = db(catalog, [(1, 10)])
        assert d.execute("SELECT B, A FROM R").rows == [(10, 1)]


class TestJoins:
    def test_cross_product_multiplicities(self, catalog):
        d = db(catalog, [(1, 0), (1, 0)], [(1, 5), (1, 5), (1, 5)])
        result = d.execute("SELECT A, C FROM R, S")
        assert len(result) == 6  # 2 x 3

    def test_equijoin(self, catalog):
        d = db(catalog, [(1, 0), (2, 0)], [(1, 5), (3, 6)])
        result = d.execute("SELECT A, D FROM R, S WHERE A = C")
        assert result.rows == [(1, 5)]

    def test_self_join(self, catalog):
        d = db(catalog, [(1, 2), (2, 3)])
        result = d.execute(
            "SELECT x.A, y.B FROM R x, R y WHERE x.B = y.A"
        )
        assert result.rows == [(1, 3)]

    def test_empty_table_empties_product(self, catalog):
        d = db(catalog, [(1, 2)], [])
        assert d.execute("SELECT A FROM R, S").rows == []


class TestWhere:
    def test_inequalities(self, catalog):
        d = db(catalog, [(1, 5), (2, 7), (3, 9)])
        assert d.execute("SELECT A FROM R WHERE B > 5 AND B <= 9").rows == [
            (2,),
            (3,),
        ]

    def test_ne(self, catalog):
        d = db(catalog, [(1, 5), (2, 5)])
        assert d.execute("SELECT A FROM R WHERE A <> 2").rows == [(1,)]

    def test_string_comparison(self, catalog):
        d = db(catalog, [("x", 1), ("y", 2)])
        assert d.execute("SELECT B FROM R WHERE A = 'y'").rows == [(2,)]


class TestGrouping:
    def test_group_sums(self, catalog):
        d = db(catalog, [(1, 10), (1, 20), (2, 5)])
        result = d.execute("SELECT A, SUM(B) FROM R GROUP BY A")
        assert sorted(result.rows) == [(1, 30), (2, 5)]

    def test_group_by_ungrouped_groups_vanish(self, catalog):
        d = db(catalog, [])
        assert d.execute("SELECT A, COUNT(B) FROM R GROUP BY A").rows == []

    def test_no_group_by_single_row_on_empty(self, catalog):
        d = db(catalog, [])
        result = d.execute("SELECT COUNT(B), SUM(B) FROM R")
        assert result.rows == [(0, None)]

    def test_grouping_respects_multiplicity(self, catalog):
        d = db(catalog, [(1, 10), (1, 10)])
        result = d.execute("SELECT A, COUNT(B), SUM(B) FROM R GROUP BY A")
        assert result.rows == [(1, 2, 20)]

    def test_group_key_not_selected(self, catalog):
        # Legal SQL: group by A but select only the aggregate.
        d = db(catalog, [(1, 10), (2, 20)])
        result = d.execute("SELECT SUM(B) FROM R GROUP BY A")
        assert sorted(result.rows) == [(10,), (20,)]

    def test_avg_is_exact(self, catalog):
        d = db(catalog, [(1, 1), (1, 2)])
        result = d.execute("SELECT AVG(B) FROM R")
        assert result.rows == [(Fraction(3, 2),)]


class TestHaving:
    def test_having_filters_groups(self, catalog):
        d = db(catalog, [(1, 10), (1, 20), (2, 5)])
        result = d.execute(
            "SELECT A, SUM(B) FROM R GROUP BY A HAVING SUM(B) > 10"
        )
        assert result.rows == [(1, 30)]

    def test_having_on_grouping_column(self, catalog):
        d = db(catalog, [(1, 10), (2, 5)])
        result = d.execute(
            "SELECT A, SUM(B) FROM R GROUP BY A HAVING A >= 2"
        )
        assert result.rows == [(2, 5)]

    def test_having_aggregate_not_in_select(self, catalog):
        d = db(catalog, [(1, 10), (1, 20), (2, 5)])
        result = d.execute(
            "SELECT A FROM R GROUP BY A HAVING COUNT(B) = 2"
        )
        assert result.rows == [(1,)]


class TestExpressions:
    def test_sum_of_product(self, catalog):
        d = db(catalog, [(2, 10), (3, 10)])
        result = d.execute("SELECT SUM(A * B) FROM R")
        assert result.rows == [(50,)]

    def test_scalar_arith_in_select(self, catalog):
        d = db(catalog, [(2, 10)])
        result = d.execute("SELECT A + B FROM R")
        assert result.rows == [(12,)]

    def test_group_level_arithmetic(self, catalog):
        d = db(catalog, [(1, 10), (1, 20)])
        result = d.execute(
            "SELECT A, SUM(B) / COUNT(B) FROM R GROUP BY A"
        )
        assert result.rows == [(1, Fraction(15))]

    def test_int_division_exact(self, catalog):
        d = db(catalog, [(1, 3)])
        result = d.execute("SELECT B / 2 FROM R")
        assert result.rows == [(Fraction(3, 2),)]


class TestErrors:
    def test_wrong_data_arity(self, catalog):
        with pytest.raises((EvaluationError, SchemaError)):
            Database(catalog, {"R": [(1,)]})

    def test_incomparable_types(self, catalog):
        d = db(catalog, [(1, "x")])
        with pytest.raises(EvaluationError):
            d.execute("SELECT A FROM R WHERE B > 3")

    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_where_column_outside_from_raises(self, catalog, engine):
        block = parse_query("SELECT A FROM R", catalog)
        block = replace(
            block, where=(Comparison(Column("Z"), Op.EQ, Constant(1)),)
        )
        d = db(catalog, [(1, 10)])
        with pytest.raises(EvaluationError, match="unbound column"):
            d.execute(block, engine=engine)
