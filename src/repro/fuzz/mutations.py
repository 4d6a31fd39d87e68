"""Intentional evaluator bugs for mutation-testing the oracle.

The CI fuzz job injects one of these and *requires* the fuzzer to catch
and shrink it — proving the oracle actually detects evaluator/rewriter
drift rather than vacuously passing. Each injection patches both
aggregate dispatch tables in place — the scalar one (row engine and
columnar scalar aggregates) and the per-group one (columnar GROUP BY) —
so the bug is live whichever executor ``engine=`` picks, and restores
them on exit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..blocks.exprs import AggFunc
from ..engine import aggregates as _aggregates


def _sum_empty_zero(values):
    # BUG: SUM over an empty group returns 0 instead of SQL's NULL.
    result = _ORIGINALS[AggFunc.SUM](values)
    return 0 if result is None else result


def _avg_int_div(values):
    # BUG: AVG over integers floor-divides instead of dividing exactly.
    values = [v for v in values if v is not None]
    if not values:
        return None
    total = _ORIGINALS[AggFunc.SUM](values)
    if isinstance(total, int):
        return total // len(values)
    return total / len(values)


def _count_rows(values):
    # BUG: COUNT(c) counts rows (NULLs included), i.e. behaves as COUNT(*).
    return len(list(values))


def _min_as_max(values):
    # BUG: MIN evaluates MAX — a crude but unambiguous rewiring.
    return _ORIGINALS[AggFunc.MAX](values)


def _per_group(scalar):
    """The per-group kernel of a scalar aggregate (same bug, same answers)."""

    def kernel(gids, values, ngroups):
        groups: list = [[] for _ in range(ngroups)]
        for g, v in zip(gids, values):
            groups[g].append(v)
        return [scalar(group) for group in groups]

    return kernel


_ORIGINALS = dict(_aggregates._DISPATCH)

_BUGS = {
    "sum-empty-zero": {AggFunc.SUM: _sum_empty_zero},
    "avg-int-div": {AggFunc.AVG: _avg_int_div},
    "count-rows": {AggFunc.COUNT: _count_rows},
    "min-as-max": {AggFunc.MIN: _min_as_max},
}

BUG_NAMES = tuple(sorted(_BUGS))


@contextmanager
def inject_bug(name: str) -> Iterator[None]:
    """Patch the named evaluator bug in for the duration of the block."""
    try:
        patch = _BUGS[name]
    except KeyError:
        raise ValueError(
            f"unknown bug {name!r}; known: {', '.join(BUG_NAMES)}"
        ) from None
    tables = (
        (_aggregates._DISPATCH, patch),
        (
            _aggregates._GROUP_DISPATCH,
            {func: _per_group(fn) for func, fn in patch.items()},
        ),
    )
    saved = [
        (table, {func: table[func] for func in funcs})
        for table, funcs in tables
    ]
    for table, funcs in tables:
        table.update(funcs)
    try:
        yield
    finally:
        for table, originals in saved:
            table.update(originals)
