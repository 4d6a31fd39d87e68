"""Plan decisions for the columnar executor: pushdown and join order.

:func:`classify_predicates` splits a block's WHERE clause by how early
each atom can run (inside one relation's scan, as a hash-join edge, or
once every column it mentions is bound), and :func:`greedy_join_order`
picks the order the executor joins the filtered scans in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ...blocks.query_block import QueryBlock
from ...blocks.terms import Column, Comparison, Constant, Op
from ...errors import EvaluationError


@dataclass
class ClassifiedPredicates:
    """The WHERE clause split by how early each atom can run."""

    #: Single-relation atoms, pushed into that relation's scan.
    local: dict[int, list[Comparison]] = field(default_factory=dict)
    #: ``(owner_a, owner_b, col_a, col_b)`` equality edges (hash joins).
    equi_joins: list[tuple[int, int, Column, Column]] = field(
        default_factory=list
    )
    #: Atoms spanning relations without being equi-join edges; applied
    #: as soon as all their columns are bound.
    deferred: list[Comparison] = field(default_factory=list)
    #: True when a constant-only atom decides the whole block to empty.
    contradiction: bool = False


def classify_predicates(
    block: QueryBlock, owner_of: dict[Column, int]
) -> ClassifiedPredicates:
    """Split ``block.where`` into local / equi-join / deferred atoms."""
    out = ClassifiedPredicates(
        local={i: [] for i in range(len(block.from_))}
    )
    for atom in block.where:
        cols = [
            side
            for side in (atom.left, atom.right)
            if isinstance(side, Column)
        ]
        try:
            owners = {owner_of[c] for c in cols}
        except KeyError as exc:
            raise EvaluationError(f"unbound column {exc.args[0]}") from None
        if not owners:
            # Constant-only atom: decide it once.
            left = atom.left.value if isinstance(atom.left, Constant) else None
            right = (
                atom.right.value if isinstance(atom.right, Constant) else None
            )
            if not atom.op.holds(left, right):
                out.contradiction = True
            continue
        if len(owners) == 1:
            out.local[owners.pop()].append(atom)
        elif (
            atom.op is Op.EQ
            and len(cols) == 2
            and len(owners) == 2
        ):
            out.equi_joins.append(
                (owner_of[cols[0]], owner_of[cols[1]], cols[0], cols[1])
            )
        else:
            out.deferred.append(atom)
    return out


def greedy_join_order(
    sizes: Sequence[int],
    equi_joins: Sequence[tuple[int, int, Column, Column]],
) -> list[int]:
    """Smallest-first join order, preferring equi-connected relations."""
    n = len(sizes)
    remaining = set(range(n))
    order: list[int] = []
    start = min(remaining, key=lambda i: sizes[i])
    order.append(start)
    remaining.discard(start)
    while remaining:
        connected = [
            i
            for i in remaining
            if any(
                (a == i and b in order) or (b == i and a in order)
                for a, b, _l, _r in equi_joins
            )
        ]
        pool = connected or sorted(remaining)
        nxt = min(pool, key=lambda i: sizes[i])
        order.append(nxt)
        remaining.discard(nxt)
    return order
