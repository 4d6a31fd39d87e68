"""Residual conditions: the ``Conds'`` of conditions C3 and C3'.

Condition C3 asks for a conjunction ``Conds'`` such that

    ``Conds(Q)  ≡  φ(Conds(V)) ∧ Conds'``

where ``Conds'`` mentions only columns still *available* after the view
replaces its image tables (columns of non-image tables, plus the images of
the view's SELECT columns — C3' further excludes aggregated view outputs).

The construction restricts the closure of ``Conds(Q)`` to the allowed
vocabulary and checks the equivalence; for equality-only predicates this is
complete (Theorem 3.1), and it is sound in general.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from ..blocks.exprs import columns_in
from ..blocks.terms import Column, Comparison, Constant
from .closure import Closure, closure_cache_enabled, closure_of
from .implication import minimize


#: Sort key of the allowed vocabulary (C-level, unlike ``Column.__lt__``).
_column_name = attrgetter("name")


def atoms_constants(atoms: Iterable[Comparison]) -> list[Constant]:
    """All constants mentioned in a conjunction, in first-seen order."""
    out: dict[Constant, None] = {}
    for atom in atoms:
        for side in (atom.left, atom.right):
            if isinstance(side, Constant):
                out[side] = None
    return list(out)


#: Memo for :func:`find_residual`. A C3 check is a pure function of the
#: query conditions, the mapped view conditions and the *ordered* allowed
#: vocabulary (the construction's output order follows it), so repeated
#: rewrite traffic — the same query probed against the same views — reuses
#: the entailed-atom enumeration and minimization outright. Honors the
#: closure-cache switch so baseline benchmarks disable it too.
RESIDUAL_CACHE_MAX = 4096
_residual_cache: "OrderedDict[tuple, Optional[tuple[Comparison, ...]]]" = (
    OrderedDict()
)
_residual_hits = 0
_residual_misses = 0


def residual_cache_counts() -> tuple[int, int]:
    """``(hits, misses)`` without dict building (metrics hot path)."""
    return _residual_hits, _residual_misses


def residual_cache_stats() -> dict:
    total = _residual_hits + _residual_misses
    return {
        "hits": _residual_hits,
        "misses": _residual_misses,
        "hit_rate": round(_residual_hits / total, 4) if total else 0.0,
    }


def clear_residual_cache() -> None:
    global _residual_hits, _residual_misses
    _residual_cache.clear()
    _residual_hits = _residual_misses = 0


def find_residual(
    conds_q: Sequence[Comparison],
    mapped_view_conds: Sequence[Comparison],
    allowed_columns: Iterable[Column],
) -> Optional[list[Comparison]]:
    """Compute ``Conds'`` for condition C3/C3', or ``None`` when the
    equivalence cannot be established.

    ``mapped_view_conds`` is ``φ(Conds(V))`` — the view's conditions with
    its columns renamed into query columns by the candidate mapping.
    """
    # Sorted, not in the caller's order: callers pass frozensets, whose
    # iteration order follows string hashing and so PYTHONHASHSEED, and
    # the residual's atoms and operand order follow this vocabulary.
    allowed_terms: list = sorted(set(allowed_columns), key=_column_name)
    allowed_terms += atoms_constants(conds_q)
    allowed_terms += atoms_constants(mapped_view_conds)

    global _residual_hits, _residual_misses
    caching = closure_cache_enabled()
    if caching:
        key = (
            frozenset(conds_q),
            frozenset(mapped_view_conds),
            tuple(allowed_terms),
        )
        try:
            cached = _residual_cache[key]
        except KeyError:
            _residual_misses += 1
        else:
            _residual_hits += 1
            _residual_cache.move_to_end(key)
            return None if cached is None else list(cached)

    result = _find_residual_uncached(
        conds_q, mapped_view_conds, allowed_terms
    )
    if caching:
        _residual_cache[key] = None if result is None else tuple(result)
        if len(_residual_cache) > RESIDUAL_CACHE_MAX:
            _residual_cache.popitem(last=False)
    return result


def _find_residual_uncached(
    conds_q: Sequence[Comparison],
    mapped_view_conds: Sequence[Comparison],
    allowed_terms: Sequence,
) -> Optional[list[Comparison]]:
    closure_q = closure_of(conds_q)
    if not closure_q.satisfiable:
        # Q is unsatisfiable (returns no groups on any database). Declining
        # to rewrite is sound; callers may special-case this if desired.
        return None

    # First half of C3: Conds(Q) must enforce everything the view enforces,
    # otherwise the view discards tuples that Q needs.
    if not closure_q.entails_all(mapped_view_conds):
        return None

    candidates = closure_q.entailed_atoms_over(allowed_terms)

    # Second half of C3: the view's conditions plus the residual must give
    # back exactly Conds(Q).
    combined = closure_of(tuple(mapped_view_conds) + tuple(candidates))
    if not combined.entails_all(conds_q):
        return None

    return minimize(candidates, context=mapped_view_conds)


def express_over(
    atom: Comparison,
    closure: Closure,
    allowed_columns: frozenset[Column],
) -> Optional[Comparison]:
    """Rewrite an atom onto the allowed vocabulary using entailed equalities.

    Each side that is a disallowed column is replaced by an equal allowed
    column or pinned constant, when one exists.
    """

    def fix(side):
        if not isinstance(side, Column) or side in allowed_columns:
            return side
        for candidate in sorted(closure.equality_class(side), key=str):
            if isinstance(candidate, Column) and candidate in allowed_columns:
                return candidate
        pinned = closure.constant_of(side)
        if pinned is not None:
            return pinned
        return None

    left = fix(atom.left)
    right = fix(atom.right)
    if left is None or right is None:
        return None
    return Comparison(left, atom.op, right)


def rewrite_conjunction(
    atoms: Sequence[Comparison],
    closure: Closure,
    allowed_columns: frozenset[Column],
) -> Optional[list[Comparison]]:
    """Express every atom over the allowed vocabulary, or ``None``."""
    out = []
    for atom in atoms:
        fixed = express_over(atom, closure, allowed_columns)
        if fixed is None:
            return None
        out.append(fixed)
    return out
