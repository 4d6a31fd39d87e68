"""In-memory multiset relational engine (the evaluation substrate).

Two executors share one semantics: the naive row interpreter
(:mod:`repro.engine.evaluator`), the reference, and the vectorized
columnar engine (:mod:`repro.engine.columnar`), the fast path. The
``engine=`` mode switch on :func:`evaluate_block` /
:meth:`Database.execute` selects between them (``"row"``,
``"columnar"``, ``"auto"``); see ``docs/engine.md``.
"""

from .aggregates import accumulate_by_group, apply_aggregate
from .database import Database
from .evaluator import AUTO_ROW_MAX_PRODUCT, ENGINES, evaluate_block
from .table import Table

__all__ = [
    "AUTO_ROW_MAX_PRODUCT",
    "ENGINES",
    "accumulate_by_group",
    "apply_aggregate",
    "Database",
    "evaluate_block",
    "Table",
]
