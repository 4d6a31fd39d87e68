"""Vectorized columnar execution engine.

The performance-oriented counterpart of the naive row evaluator:
dict-of-columns batches with zero-copy selection vectors, predicates and
projections compiled once per query block into column-level kernels, and
single-pass grouped aggregation. Selected through the ``engine=`` mode
switch on :func:`repro.engine.evaluate_block` /
:meth:`repro.engine.Database.execute`; the row engine is the reference
it is checked against (see ``docs/engine.md``).
"""

from .batch import Batch
from .executor import build_core_batch, evaluate_block_columnar
from .kernels import compile_filter_kernel, compile_value_kernel

__all__ = [
    "Batch",
    "build_core_batch",
    "compile_filter_kernel",
    "compile_value_kernel",
    "evaluate_block_columnar",
]
