"""``repro.sql`` — a SQL frontend over the RA⁺ / columnar engine.

A hand-rolled tokenizer and recursive-descent parser turn a SQL subset
(SELECT with expressions / aliases / aggregates, JOIN … ON with equi,
range-overlap and band predicates, WHERE, GROUP BY, ORDER BY, LIMIT, and
OVER window clauses) into a :class:`~repro.plan.PlanSpec` tree; a rule-based
optimizer pushes predicates below joins, prunes unreferenced columns and
steers joins onto the non-quadratic kernels; and the tree runs on the
columnar interpreter or the python oracle.  :func:`sql_to_spec` returns a
serving template's tree.  See ``docs/SQL_GUIDE.md``.
"""

from repro.sql.ast import SelectStatement
from repro.sql.compiler import CompiledQuery, compile_sql, run_sql, sql_to_spec
from repro.sql.optimizer import (
    optimize_plan,
    prefer_kernel_joins,
    prune_columns,
    push_down_predicates,
)
from repro.sql.parser import parse
from repro.sql.tokenizer import Token, tokenize

__all__ = [
    "CompiledQuery",
    "SelectStatement",
    "Token",
    "compile_sql",
    "optimize_plan",
    "parse",
    "prefer_kernel_joins",
    "prune_columns",
    "push_down_predicates",
    "run_sql",
    "sql_to_spec",
    "tokenize",
]
