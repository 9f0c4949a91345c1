"""The statement AST of the ``repro.sql`` frontend.

The parser produces a ``SelectStatement`` and the expression nodes below
it: pure syntax, no name resolution, every node carrying a 1-based source
position so later passes can point a caret at the offending token.  The
compiler lowers a statement into the plan tree of :mod:`repro.plan`.

Source positions use ``field(compare=False)`` so golden parser tests can
compare ASTs structurally without spelling out every line/column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "SqlExpr", "ColumnRef", "Literal", "BinaryOp", "NotExpr", "FuncCall",
    "WindowClause", "SelectItem", "TableRef", "JoinClause", "OrderItem",
    "SelectStatement",
]


@dataclass(frozen=True)
class SqlExpr:
    """Base class for parsed (unresolved) SQL expressions."""


@dataclass(frozen=True)
class ColumnRef(SqlExpr):
    """A possibly table-qualified column reference (``t.v`` or ``v``)."""

    table: Optional[str]
    name: str
    line: int = field(compare=False, default=1)
    column: int = field(compare=False, default=1)


@dataclass(frozen=True)
class Literal(SqlExpr):
    """A number or string literal."""

    value: object
    line: int = field(compare=False, default=1)
    column: int = field(compare=False, default=1)


@dataclass(frozen=True)
class BinaryOp(SqlExpr):
    """Arithmetic (``+ - *``), comparison or ``AND``/``OR``."""

    op: str
    left: SqlExpr
    right: SqlExpr
    line: int = field(compare=False, default=1)
    column: int = field(compare=False, default=1)


@dataclass(frozen=True)
class NotExpr(SqlExpr):
    operand: SqlExpr
    line: int = field(compare=False, default=1)
    column: int = field(compare=False, default=1)


@dataclass(frozen=True)
class WindowClause:
    """An ``OVER (...)`` clause attached to an aggregate call.

    ``frame`` is the parsed ``ROWS BETWEEN`` bounds as row offsets relative
    to the current row (negative = preceding), or ``None`` when the clause
    was omitted (defaulting to the engine's current-row frame ``(0, 0)``).
    """

    partition_by: tuple[ColumnRef, ...]
    order_by: tuple["OrderItem", ...]
    frame: Optional[tuple[int, int]]
    line: int = field(compare=False, default=1)
    column: int = field(compare=False, default=1)


@dataclass(frozen=True)
class FuncCall(SqlExpr):
    """An aggregate call ``fn(arg)``, optionally windowed via ``OVER``.

    ``star`` marks ``count(*)`` (then ``arg`` is ``None``).
    """

    name: str
    arg: Optional[SqlExpr]
    star: bool = False
    window: Optional[WindowClause] = None
    line: int = field(compare=False, default=1)
    column: int = field(compare=False, default=1)


@dataclass(frozen=True)
class SelectItem:
    expression: SqlExpr
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None
    line: int = field(compare=False, default=1)
    column: int = field(compare=False, default=1)


@dataclass(frozen=True)
class JoinClause:
    table: TableRef
    condition: SqlExpr


@dataclass(frozen=True)
class OrderItem:
    expression: ColumnRef
    descending: bool = False


@dataclass(frozen=True)
class SelectStatement:
    items: tuple[SelectItem, ...]
    source: TableRef
    joins: tuple[JoinClause, ...] = ()
    where: Optional[SqlExpr] = None
    group_by: tuple[ColumnRef, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
