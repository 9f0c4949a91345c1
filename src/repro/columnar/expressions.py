"""Vectorized bound-preserving expression evaluation over columnar AU-relations.

The scalar expression semantics of :mod:`repro.core.expressions` evaluates one
:class:`~repro.core.tuples.AUTuple` at a time, building a
:class:`~repro.core.ranges.RangeValue` / :class:`~repro.core.booleans.RangeBool`
per node and per row.  This module evaluates the same AST over the aligned
``lb`` / ``sg`` / ``ub`` arrays of a
:class:`~repro.columnar.relation.ColumnarAURelation` instead: interval
arithmetic and comparison triples become elementwise NumPy operations, one per
node for the whole column.

Results are bit-identical to the scalar semantics.  Inputs the vectorized
path cannot reproduce exactly fall back to the scalar evaluator row by row
(:func:`Expression.eval_range` over reconstructed tuples):

* ``object``-dtype component arrays (strings, ``None``, booleans, mixed
  scalar types),
* ``float64`` components carrying NaN (NumPy's ``minimum`` / comparison NaN
  propagation differs from the scalar ``_lt`` order),
* ``int64`` components large enough that either integer arithmetic could
  overflow 64 bits or an int/float comparison would round (``>= 2**53``),
* AST nodes outside the proven expression language (custom subclasses), and
* plain callables (which only exist tuple-at-a-time).

The public entry points return plain component arrays so the operator kernels
of :mod:`repro.columnar.operators` can consume them directly:

* :func:`range_columns` — ``(lb, sg, ub)`` value arrays of a scalar
  expression, and
* :func:`predicate_masks` — ``(certain, sg, possible)`` boolean arrays of a
  predicate (the vectorized :class:`RangeBool` triple).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.columnar.relation import (
    FLOAT64_EXACT_MAX,
    AttributeColumn,
    ColumnarAURelation,
    column_array,
    profile_components,
)
from repro.core.booleans import RangeBool
from repro.core.expressions import (
    Arithmetic,
    Attribute,
    BooleanOp,
    Comparison,
    Constant,
    Expression,
    IfThenElse,
    Not,
)
from repro.core.ranges import RangeValue
from repro.core.tuples import AUTuple
from repro.errors import ExpressionError

__all__ = ["range_columns", "predicate_masks", "referenced_attributes"]


#: Magnitude ceiling for vectorized int64 arithmetic results; beyond it the
#: fixed-width kernels could overflow where Python's integers would not.
_INT64_SAFE = 2**62


class _Fallback(Exception):
    """Internal signal: this expression needs the scalar row-by-row path."""


class _Ranges:
    """A vectorized :class:`RangeValue` column: aligned lb / sg / ub arrays.

    ``max_abs`` carries a magnitude bound for integer columns (``None`` for
    floats) so arithmetic can reject results that might overflow ``int64``
    before computing them.
    """

    __slots__ = ("lb", "sg", "ub", "max_abs")

    def __init__(self, lb: np.ndarray, sg: np.ndarray, ub: np.ndarray, max_abs: int | None):
        self.lb = lb
        self.sg = sg
        self.ub = ub
        self.max_abs = max_abs

    @property
    def is_integer(self) -> bool:
        return self.max_abs is not None


class _Bools:
    """A vectorized :class:`RangeBool` column: certain / sg / possible masks."""

    __slots__ = ("certain", "sg", "possible")

    def __init__(self, certain: np.ndarray, sg: np.ndarray, possible: np.ndarray):
        self.certain = certain
        self.sg = sg
        self.possible = possible


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def range_columns(
    relation: ColumnarAURelation,
    expression: Expression | Callable[[AUTuple], RangeValue],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lb, sg, ub)`` value arrays of a scalar expression over every row."""
    if isinstance(expression, Expression):
        try:
            result = _eval(expression, relation)
        except _Fallback:
            pass
        else:
            if isinstance(result, _Bools):
                raise ExpressionError("expected a scalar expression, got a predicate")
            return result.lb, result.sg, result.ub
    return _scalar_range_columns(relation, expression)


def predicate_masks(
    relation: ColumnarAURelation,
    predicate: Expression | Callable[[AUTuple], RangeBool],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(certain, sg, possible)`` boolean arrays of a predicate over every row."""
    if isinstance(predicate, Expression):
        try:
            result = _eval(predicate, relation)
        except _Fallback:
            pass
        else:
            if isinstance(result, _Ranges):
                # Scalar expressions used as predicates filter on component
                # truthiness in the scalar semantics (Multiplicity.filter
                # reads ``.lb`` / ``.sg`` / ``.ub`` directly); delegate so the
                # behaviour stays identical.
                return _scalar_predicate_masks(relation, predicate)
            return result.certain, result.sg, result.possible
    return _scalar_predicate_masks(relation, predicate)


def referenced_attributes(
    expression: Expression | Callable,
) -> frozenset[str] | None:
    """The attribute names an expression reads, or ``None`` when undecidable.

    Column-ownership analysis for the factorised pushdown rules
    (:mod:`repro.columnar.factorised`): a predicate or scalar expression can
    be evaluated inside the factorised component that owns its referenced
    columns exactly when that set is known.  Plain callables and AST nodes
    outside the proven expression language may read any attribute
    tuple-at-a-time, so they return ``None`` (callers must expand).

    >>> from repro.core.expressions import attr, const
    >>> sorted(referenced_attributes(attr("a").lt(attr("b") + const(1))))
    ['a', 'b']
    >>> referenced_attributes(const(2).lt(const(3)))
    frozenset()
    >>> referenced_attributes(lambda tup: tup.value("a")) is None
    True
    """
    if not isinstance(expression, Expression):
        return None
    names: set[str] = set()
    stack: list[Expression] = [expression]
    while stack:
        node = stack.pop()
        node_type = type(node)
        if node_type is Attribute:
            names.add(node.name)
        elif node_type is Constant:
            pass
        elif node_type in (Arithmetic, Comparison, BooleanOp):
            stack.append(node.left)
            stack.append(node.right)
        elif node_type is Not:
            stack.append(node.operand)
        elif node_type is IfThenElse:
            stack.append(node.condition)
            stack.append(node.then_branch)
            stack.append(node.else_branch)
        else:  # custom Expression subclass: only the scalar path knows it
            return None
    return frozenset(names)


# ---------------------------------------------------------------------------
# Scalar (row-by-row) fallback
# ---------------------------------------------------------------------------


def _scalar_range_columns(relation, expression):
    values = []
    schema = relation.schema
    for row in relation.rows():
        tup = AUTuple(schema, row)
        result = (
            expression.eval_range(tup) if isinstance(expression, Expression) else expression(tup)
        )
        if isinstance(result, RangeBool):
            raise ExpressionError("expected a scalar expression, got a predicate")
        values.append(result)
    return (
        column_array([value.lb for value in values]),
        column_array([value.sg for value in values]),
        column_array([value.ub for value in values]),
    )


def _scalar_predicate_masks(relation, predicate):
    n = len(relation)
    certain = np.zeros(n, dtype=bool)
    sg = np.zeros(n, dtype=bool)
    possible = np.zeros(n, dtype=bool)
    schema = relation.schema
    for i, row in enumerate(relation.rows()):
        tup = AUTuple(schema, row)
        result = (
            predicate.eval_range(tup) if isinstance(predicate, Expression) else predicate(tup)
        )
        # RangeBool and (degenerate) RangeValue predicates both filter through
        # component truthiness, exactly like Multiplicity.filter.
        certain[i] = bool(result.lb)
        sg[i] = bool(result.sg)
        possible[i] = bool(result.ub)
    return certain, sg, possible


# ---------------------------------------------------------------------------
# Vectorized AST walk
# ---------------------------------------------------------------------------


def _eval(node: Expression, relation: ColumnarAURelation) -> _Ranges | _Bools:
    if type(node) is Attribute:
        return _attribute(node, relation)
    if type(node) is Constant:
        return _constant(node, len(relation))
    if type(node) is Arithmetic:
        return _arithmetic(node, relation)
    if type(node) is Comparison:
        return _comparison(node, relation)
    if type(node) is BooleanOp:
        left = _expect_bools(_eval(node.left, relation))
        right = _expect_bools(_eval(node.right, relation))
        if node.op == "and":
            return _Bools(left.certain & right.certain, left.sg & right.sg, left.possible & right.possible)
        return _Bools(left.certain | right.certain, left.sg | right.sg, left.possible | right.possible)
    if type(node) is Not:
        operand = _expect_bools(_eval(node.operand, relation))
        return _Bools(~operand.possible, ~operand.sg, ~operand.certain)
    if type(node) is IfThenElse:
        return _if_then_else(node, relation)
    raise _Fallback  # custom Expression subclass: only the scalar path knows it


def _attribute(node: Attribute, relation: ColumnarAURelation) -> _Ranges:
    column = relation.column(node.name)
    return _column_ranges(column)


def _column_ranges(column: AttributeColumn) -> _Ranges:
    profile = profile_components((column.lb, column.sg, column.ub))
    if profile.has_object or profile.has_nan:
        # Object scalars and NaN ordering only exist on the scalar path.
        raise _Fallback
    max_abs = None if profile.has_float else profile.int_magnitude
    return _Ranges(column.lb, column.sg, column.ub, max_abs)


def _constant(node: Constant, n: int) -> _Ranges:
    value = node.value
    if type(value) is int:
        arr = np.full(n, value, dtype=np.int64) if abs(value) < _INT64_SAFE else None
        if arr is None:
            raise _Fallback
        return _Ranges(arr, arr, arr, abs(value))
    if type(value) is float:
        if value != value:  # NaN constant
            raise _Fallback
        arr = np.full(n, value, dtype=np.float64)
        return _Ranges(arr, arr, arr, None)
    raise _Fallback  # strings / None / booleans: scalar semantics only


def _mixed_exact(left: _Ranges, right: _Ranges) -> None:
    """Reject int/float mixes whose integers would round in float64."""
    for ranges in (left, right):
        if ranges.is_integer and ranges.max_abs >= FLOAT64_EXACT_MAX and not (
            left.is_integer and right.is_integer
        ):
            raise _Fallback


def _arithmetic(node: Arithmetic, relation: ColumnarAURelation) -> _Ranges:
    left = _expect_ranges(_eval(node.left, relation))
    right = _expect_ranges(_eval(node.right, relation))
    _mixed_exact(left, right)
    both_int = left.is_integer and right.is_integer
    if node.op in ("+", "-"):
        if both_int:
            bound = left.max_abs + right.max_abs
            if bound >= _INT64_SAFE:
                raise _Fallback
        else:
            bound = None
        if node.op == "+":
            return _Ranges(left.lb + right.lb, left.sg + right.sg, left.ub + right.ub, bound)
        return _Ranges(left.lb - right.ub, left.sg - right.sg, left.ub - right.lb, bound)
    if node.op == "*":
        if both_int:
            bound = left.max_abs * right.max_abs
            if bound >= _INT64_SAFE:
                raise _Fallback
        else:
            bound = None
        products = (
            left.lb * right.lb,
            left.lb * right.ub,
            left.ub * right.lb,
            left.ub * right.ub,
        )
        lb = np.minimum(np.minimum(products[0], products[1]), np.minimum(products[2], products[3]))
        ub = np.maximum(np.maximum(products[0], products[1]), np.maximum(products[2], products[3]))
        return _Ranges(lb, left.sg * right.sg, ub, bound)
    raise ExpressionError(f"unsupported arithmetic operator {node.op!r}")


def _comparison(node: Comparison, relation: ColumnarAURelation) -> _Bools:
    left = _expect_ranges(_eval(node.left, relation))
    right = _expect_ranges(_eval(node.right, relation))
    _mixed_exact(left, right)
    # NaN is excluded upstream, so the scalar domain order (_lt / _le with
    # ``None`` first) collapses to plain numeric comparison here.
    if node.op == "<":
        return _Bools(left.ub < right.lb, left.sg < right.sg, left.lb < right.ub)
    if node.op == "<=":
        return _Bools(left.ub <= right.lb, left.sg <= right.sg, left.lb <= right.ub)
    if node.op == ">":
        return _Bools(right.ub < left.lb, right.sg < left.sg, right.lb < left.ub)
    if node.op == ">=":
        return _Bools(right.ub <= left.lb, right.sg <= left.sg, right.lb <= left.ub)
    certain_left = (left.lb == left.sg) & (left.sg == left.ub)
    certain_right = (right.lb == right.sg) & (right.sg == right.ub)
    certainly = certain_left & certain_right & (left.lb == right.lb)
    overlaps = (left.lb <= right.ub) & (right.lb <= left.ub)
    sg = left.sg == right.sg
    if node.op == "==":
        return _Bools(certainly, sg, overlaps)
    return _Bools(~overlaps, ~sg, ~certainly)


def _if_then_else(node: IfThenElse, relation: ColumnarAURelation) -> _Ranges:
    condition = _expect_bools(_eval(node.condition, relation))
    then_val = _expect_ranges(_eval(node.then_branch, relation))
    else_val = _expect_ranges(_eval(node.else_branch, relation))
    _mixed_exact(then_val, else_val)
    bound = (
        max(then_val.max_abs, else_val.max_abs)
        if then_val.is_integer and else_val.is_integer
        else None
    )
    sg = np.where(condition.sg, then_val.sg, else_val.sg)
    # Certainly true -> then branch; certainly false -> else branch; anything
    # uncertain takes the union hull of both branches (the sound scalar
    # over-approximation of IfThenElse.eval_range).
    hull_lb = np.minimum(then_val.lb, else_val.lb)
    hull_ub = np.maximum(then_val.ub, else_val.ub)
    lb = np.where(condition.certain, then_val.lb, np.where(~condition.possible, else_val.lb, hull_lb))
    ub = np.where(condition.certain, then_val.ub, np.where(~condition.possible, else_val.ub, hull_ub))
    return _Ranges(lb, sg, ub, bound)


def _expect_ranges(value: _Ranges | _Bools) -> _Ranges:
    if isinstance(value, _Bools):
        raise ExpressionError("expected a scalar expression, got a predicate")
    return value


def _expect_bools(value: _Ranges | _Bools) -> _Bools:
    if isinstance(value, _Ranges):
        raise ExpressionError("expected a predicate, got a scalar expression")
    return value
