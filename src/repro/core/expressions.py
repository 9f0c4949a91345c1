"""Scalar and Boolean expressions with bound-preserving evaluation.

The expression language mirrors the one whose bound preservation is proven in
[24] (Section 3.2 of the paper): attributes, constants, arithmetic, Boolean
connectives, and comparisons.  Every expression can be evaluated in two modes:

* :meth:`Expression.eval_range` over a range-annotated tuple, producing a
  :class:`~repro.core.ranges.RangeValue` (scalar expressions) or a
  :class:`~repro.core.booleans.RangeBool` (predicates), and
* :meth:`Expression.eval_det` over a deterministic row (an attribute-name ->
  scalar mapping), producing a plain Python value.

The bound-preservation invariant — if ``t ⊑ t̄`` then ``eval_det(t)`` is
bounded by ``eval_range(t̄)`` — is exercised by property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from repro.core.booleans import RangeBool
from repro.core.ranges import RangeValue, Scalar, as_range
from repro.core.tuples import AUTuple
from repro.errors import ExpressionError

__all__ = [
    "Expression",
    "Attribute",
    "Constant",
    "Arithmetic",
    "Comparison",
    "BooleanOp",
    "Not",
    "IfThenElse",
    "attr",
    "const",
]


class Expression:
    """Base class for expression AST nodes."""

    def eval_range(self, tup: AUTuple) -> RangeValue | RangeBool:
        raise NotImplementedError

    def eval_det(self, row: Mapping[str, Scalar]) -> Scalar | bool:
        raise NotImplementedError

    # -- fluent builders (scalar) --------------------------------------------------

    def __add__(self, other: "Expression | Scalar") -> "Arithmetic":
        return Arithmetic("+", self, _wrap(other))

    def __sub__(self, other: "Expression | Scalar") -> "Arithmetic":
        return Arithmetic("-", self, _wrap(other))

    def __mul__(self, other: "Expression | Scalar") -> "Arithmetic":
        return Arithmetic("*", self, _wrap(other))

    # -- fluent builders (predicates) ------------------------------------------------

    def lt(self, other: "Expression | Scalar") -> "Comparison":
        return Comparison("<", self, _wrap(other))

    def le(self, other: "Expression | Scalar") -> "Comparison":
        return Comparison("<=", self, _wrap(other))

    def gt(self, other: "Expression | Scalar") -> "Comparison":
        return Comparison(">", self, _wrap(other))

    def ge(self, other: "Expression | Scalar") -> "Comparison":
        return Comparison(">=", self, _wrap(other))

    def eq(self, other: "Expression | Scalar") -> "Comparison":
        return Comparison("==", self, _wrap(other))

    def ne(self, other: "Expression | Scalar") -> "Comparison":
        return Comparison("!=", self, _wrap(other))

    def and_(self, other: "Expression") -> "BooleanOp":
        return BooleanOp("and", self, other)

    def or_(self, other: "Expression") -> "BooleanOp":
        return BooleanOp("or", self, other)

    def not_(self) -> "Not":
        return Not(self)


def _wrap(value: Union["Expression", Scalar]) -> "Expression":
    if isinstance(value, Expression):
        return value
    return Constant(value)


@dataclass(frozen=True)
class Attribute(Expression):
    """Reference to a named attribute of the input tuple."""

    name: str

    def eval_range(self, tup: AUTuple) -> RangeValue:
        return tup.value(self.name)

    def eval_det(self, row: Mapping[str, Scalar]) -> Scalar:
        try:
            return row[self.name]
        except KeyError as exc:
            raise ExpressionError(f"attribute {self.name!r} missing from row") from exc


@dataclass(frozen=True)
class Constant(Expression):
    """A literal constant (certain range value)."""

    value: Scalar

    def eval_range(self, tup: AUTuple) -> RangeValue:
        return RangeValue.certain(self.value)

    def eval_det(self, row: Mapping[str, Scalar]) -> Scalar:
        return self.value


@dataclass(frozen=True)
class Arithmetic(Expression):
    """Binary arithmetic (``+``, ``-``, ``*``) with interval semantics."""

    op: str
    left: Expression
    right: Expression

    def eval_range(self, tup: AUTuple) -> RangeValue:
        left = _expect_range(self.left.eval_range(tup))
        right = _expect_range(self.right.eval_range(tup))
        if self.op == "+":
            return left.add(right)
        if self.op == "-":
            return left.sub(right)
        if self.op == "*":
            return left.mul(right)
        raise ExpressionError(f"unsupported arithmetic operator {self.op!r}")

    def eval_det(self, row: Mapping[str, Scalar]) -> Scalar:
        left = self.left.eval_det(row)
        right = self.right.eval_det(row)
        if self.op == "+":
            return left + right  # type: ignore[operator]
        if self.op == "-":
            return left - right  # type: ignore[operator]
        if self.op == "*":
            return left * right  # type: ignore[operator]
        raise ExpressionError(f"unsupported arithmetic operator {self.op!r}")


_COMPARATORS = {"<", "<=", ">", ">=", "==", "!="}


@dataclass(frozen=True)
class Comparison(Expression):
    """Comparison of two scalar expressions, producing a bounding triple."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ExpressionError(f"unsupported comparison operator {self.op!r}")

    def eval_range(self, tup: AUTuple) -> RangeBool:
        left = _expect_range(self.left.eval_range(tup))
        right = _expect_range(self.right.eval_range(tup))
        try:
            if self.op == "<":
                return left.lt(right)
            if self.op == "<=":
                return left.le(right)
            if self.op == ">":
                return left.gt(right)
            if self.op == ">=":
                return left.ge(right)
            if self.op == "==":
                return left.eq(right)
            return left.ne(right)
        except TypeError as exc:
            raise self._incomparable(
                _type_names(left.lb, left.sg, left.ub), _type_names(right.lb, right.sg, right.ub)
            ) from exc

    def eval_det(self, row: Mapping[str, Scalar]) -> bool:
        left = self.left.eval_det(row)
        right = self.right.eval_det(row)
        try:
            if self.op == "<":
                return left < right  # type: ignore[operator]
            if self.op == "<=":
                return left <= right  # type: ignore[operator]
            if self.op == ">":
                return left > right  # type: ignore[operator]
            if self.op == ">=":
                return left >= right  # type: ignore[operator]
        except TypeError as exc:
            raise self._incomparable(_type_names(left), _type_names(right)) from exc
        if self.op == "==":
            return left == right
        return left != right

    def _incomparable(self, left: str, right: str) -> ExpressionError:
        return ExpressionError(
            f"cannot evaluate {left} {self.op} {right}: the operand types are not comparable"
        )


@dataclass(frozen=True)
class BooleanOp(Expression):
    """Conjunction / disjunction of two predicates."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in {"and", "or"}:
            raise ExpressionError(f"unsupported boolean operator {self.op!r}")

    def eval_range(self, tup: AUTuple) -> RangeBool:
        left = _expect_bool(self.left.eval_range(tup))
        right = _expect_bool(self.right.eval_range(tup))
        return left.and_(right) if self.op == "and" else left.or_(right)

    def eval_det(self, row: Mapping[str, Scalar]) -> bool:
        left = bool(self.left.eval_det(row))
        right = bool(self.right.eval_det(row))
        return (left and right) if self.op == "and" else (left or right)


@dataclass(frozen=True)
class Not(Expression):
    """Negation of a predicate."""

    operand: Expression

    def eval_range(self, tup: AUTuple) -> RangeBool:
        return _expect_bool(self.operand.eval_range(tup)).not_()

    def eval_det(self, row: Mapping[str, Scalar]) -> bool:
        return not bool(self.operand.eval_det(row))


@dataclass(frozen=True)
class IfThenElse(Expression):
    """Conditional scalar expression with bound-preserving semantics.

    When the condition is uncertain the result range is the hull of both
    branches, which is the standard sound over-approximation.
    """

    condition: Expression
    then_branch: Expression
    else_branch: Expression

    def eval_range(self, tup: AUTuple) -> RangeValue:
        cond = _expect_bool(self.condition.eval_range(tup))
        then_val = _expect_range(self.then_branch.eval_range(tup))
        else_val = _expect_range(self.else_branch.eval_range(tup))
        if cond.certainly_true:
            return then_val
        if cond.certainly_false:
            return else_val
        sg_val = then_val.sg if cond.sg else else_val.sg
        hull = then_val.union_hull(else_val)
        return RangeValue(hull.lb, sg_val, hull.ub)

    def eval_det(self, row: Mapping[str, Scalar]) -> Scalar:
        if bool(self.condition.eval_det(row)):
            return self.then_branch.eval_det(row)
        return self.else_branch.eval_det(row)


def _type_names(*values: object) -> str:
    """The distinct type names of ``values`` (``"int"``, ``"NoneType/int"``)."""
    return "/".join(dict.fromkeys(type(value).__name__ for value in values))


def _expect_range(value: RangeValue | RangeBool) -> RangeValue:
    if isinstance(value, RangeBool):
        raise ExpressionError("expected a scalar expression, got a predicate")
    return value


def _expect_bool(value: RangeValue | RangeBool) -> RangeBool:
    if isinstance(value, RangeValue):
        raise ExpressionError("expected a predicate, got a scalar expression")
    return value


def attr(name: str) -> Attribute:
    """Shorthand constructor for :class:`Attribute`."""
    return Attribute(name)


def const(value: Scalar) -> Constant:
    """Shorthand constructor for :class:`Constant`."""
    return Constant(value)
