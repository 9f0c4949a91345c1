"""Deterministic aggregate functions shared by group-by and window operators."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.ranges import Scalar
from repro.errors import OperatorError

__all__ = ["AGGREGATES", "aggregate", "incomparable_operands", "supported_aggregates"]


def _agg_sum(values: Sequence[Scalar]) -> Scalar:
    return sum(values) if values else 0


def _agg_count(values: Sequence[Scalar]) -> int:
    return len(values)


def _agg_avg(values: Sequence[Scalar]) -> Scalar:
    if not values:
        return None
    return sum(values) / len(values)


def _agg_min(values: Sequence[Scalar]) -> Scalar:
    if not values:
        return None
    return min(values)


def _agg_max(values: Sequence[Scalar]) -> Scalar:
    if not values:
        return None
    return max(values)


AGGREGATES = {
    "sum": _agg_sum,
    "count": _agg_count,
    "avg": _agg_avg,
    "min": _agg_min,
    "max": _agg_max,
}


def supported_aggregates() -> tuple[str, ...]:
    """Names of the supported aggregate functions."""
    return tuple(sorted(AGGREGATES))


def aggregate(name: str, values: Iterable[Scalar]) -> Scalar:
    """Apply the named aggregate to a sequence of (deterministic) values.

    Values the aggregate cannot order or add (``None`` next to a string,
    ``sum`` over strings) raise :class:`~repro.errors.OperatorError`.
    """
    try:
        fn = AGGREGATES[name]
    except KeyError as exc:
        raise OperatorError(
            f"unsupported aggregate {name!r}; supported: {supported_aggregates()}"
        ) from exc
    values = list(values)
    try:
        return fn(values)
    except TypeError as exc:
        raise incomparable_operands(name, values) from exc


def incomparable_operands(name: str, values: Iterable[object]) -> OperatorError:
    """The error for an aggregate whose operand types cannot be combined."""
    types = "/".join(dict.fromkeys(type(value).__name__ for value in values))
    return OperatorError(
        f"cannot compute {name} over {types} values: the operand types are "
        "not comparable or not numeric"
    )
