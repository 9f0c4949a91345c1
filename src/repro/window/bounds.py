"""Aggregation-result bounds for uncertain windows (Algorithms 4-6).

Given the tuples *certainly* in a window, the tuples *possibly* in it, and
the maximum number of rows the frame can hold, these functions compute lower
and upper bounds on the aggregate over any window that is consistent with the
bounds — the core of the windowed-aggregation semantics of Section 6.1:

* ``sum`` / ``count`` combine all certain members with the subset of possible
  members that minimises (resp. maximises) the result, limited to the number
  of free slots in the frame (``min-k`` / ``max-k`` in the paper).
* ``min`` / ``max`` use the certain members for the tight bound and all
  possible members for the loose bound.
* ``avg`` is bounded by the envelope of the member values (the delegation
  used by Algorithm 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.ranges import RangeValue
from repro.errors import OperatorError
from repro.relational.aggregates import incomparable_operands

__all__ = ["WindowMember", "aggregate_bounds", "sweeps_values"]


def _exact_sum(parts: list) -> float:
    """Order-independent sum: exact for ints, correctly rounded for floats.

    The native sweep, the rewrite, and the columnar backend collect a
    window's members in different orders; ``math.fsum`` makes the sum bounds
    independent of that order, keeping the implementations bit-identical on
    float aggregation columns.  Integer-only sums stay integers.
    """
    if any(isinstance(p, float) for p in parts):
        return math.fsum(parts)
    return sum(parts)


def sweeps_values(values: Iterable) -> bool:
    """Whether a window sweep aggregates these values: all numbers (ints, floats, bools).

    The one dispatch rule of both backends' window sweeps: the connected
    heap of :func:`~repro.window.native.window_native` orders candidates by
    negated value upper bounds, which strings and ``None`` do not have, so
    an aggregation column holding any of them goes to the definitional
    :func:`~repro.window.semantics.window_rewrite` instead.

    >>> sweeps_values([1, 2.5, True]), sweeps_values([1, "a"]), sweeps_values([None])
    (True, False, False)
    """
    return all(isinstance(value, (int, float)) for value in values)


@dataclass(frozen=True)
class WindowMember:
    """One candidate window member: bounds of the aggregation attribute value."""

    value_lb: float
    value_ub: float
    count: int = 1


def _clamped_sg(lb: float, sg: float | None, ub: float) -> float:
    if sg is None:
        sg = lb
    return max(lb, min(sg, ub))


def aggregate_bounds(
    function: str,
    *,
    self_member: WindowMember | None,
    certain: Sequence[WindowMember],
    possible: Sequence[WindowMember],
    frame_size: int,
    sg_value: float | None = None,
    certain_window_size: int = 0,
) -> RangeValue:
    """Bounds on ``function`` over any window consistent with the membership info.

    ``self_member`` is the defining tuple itself when the frame includes the
    current row (it is certainly part of its own window whenever the output
    row exists); ``certain`` are other tuples guaranteed to be in the window;
    ``possible`` are tuples that may be in it.  ``frame_size`` caps the total
    number of rows.  ``sg_value`` is the selected-guess aggregate (computed by
    the caller over the selected-guess window) and is clamped into the bounds.

    ``certain_window_size`` is a lower bound on the number of rows the window
    contains in *every* world (e.g. ``min(frame_size, position lower bound +
    1)`` for ``N PRECEDING`` frames).  When the window is certainly fuller
    than the certain members account for, some possible members must be
    present, which tightens sum and count bounds — this is what lets the
    running example's rolling sums match Fig. 1g exactly.  Member values the
    aggregate cannot order or add raise :class:`~repro.errors.OperatorError`.
    """
    try:
        return _aggregate_bounds(
            function, self_member, certain, possible, frame_size, sg_value,
            certain_window_size,
        )
    except TypeError as exc:
        members = list(certain) + list(possible) + ([self_member] if self_member else [])
        raise incomparable_operands(
            function, [v for m in members for v in (m.value_lb, m.value_ub)]
        ) from exc


def _aggregate_bounds(
    function, self_member, certain, possible, frame_size, sg_value, certain_window_size
) -> RangeValue:
    if function == "sum":
        return _sum_bounds(
            self_member, certain, possible, frame_size, sg_value, certain_window_size
        )
    if function == "count":
        return _count_bounds(
            self_member, certain, possible, frame_size, sg_value, certain_window_size
        )
    if function == "min":
        return _min_bounds(self_member, certain, possible, sg_value)
    if function == "max":
        return _max_bounds(self_member, certain, possible, sg_value)
    if function == "avg":
        return _avg_bounds(self_member, certain, possible, sg_value)
    raise OperatorError(f"unsupported window aggregate {function!r}")


def _used(self_member: WindowMember | None, certain: Sequence[WindowMember]) -> int:
    return (self_member.count if self_member else 0) + sum(m.count for m in certain)


def _slots(self_member: WindowMember | None, certain: Sequence[WindowMember], frame_size: int) -> int:
    return max(0, frame_size - _used(self_member, certain))


def _sum_bounds(
    self_member: WindowMember | None,
    certain: Sequence[WindowMember],
    possible: Sequence[WindowMember],
    frame_size: int,
    sg_value: float | None,
    certain_window_size: int,
) -> RangeValue:
    lb_parts = [self_member.value_lb * self_member.count] if self_member else []
    lb_parts.extend(m.value_lb * m.count for m in certain)
    ub_parts = [self_member.value_ub * self_member.count] if self_member else []
    ub_parts.extend(m.value_ub * m.count for m in certain)
    slots = _slots(self_member, certain, frame_size)
    # Number of possible members that are present in *every* world because the
    # window certainly holds more rows than self + certain account for.
    required = max(0, min(certain_window_size, frame_size) - _used(self_member, certain))
    required = min(required, slots)

    # Lower bound: the `required` smallest possible contributions must be in
    # the window (whatever their sign); beyond that, only negative
    # contributions can pull the sum further down, limited to the free slots.
    by_low = sorted(possible, key=lambda m: m.value_lb)
    remaining = slots
    forced = required
    for member in by_low:
        if remaining <= 0:
            break
        if forced > 0:
            take = min(member.count, remaining, forced)
            lb_parts.append(member.value_lb * take)
            remaining -= take
            forced -= take
            leftover = member.count - take
        else:
            leftover = member.count
        if leftover > 0 and member.value_lb < 0 and remaining > 0:
            take = min(leftover, remaining)
            lb_parts.append(member.value_lb * take)
            remaining -= take

    # Upper bound: symmetric — the `required` largest possible contributions
    # are present; beyond that only positive contributions can raise the sum.
    by_high = sorted(possible, key=lambda m: -m.value_ub)
    remaining = slots
    forced = required
    for member in by_high:
        if remaining <= 0:
            break
        if forced > 0:
            take = min(member.count, remaining, forced)
            ub_parts.append(member.value_ub * take)
            remaining -= take
            forced -= take
            leftover = member.count - take
        else:
            leftover = member.count
        if leftover > 0 and member.value_ub > 0 and remaining > 0:
            take = min(leftover, remaining)
            ub_parts.append(member.value_ub * take)
            remaining -= take

    lb = _exact_sum(lb_parts)
    ub = _exact_sum(ub_parts)
    return RangeValue(lb, _clamped_sg(lb, sg_value, ub), ub)


def _count_bounds(
    self_member: WindowMember | None,
    certain: Sequence[WindowMember],
    possible: Sequence[WindowMember],
    frame_size: int,
    sg_value: float | None,
    certain_window_size: int,
) -> RangeValue:
    lb = _used(self_member, certain)
    lb = max(lb, min(certain_window_size, frame_size))
    lb = min(lb, frame_size)
    ub = min(frame_size, _used(self_member, certain) + sum(m.count for m in possible))
    ub = max(ub, lb)
    return RangeValue(lb, _clamped_sg(lb, sg_value, ub), ub)


def _min_bounds(
    self_member: WindowMember | None,
    certain: Sequence[WindowMember],
    possible: Sequence[WindowMember],
    sg_value: float | None,
) -> RangeValue:
    candidates_lb = [m.value_lb for m in possible] + [m.value_lb for m in certain]
    candidates_ub = [m.value_ub for m in certain]
    if self_member:
        candidates_lb.append(self_member.value_lb)
        candidates_ub.append(self_member.value_ub)
    if not candidates_lb:
        return RangeValue.certain(None)
    lb = min(candidates_lb)
    ub = min(candidates_ub) if candidates_ub else max(m.value_ub for m in possible)
    return RangeValue(lb, _clamped_sg(lb, sg_value, ub), ub)


def _max_bounds(
    self_member: WindowMember | None,
    certain: Sequence[WindowMember],
    possible: Sequence[WindowMember],
    sg_value: float | None,
) -> RangeValue:
    candidates_ub = [m.value_ub for m in possible] + [m.value_ub for m in certain]
    candidates_lb = [m.value_lb for m in certain]
    if self_member:
        candidates_ub.append(self_member.value_ub)
        candidates_lb.append(self_member.value_lb)
    if not candidates_ub:
        return RangeValue.certain(None)
    ub = max(candidates_ub)
    lb = max(candidates_lb) if candidates_lb else min(m.value_lb for m in possible)
    return RangeValue(lb, _clamped_sg(lb, sg_value, ub), ub)


def _avg_bounds(
    self_member: WindowMember | None,
    certain: Sequence[WindowMember],
    possible: Sequence[WindowMember],
    sg_value: float | None,
) -> RangeValue:
    values_lb = [m.value_lb for m in certain] + [m.value_lb for m in possible]
    values_ub = [m.value_ub for m in certain] + [m.value_ub for m in possible]
    if self_member:
        values_lb.append(self_member.value_lb)
        values_ub.append(self_member.value_ub)
    if not values_lb:
        return RangeValue.certain(None)
    lb = min(values_lb)
    ub = max(values_ub)
    return RangeValue(lb, _clamped_sg(lb, sg_value, ub), ub)
