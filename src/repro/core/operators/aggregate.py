"""Group-by aggregation over AU-DB relations.

This implements the bound-preserving aggregation semantics of [24] in the
simplified form the paper's evaluation relies on (pre-aggregation before
ranking, e.g. ``GROUP BY date`` / ``COUNT(*)``):

* Output groups are formed on the *selected-guess* values of the group-by
  attributes.
* A tuple contributes **certainly** to a group when its group-by attributes
  are certain and equal to the group key and it certainly exists; it
  contributes **possibly** when its group-by ranges contain the key.
* Aggregation-result bounds fold in every possible contributor; the
  selected-guess result is the deterministic aggregate over the selected-guess
  world.
* The group-by attributes of an output tuple are widened to the hull of all
  possible contributors so that worlds whose group value deviates from the
  selected guess can still be matched.

When the group-by attributes are certain (the common case in the paper's
workloads) this semantics is bound preserving in the exact sense of
Section 3.2; with uncertain group-by attributes it produces sound value
ranges for the selected-guess groups but, like [24], approximates the set of
output groups.

The per-group bound arithmetic lives in :func:`count_bounds` /
:func:`value_aggregate_bounds` so that the columnar backend's scalar
fallback (:mod:`repro.columnar.operators`) folds contributions through
*exactly* the same code path as the tuple-at-a-time reference — the two
backends cannot drift apart on edge-case scalar semantics.

Example (uncertain group membership widens the ``g`` output range):

>>> from repro.core.ranges import RangeValue
>>> from repro.core.relation import AURelation
>>> sales = AURelation.from_rows(
...     ["g", "v"],
...     [((0, 10), 1), ((RangeValue(0, 1, 1), 20), 1), ((1, 5), 1)],
... )
>>> result = groupby_aggregate(sales, ["g"], [("sum", "v", "total"), ("count", "*", "n")])
>>> for tup, mult in result:
...     print(tup.value("g"), tup.value("total"), tup.value("n"), mult)
[0/0/1] [10.0/10/30.0] [1/1/2] (1,1,1)
[0/1/1] [5.0/25/25.0] [1/2/2] (1,1,1)
"""

from __future__ import annotations

from typing import Sequence

from repro.core.multiplicity import Multiplicity
from repro.core.operators._dispatch import (
    as_columnar_input,
    columnar_operators,
    require_known_backend,
)
from repro.core.ranges import RangeValue, Scalar
from repro.core.relation import AURelation
from repro.core.schema import Schema
from repro.core.tuples import AUTuple
from repro.errors import OperatorError
from repro.relational.aggregates import incomparable_operands

__all__ = [
    "groupby_aggregate",
    "validate_aggregate_spec",
    "count_bounds",
    "value_aggregate_bounds",
]

_SUPPORTED = ("sum", "count", "min", "max", "avg")


def validate_aggregate_spec(
    schema: Schema,
    group_by: Sequence[str],
    aggregates: Sequence[tuple[str, str | None, str]],
) -> None:
    """Shared argument validation for both backends (same errors, same order)."""
    schema.require(list(group_by))
    for func, attribute, _name in aggregates:
        if func not in _SUPPORTED:
            raise OperatorError(f"unsupported aggregate {func!r}; supported: {_SUPPORTED}")
        if func != "count" and (attribute is None or attribute == "*"):
            raise OperatorError(f"aggregate {func!r} requires an attribute")
        if attribute is not None and attribute != "*":
            schema.require([attribute])


def groupby_aggregate(
    relation: AURelation,
    group_by: Sequence[str],
    aggregates: Sequence[tuple[str, str | None, str]],
    *,
    backend: str = "python",
) -> AURelation:
    """Group-by aggregation with range-bounded results.

    ``aggregates`` is a list of ``(function, attribute, output_name)``;
    ``count`` may use ``"*"`` / ``None`` as its attribute.  Supported
    functions: ``sum``, ``count``, ``min``, ``max``, ``avg``.

    ``backend="columnar"`` groups through lexicographically dense group codes
    and evaluates the bounds with segmented NumPy reductions (bit-identical
    results; accepts either relation layout).  Callers composing several
    columnar operators should chain
    :meth:`repro.columnar.plan.ColumnarPlan.groupby_aggregate` instead, which
    skips the per-call row-major round trip.

    >>> from repro.core.relation import AURelation
    >>> r = AURelation.from_rows(["g", "v"], [((1, 10), 1), ((1, 5), 1), ((2, 7), 1)])
    >>> for tup, _m in groupby_aggregate(r, ["g"], [("min", "v", "lo")]):
    ...     print(tup.value("g"), tup.value("lo"))
    1 5
    2 7
    """
    require_known_backend(backend)
    if backend == "columnar":
        kernels = columnar_operators()
        return kernels.groupby_aggregate(
            as_columnar_input(relation), group_by, aggregates
        ).to_relation()
    validate_aggregate_spec(relation.schema, group_by, aggregates)

    out_schema = Schema(tuple(group_by) + tuple(name for _f, _a, name in aggregates))

    # Collect output group keys from the selected-guess values.
    members: dict[tuple[Scalar, ...], list[tuple[AUTuple, Multiplicity]]] = {}
    for tup, mult in relation:
        key = tuple(tup.value(name).sg for name in group_by)
        members.setdefault(key, []).append((tup, mult))
    if not group_by and not members:
        members[()] = []

    all_rows = list(relation)
    out = AURelation(out_schema)
    for key, sg_members in members.items():
        certain, possible = _classify(all_rows, group_by, key)
        group_values = _group_value_ranges(group_by, key, possible, relation)
        certain_keys = {id(tup) for tup, _m in certain}
        agg_values: list[RangeValue] = []
        for func, attribute, _name in aggregates:
            if func == "count":
                agg_values.append(
                    count_bounds(
                        [mult for _t, mult in certain],
                        [mult for _t, mult in possible],
                        [mult for _t, mult in sg_members],
                    )
                )
            else:
                assert attribute is not None
                agg_values.append(
                    value_aggregate_bounds(
                        func,
                        [
                            (tup.value(attribute), mult, id(tup) in certain_keys)
                            for tup, mult in possible
                        ],
                        [(tup.value(attribute), mult) for tup, mult in sg_members],
                    )
                )
        mult = _group_multiplicity(certain, sg_members)
        out.add(AUTuple(out_schema, tuple(group_values) + tuple(agg_values)), mult)
    return out


# ---------------------------------------------------------------------------
# membership classification
# ---------------------------------------------------------------------------


def _classify(
    rows: list[tuple[AUTuple, Multiplicity]],
    group_by: Sequence[str],
    key: tuple[Scalar, ...],
) -> tuple[list[tuple[AUTuple, Multiplicity]], list[tuple[AUTuple, Multiplicity]]]:
    """Split tuples into (certainly-in-group, possibly-in-group) members."""
    certain: list[tuple[AUTuple, Multiplicity]] = []
    possible: list[tuple[AUTuple, Multiplicity]] = []
    for tup, mult in rows:
        if not mult.possibly_exists:
            continue
        contains = all(tup.value(name).contains(value) for name, value in zip(group_by, key))
        if not contains:
            continue
        possible.append((tup, mult))
        exact = all(
            tup.value(name).is_certain and tup.value(name).sg == value
            for name, value in zip(group_by, key)
        )
        if exact and mult.certainly_exists:
            certain.append((tup, mult))
    return certain, possible


def _group_value_ranges(
    group_by: Sequence[str],
    key: tuple[Scalar, ...],
    possible: list[tuple[AUTuple, Multiplicity]],
    relation: AURelation,
) -> list[RangeValue]:
    values: list[RangeValue] = []
    for name, sg_value in zip(group_by, key):
        hull: RangeValue | None = None
        for tup, _mult in possible:
            candidate = tup.value(name)
            hull = candidate if hull is None else hull.union_hull(candidate)
        if hull is None:
            hull = RangeValue.certain(sg_value)
        values.append(RangeValue(hull.lb, sg_value, hull.ub))
    return values


def _group_multiplicity(
    certain: list[tuple[AUTuple, Multiplicity]],
    sg_members: list[tuple[AUTuple, Multiplicity]],
) -> Multiplicity:
    lb = 1 if any(mult.certainly_exists for _t, mult in certain) else 0
    sg = 1 if any(mult.sg > 0 for _t, mult in sg_members) else 0
    sg = max(lb, sg)
    return Multiplicity(lb, sg, 1)


# ---------------------------------------------------------------------------
# aggregate bounds (shared with the columnar backend's scalar fallback)
# ---------------------------------------------------------------------------


def _min_product(value: float, low: int, high: int) -> float:
    return value * (low if value >= 0 else high)


def _max_product(value: float, low: int, high: int) -> float:
    return value * (high if value >= 0 else low)


def count_bounds(
    certain_mults: Sequence[Multiplicity],
    possible_mults: Sequence[Multiplicity],
    sg_mults: Sequence[Multiplicity],
) -> RangeValue:
    """``count(*)`` bounds of one group from its member multiplicities.

    ``certain_mults`` / ``possible_mults`` are the annotations of the
    certainly- / possibly-in-group members, ``sg_mults`` those of the
    selected-guess members (tuples whose selected-guess key equals the
    group key).
    """
    lb = sum(mult.lb for mult in certain_mults)
    ub = sum(mult.ub for mult in possible_mults)
    sg = sum(mult.sg for mult in sg_mults)
    return _make_range(lb, sg, ub)


def value_aggregate_bounds(
    func: str,
    possible: Sequence[tuple[RangeValue, Multiplicity, bool]],
    sg_members: Sequence[tuple[RangeValue, Multiplicity]],
) -> RangeValue:
    """Value-aggregate (``sum``/``min``/``max``/``avg``) bounds of one group.

    ``possible`` holds ``(value, multiplicity, certainly_in_group)`` per
    possibly-in-group member, in first-occurrence order (float accumulation
    order is part of the pinned semantics); ``sg_members`` holds
    ``(value, multiplicity)`` per selected-guess member.  The columnar
    backend's scalar fallback calls this directly so both backends share one
    implementation of the bound arithmetic.  Member values the aggregate
    cannot order or add raise :class:`~repro.errors.OperatorError`.
    """
    try:
        return _value_aggregate_bounds(func, possible, sg_members)
    except TypeError as exc:
        values = [value for value, *_rest in possible] + [value for value, _m in sg_members]
        raise incomparable_operands(
            func, [c for value in values for c in (value.lb, value.sg, value.ub)]
        ) from exc


def _value_aggregate_bounds(func, possible, sg_members) -> RangeValue:
    if func == "sum":
        lb = 0.0
        ub = 0.0
        for value, mult, certainly in possible:
            if certainly:
                lb += _min_product(value.lb, mult.lb, mult.ub)
                ub += _max_product(value.ub, mult.lb, mult.ub)
            else:
                lb += min(0.0, _min_product(value.lb, 0, mult.ub))
                ub += max(0.0, _max_product(value.ub, 0, mult.ub))
        sg = sum(value.sg * mult.sg for value, mult in sg_members)
        return _make_range(lb, sg, ub)

    if func in ("min", "max", "avg"):
        poss_lbs = [value.lb for value, _m, _c in possible]
        poss_ubs = [value.ub for value, _m, _c in possible]
        cert_lbs = [value.lb for value, _m, certainly in possible if certainly]
        cert_ubs = [value.ub for value, _m, certainly in possible if certainly]
        sg_values = [value.sg for value, mult in sg_members if mult.sg > 0]
        if not poss_lbs:
            return RangeValue.certain(None)
        if func == "min":
            lb = min(poss_lbs)
            ub = min(cert_ubs) if cert_ubs else max(poss_ubs)
            sg = min(sg_values) if sg_values else None
        elif func == "max":
            ub = max(poss_ubs)
            lb = max(cert_lbs) if cert_lbs else min(poss_lbs)
            sg = max(sg_values) if sg_values else None
        else:  # avg
            lb = min(poss_lbs)
            ub = max(poss_ubs)
            sg = (sum(sg_values) / len(sg_values)) if sg_values else None
        if sg is None:
            sg = lb
        return _make_range(lb, sg, ub)

    raise OperatorError(f"unsupported aggregate {func!r}")


def _make_range(lb: Scalar, sg: Scalar, ub: Scalar) -> RangeValue:
    """Build a range, clamping the selected guess into the bounds."""
    if sg is None:
        sg = lb
    if lb is not None and sg is not None and sg < lb:
        sg = lb
    if ub is not None and sg is not None and sg > ub:
        sg = ub
    return RangeValue(lb, sg, ub)
