"""Sort-position bounds for AU-DB tuples (Section 5, Equations 1-3).

Uncertainty in the order-by attributes and in tuple multiplicities makes a
tuple's sort position uncertain.  The position of (the first duplicate of) a
tuple ``t`` is bounded by

* **lower bound** — the total certain multiplicity of tuples that *certainly*
  precede ``t`` in every bounded world,
* **selected guess** — the position in the selected-guess world, and
* **upper bound** — the total possible multiplicity of tuples that *possibly*
  precede ``t`` (including possible ties, which a tiebreaker could resolve
  either way).

Tuple comparisons use the interval-lexicographic order over the order-by
attributes: ``t`` certainly precedes ``t'`` when ``t``'s vector of "latest"
attribute bounds is lexicographically smaller than ``t'``'s vector of
"earliest" bounds, and possibly precedes it when its earliest vector is not
lexicographically greater than ``t'``'s latest vector.  This is tight under
attribute independence and reproduces the paper's worked examples.

Descending sort orders are supported by wrapping key components in
:class:`Desc`, which inverts comparisons; under a descending order the
"earliest" bound of a range is its upper end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Any, Sequence

from repro.core.multiplicity import Multiplicity
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.core.tuples import AUTuple
from repro.errors import OperatorError
from repro.relational.sort import sort_key_value

__all__ = [
    "Desc",
    "order_key_earliest",
    "order_key_sg",
    "order_key_latest",
    "certainly_before",
    "possibly_before",
    "sg_before",
    "position_bounds",
    "RankedItem",
    "relation_items",
    "nan_order_error",
    "reject_nan_order_keys",
]


@total_ordering
class Desc:
    """Wrapper inverting the comparison order of a key component."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Desc) and self.value == other.value

    def __lt__(self, other: "Desc") -> bool:
        return other.value < self.value

    def __hash__(self) -> int:
        return hash(("desc", self.value))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Desc({self.value!r})"


def _component(value: Any, descending: bool) -> Any:
    key = sort_key_value(value)
    return Desc(key) if descending else key


def order_key_earliest(tup: AUTuple, order_by: Sequence[str], *, descending: bool = False) -> tuple:
    """The earliest (smallest wrt the sort order) key the tuple can take."""
    if descending:
        return tuple(_component(tup.value(name).ub, True) for name in order_by)
    return tuple(_component(tup.value(name).lb, False) for name in order_by)


def order_key_latest(tup: AUTuple, order_by: Sequence[str], *, descending: bool = False) -> tuple:
    """The latest (largest wrt the sort order) key the tuple can take."""
    if descending:
        return tuple(_component(tup.value(name).lb, True) for name in order_by)
    return tuple(_component(tup.value(name).ub, False) for name in order_by)


def order_key_sg(tup: AUTuple, order_by: Sequence[str], *, descending: bool = False) -> tuple:
    """The selected-guess sort key of the tuple."""
    return tuple(_component(tup.value(name).sg, descending) for name in order_by)


def certainly_before(
    first: AUTuple, second: AUTuple, order_by: Sequence[str], *, descending: bool = False
) -> bool:
    """``first`` precedes ``second`` under ``<_O`` in every bounded world."""
    return order_key_latest(first, order_by, descending=descending) < order_key_earliest(
        second, order_by, descending=descending
    )


def possibly_before(
    first: AUTuple, second: AUTuple, order_by: Sequence[str], *, descending: bool = False
) -> bool:
    """``first`` may precede ``second`` in some bounded world (ties included)."""
    return order_key_earliest(first, order_by, descending=descending) <= order_key_latest(
        second, order_by, descending=descending
    )


def sg_before(
    first: AUTuple,
    second: AUTuple,
    order_by: Sequence[str],
    *,
    descending: bool = False,
    first_seq: int = 0,
    second_seq: int = 0,
) -> bool:
    """``first`` precedes ``second`` in the selected-guess world.

    Ties on the order-by attributes are broken by the remaining attributes
    (the paper's ``<ᵗᵒᵗᵃˡ_O``) and finally by the supplied sequence numbers so
    that the selected-guess positions form a proper permutation.
    """
    key_first = order_key_sg(first, order_by, descending=descending)
    key_second = order_key_sg(second, order_by, descending=descending)
    if key_first != key_second:
        return key_first < key_second
    rest = [name for name in first.schema if name not in set(order_by)]
    rest_first = tuple(sort_key_value(first.value(name).sg) for name in rest)
    rest_second = tuple(sort_key_value(second.value(name).sg) for name in rest)
    if rest_first != rest_second:
        return rest_first < rest_second
    return first_seq < second_seq


@dataclass
class RankedItem:
    """A tuple of the input relation together with cached sort keys.

    ``seq`` is a per-relation sequence number used as the final tiebreaker for
    the selected-guess order.
    """

    tup: AUTuple
    mult: Multiplicity
    seq: int
    key_lower: tuple  # earliest possible sort key
    key_sg: tuple
    key_upper: tuple  # latest possible sort key


def relation_items(
    relation: AURelation, order_by: Sequence[str], *, descending: bool = False
) -> list[RankedItem]:
    """Materialise the relation as :class:`RankedItem` objects with cached keys."""
    relation.schema.require(list(order_by))
    items: list[RankedItem] = []
    for seq, (tup, mult) in enumerate(relation):
        items.append(
            RankedItem(
                tup=tup,
                mult=mult,
                seq=seq,
                key_lower=order_key_earliest(tup, order_by, descending=descending),
                key_sg=order_key_sg(tup, order_by, descending=descending),
                key_upper=order_key_latest(tup, order_by, descending=descending),
            )
        )
    return items


def nan_order_error(attribute: str) -> OperatorError:
    """The error every uncertain sort raises for a NaN bound in ``attribute``.

    NaN compares false with every value, so no order places it and a row
    holding one has no position bounds: the python sweeps and the columnar
    rank codes would each resolve the broken comparisons their own way.  The
    python sorts (:func:`reject_nan_order_keys`) and the columnar
    :func:`repro.columnar.sort.sort_stage` raise this one error instead.
    Windows keep their own rule: a NaN relation runs the native window sweep.
    """
    return OperatorError(
        f"cannot order by attribute {attribute!r}: it holds a NaN bound, which "
        "no sort order can place; filter or replace the NaN values first"
    )


def reject_nan_order_keys(items: Sequence[RankedItem], order_by: Sequence[str]) -> None:
    """Raise :func:`nan_order_error` for the first order-by attribute with a NaN bound."""
    if not items:
        return
    schema = items[0].tup.schema
    for name in order_by:
        index = schema.index_of(name)
        for item in items:
            value = item.tup.values[index]
            if value.lb != value.lb or value.sg != value.sg or value.ub != value.ub:
                raise nan_order_error(name)


def position_bounds(
    relation: AURelation,
    order_by: Sequence[str],
    tup: AUTuple,
    duplicate: int = 0,
    *,
    descending: bool = False,
) -> RangeValue:
    """Position bounds of the ``duplicate``-th copy of ``tup`` (Equations 1-3).

    This is the quadratic, definitional computation used by the rewrite-based
    implementation; the native operator of :mod:`repro.ranking.native`
    computes the same bounds in a single sweep.
    """
    items = relation_items(relation, order_by, descending=descending)
    tup_seq = None
    for item in items:
        if item.tup.values == tup.values:
            tup_seq = item.seq
            break
    target = AUTuple(relation.schema, tup.values)
    target_key_lower = order_key_earliest(target, order_by, descending=descending)
    target_key_upper = order_key_latest(target, order_by, descending=descending)

    lower = 0
    sg = 0
    upper = 0
    for item in items:
        if item.tup.values == tup.values:
            continue
        if item.key_upper < target_key_lower:
            lower += item.mult.lb
        if item.key_lower <= target_key_upper:
            upper += item.mult.ub
        if sg_before(
            item.tup,
            target,
            order_by,
            descending=descending,
            first_seq=item.seq,
            second_seq=tup_seq if tup_seq is not None else len(items),
        ):
            sg += item.mult.sg
    lower += duplicate
    sg += duplicate
    upper += duplicate
    sg = max(lower, min(sg, upper))
    return RangeValue(lower, sg, upper)
