"""Native one-pass uncertain sort / top-k operator (Algorithm 1 and 2).

The operator processes the input ordered by the lower bounds of the order-by
attributes and maintains a min-heap (``todo``) keyed on the upper bounds.  A
tuple's window of uncertainty closes once an incoming tuple certainly follows
it; at that moment its position bounds are final and it is emitted.  Position
lower bounds accumulate the certain multiplicity of emitted tuples; position
upper bounds are obtained from a running prefix sum over the possible
multiplicity of processed tuples (the tuples that possibly precede the one
being emitted), which keeps the bounds identical to the definitional
(rewrite) semantics while doing a single pass.

For top-k queries the sweep stops as soon as every unprocessed tuple is
certainly outside the top-k; tuples whose position is still uncertain are
flushed from the heap first so that no possible answer is lost.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Sequence

from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.errors import OperatorError
from repro.ranking.positions import (
    RankedItem,
    reject_nan_order_keys,
    relation_items,
    sort_key_value,
)
from repro.ranking.semantics import split_duplicates
from repro.relational.sort import validate_k

__all__ = ["sort_native"]


def _sg_positions(
    items: list[RankedItem], order_by: Sequence[str], *, descending: bool = False
) -> dict[int, int]:
    """Selected-guess position of the first duplicate of every item.

    Computed by ordering the items on their selected-guess keys (with the
    remaining attributes and the sequence number as tiebreakers, i.e. the
    paper's ``<ᵗᵒᵗᵃˡ_O``) and accumulating selected-guess multiplicities.
    """
    if not items:
        return {}
    schema = items[0].tup.schema
    rest = [name for name in schema if name not in set(order_by)]

    def sg_total_key(item: RankedItem) -> tuple:
        rest_key = tuple(sort_key_value(item.tup.value(name).sg) for name in rest)
        return (item.key_sg, rest_key, item.seq)

    ordered = sorted(items, key=sg_total_key)
    positions: dict[int, int] = {}
    running = 0
    for item in ordered:
        positions[item.seq] = running
        running += item.mult.sg
    return positions


def sort_native(
    relation: AURelation,
    order_by: Sequence[str],
    *,
    k: int | None = None,
    position_attribute: str = "pos",
    descending: bool = False,
    backend: str = "python",
) -> AURelation:
    """One-pass uncertain sort (Algorithm 1); optionally top-k limited.

    Returns the relation extended with a range-annotated position attribute.
    With ``k`` given, tuples that are certainly not among the first ``k`` may
    be omitted (their multiplicity would be filtered to zero by the top-k
    selection anyway), which lets the sweep terminate early.

    ``backend="columnar"`` evaluates the same bounds with the NumPy-backed
    vectorized kernels of :mod:`repro.columnar` (results are bit-identical;
    the heap sweep is replaced by the batched emission schedule).  A NaN
    bound in an order-by attribute raises
    :func:`~repro.ranking.positions.nan_order_error` on both backends.
    """
    if k is not None:
        k = validate_k(k)
    if backend == "columnar":
        try:
            from repro.columnar.sort import sort_columnar  # local: NumPy optional
        except ImportError as exc:
            raise OperatorError("the columnar backend requires NumPy") from exc

        return sort_columnar(
            relation,
            order_by,
            k=k,
            position_attribute=position_attribute,
            descending=descending,
        )
    if backend != "python":
        raise OperatorError(
            f"unknown sort backend {backend!r}; expected 'python' or 'columnar'"
        )
    if not order_by:
        raise OperatorError("sort requires at least one order-by attribute")
    items = relation_items(relation, order_by, descending=descending)
    reject_nan_order_keys(items, order_by)
    return position_sweep(
        relation, items, order_by,
        k=k, position_attribute=position_attribute, descending=descending,
    )


def position_sweep(
    relation: AURelation,
    items: list[RankedItem],
    order_by: Sequence[str],
    *,
    k: int | None = None,
    position_attribute: str = "pos",
    descending: bool = False,
) -> AURelation:
    """Algorithm 1's sweep over ``relation``'s ranked ``items``, unchecked.

    :func:`sort_native` runs it once the order-by keys hold no NaN; the
    window sweep calls it directly, because windows keep their own NaN rule.
    """
    sg_positions = _sg_positions(items, order_by, descending=descending)

    items.sort(key=lambda item: item.key_lower)

    out_schema = relation.schema.extend(position_attribute)
    out = AURelation(out_schema)

    # State of the sweep.
    todo: list[tuple[tuple, int, int]] = []  # (key_upper, seq, index into `items`)
    processed_keys: list[tuple] = []  # key_lower of processed items (non-decreasing)
    prefix_possible: list[int] = [0]  # prefix sums of possible multiplicity
    rank_lower = 0  # total certain multiplicity of emitted tuples
    pos_lower_of: dict[int, int] = {}  # seq -> position lower bound

    def emit(index: int) -> None:
        nonlocal rank_lower
        item = items[index]
        lower = pos_lower_of[item.seq]
        # Possible predecessors: processed items whose lower-bound key does not
        # exceed this item's upper-bound key (ties count), minus the item itself.
        count = bisect_right(processed_keys, item.key_upper)
        upper = prefix_possible[count] - item.mult.ub
        sg = sg_positions[item.seq]
        sg = max(lower, min(sg, upper))
        base = RangeValue(lower, sg, upper)
        for position, mult in split_duplicates(base, item.mult):
            if k is not None and position.lb >= k:
                # This duplicate is certainly outside the top-k; a selection
                # on the position attribute would filter it to zero anyway.
                break
            out.add(item.tup.extend(position_attribute, position), mult)
        rank_lower += item.mult.lb

    cutoff = False
    for index, item in enumerate(items):
        # Emit every tuple that certainly precedes the incoming one.
        while todo and todo[0][0] < item.key_lower:
            _key, _seq, closed_index = heapq.heappop(todo)
            emit(closed_index)
        if k is not None and rank_lower > k:
            # Every unprocessed tuple certainly follows all emitted tuples and
            # is therefore certainly outside the top-k: stop feeding the heap.
            # Tuples still in the heap may yet be possible answers, so keep
            # accumulating the possible-multiplicity prefix (which keeps their
            # position upper bounds identical to the definitional semantics)
            # until the heap drains.
            cutoff = True
        if cutoff and not todo:
            break
        if not cutoff:
            pos_lower_of[item.seq] = rank_lower
            heapq.heappush(todo, (item.key_upper, item.seq, index))
        processed_keys.append(item.key_lower)
        prefix_possible.append(prefix_possible[-1] + item.mult.ub)

    while todo:
        _key, _seq, closed_index = heapq.heappop(todo)
        emit(closed_index)
    return out
