"""Definitional ("rewrite") uncertain sort operator over AU-DBs (Section 5).

``sort_rewrite`` implements Definition 2 directly: every input tuple is split
into its possible duplicates, each extended with a range-annotated position
attribute computed from Equations 1-3 by comparing it against every other
tuple.  This mirrors the SQL rewrite evaluated as ``Rewr`` in the paper and
runs in quadratic time; :func:`repro.ranking.native.sort_native` computes the
same bounds with the one-pass sweep of Algorithm 1.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.multiplicity import Multiplicity, duplicate_annotation
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.errors import OperatorError
from repro.ranking.positions import (
    RankedItem,
    reject_nan_order_keys,
    relation_items,
    sg_before,
)

__all__ = ["sort_rewrite", "split_duplicates"]


def split_duplicates(
    base_position: RangeValue, mult: Multiplicity
) -> list[tuple[RangeValue, Multiplicity]]:
    """Split a tuple with multiplicity bounds into per-duplicate positions.

    Implements the case split of Fig. 4 / Algorithm 2: the ``i``-th duplicate
    is certain for ``i < lb``, selected-guess-only for ``lb <= i < sg``, and
    merely possible for ``sg <= i < ub``.  Every duplicate's position is the
    base position shifted by ``i``.
    """
    out: list[tuple[RangeValue, Multiplicity]] = []
    for i in range(mult.ub):
        position = RangeValue(base_position.lb + i, base_position.sg + i, base_position.ub + i)
        out.append((position, duplicate_annotation(i, mult.lb, mult.sg)))
    return out


def _base_positions(
    items: list[RankedItem], order_by: Sequence[str], *, descending: bool = False
) -> list[RangeValue]:
    """Position bounds of the first duplicate of every item (quadratic pass)."""
    positions: list[RangeValue] = []
    for item in items:
        lower = 0
        sg = 0
        upper = 0
        for other in items:
            if other.seq == item.seq:
                continue
            if other.key_upper < item.key_lower:
                lower += other.mult.lb
            if other.key_lower <= item.key_upper:
                upper += other.mult.ub
            if sg_before(
                other.tup,
                item.tup,
                order_by,
                descending=descending,
                first_seq=other.seq,
                second_seq=item.seq,
            ):
                sg += other.mult.sg
        sg = max(lower, min(sg, upper))
        positions.append(RangeValue(lower, sg, upper))
    return positions


def sort_rewrite(
    relation: AURelation,
    order_by: Sequence[str],
    *,
    position_attribute: str = "pos",
    descending: bool = False,
) -> AURelation:
    """Uncertain sort: extend every (split) tuple with its position bounds."""
    if not order_by:
        raise OperatorError("sort requires at least one order-by attribute")
    items = relation_items(relation, order_by, descending=descending)
    reject_nan_order_keys(items, order_by)
    positions = _base_positions(items, order_by, descending=descending)

    out_schema = relation.schema.extend(position_attribute)
    out = AURelation(out_schema)
    for item, base in zip(items, positions):
        for position, mult in split_duplicates(base, item.mult):
            out.add(item.tup.extend(position_attribute, position), mult)
    return out
