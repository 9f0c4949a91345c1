"""Uncertain sort / top-k over the columnar backend.

:func:`sort_stage` computes the same range-annotated position attribute as
:func:`repro.ranking.native.sort_native` and
:func:`repro.ranking.semantics.sort_rewrite` — the three implementations are
bound-identical (enforced by the differential property suite) — but evaluates
the position bounds with the vectorized kernels of
:mod:`repro.columnar.kernels` instead of a per-tuple heap sweep, and emits a
:class:`~repro.columnar.relation.ColumnarAURelation`: the position column is
appended columnar-side and the Fig. 4 per-duplicate split expands the aligned
``lb`` / ``sg`` / ``ub`` arrays in bulk, so a :class:`~repro.columnar.plan.ColumnarPlan`
can keep chaining stages past a sort without materialising rows.

:func:`sort_columnar` is the thin row-major adapter the
``backend="columnar"`` entry points dispatch to (bit-identical to the Python
backend, as before).

>>> from repro.core.relation import AURelation
>>> audb = AURelation.from_rows(["a"], [((3,), 1), ((1,), 2)])
>>> for tup, mult in sort_columnar(audb, ["a"]):
...     print(tup.value("a"), tup.value("pos"), mult)
1 0 (1,1,1)
1 1 (1,1,1)
3 2 (1,1,1)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.columnar.kernels import (
    duplicate_offsets,
    sort_position_bounds_ranked,
    topk_candidates,
)
from repro.columnar.operators import _components_carry_nan
from repro.columnar.relation import AttributeColumn, ColumnarAURelation, as_columnar
from repro.core.relation import AURelation
from repro.errors import OperatorError
from repro.ranking.positions import nan_order_error
from repro.relational.sort import validate_k

__all__ = ["sort_stage", "sort_columnar"]


def sort_stage(
    relation: AURelation | ColumnarAURelation,
    order_by: Sequence[str],
    *,
    k: int | None = None,
    position_attribute: str = "pos",
    descending: bool = False,
    strict_tiebreak: str | None = None,
) -> ColumnarAURelation:
    """Uncertain sort emitting a columnar relation (non-terminal plan stage).

    Accepts either relation layout (row-major inputs are converted).  With
    ``k`` given, duplicates whose position is certainly not among the first
    ``k`` are pruned — exactly the duplicates a top-k selection on the
    position attribute would filter to zero, so top-k results agree with the
    Python backend bit for bit.  The kernels then rank only the rows
    :func:`~repro.columnar.kernels.topk_candidates` keeps (Algorithm 1's
    early stop): rows that can hold a top-``k`` duplicate, and the rows
    their bounds read.

    The result is the columnar twin of ``sort_native``'s output, *including
    row order*: rows are emitted in the native sweep's emission order —
    latest key vector, then input sequence, then duplicate offset (the order
    the Python backend's insertion-ordered dictionary ends up in) — so
    chained plans feed the next stage the same ``<ᵗᵒᵗᵃˡ_O`` sequence-number
    tiebreakers as the row-major path.

    ``strict_tiebreak`` names a non-order-by attribute whose selected-guess
    values are a strict total order (no duplicates); when given, it becomes
    the sole ``<ᵗᵒᵗᵃˡ_O`` tiebreak key, skipping the rank-coding of the
    remaining columns (the factorised layer's pre-ranked slim relations use
    this).

    A NaN bound in an order-by attribute raises
    :func:`~repro.ranking.positions.nan_order_error`, as the Python sorts do.
    """
    if not order_by:
        raise OperatorError("sort requires at least one order-by attribute")
    columnar = as_columnar(relation)
    columnar.schema.require(list(order_by))
    for name in order_by:
        if _components_carry_nan(columnar.column(name)):
            raise nan_order_error(name)
    columnar.schema.extend(position_attribute)  # validates the name early
    if k is not None:
        k = validate_k(k)
        candidates = topk_candidates(
            columnar.column(order_by[0]), columnar.mult_lb, k, descending=descending
        )
        if candidates is not None:
            columnar = columnar.take(candidates)

    lower, sg, upper, latest_rank = sort_position_bounds_ranked(
        columnar,
        order_by,
        descending=descending,
        strict_tiebreak=strict_tiebreak,
    )

    # The native sweep emits a tuple once an incoming tuple certainly follows
    # it: emission order is its latest key vector, ties broken by the input
    # sequence number.
    emit = np.argsort(latest_rank, kind="stable")  # stable: input order breaks ties

    # Fig. 4 / Algorithm 2 split: the j-th duplicate shifts the base position
    # by j and is certain / selected-guess-only / merely possible depending on
    # where j falls in the multiplicity triple.
    row, offset = duplicate_offsets(columnar.mult_ub[emit])
    source = emit[row]
    pos_lb = lower[source] + offset
    pos_sg = sg[source] + offset
    pos_ub = upper[source] + offset
    if k is not None:
        keep = pos_lb < k
        source, offset = source[keep], offset[keep]
        pos_lb, pos_sg, pos_ub = pos_lb[keep], pos_sg[keep], pos_ub[keep]

    # One gather, of the kept duplicates only.  Every output hypercube is
    # distinct by construction — the columnar layout holds one row per
    # *distinct* range tuple, and duplicates of one row occupy distinct
    # positions — so the merge-on-collision semantics of AURelation.add
    # cannot fire and no duplicate merge is needed.
    expanded = columnar.take(source)
    return expanded.with_multiplicities(
        (offset < expanded.mult_lb).astype(np.int64),
        (offset < expanded.mult_sg).astype(np.int64),
        np.ones(len(source), dtype=np.int64),
    ).with_column(AttributeColumn(position_attribute, pos_lb, pos_sg, pos_ub))


def sort_columnar(
    relation: AURelation | ColumnarAURelation,
    order_by: Sequence[str],
    *,
    k: int | None = None,
    position_attribute: str = "pos",
    descending: bool = False,
) -> AURelation:
    """Row-major adapter over :func:`sort_stage` (the plan boundary).

    This is what ``backend="columnar"`` on the sort / top-k entry points
    dispatches to; results are bit-identical to the Python backend.
    """
    return sort_stage(
        relation,
        order_by,
        k=k,
        position_attribute=position_attribute,
        descending=descending,
    ).to_relation()
