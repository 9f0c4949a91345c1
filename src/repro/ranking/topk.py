"""Uncertain top-k queries over AU-DBs.

A top-k query is the uncertain sort operator followed by a selection on the
position attribute (Section 5): a tuple whose position is certainly below
``k`` is a certain answer, a tuple whose position is only possibly below
``k`` is a possible answer, and tuples whose position is certainly at least
``k`` are filtered out.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.expressions import attr
from repro.core.operators.select import select
from repro.core.relation import AURelation
from repro.errors import OperatorError
from repro.ranking.native import sort_native
from repro.ranking.semantics import sort_rewrite
from repro.relational.sort import validate_k

__all__ = ["topk", "sort"]


def sort(
    relation: AURelation,
    order_by: Sequence[str],
    *,
    method: str = "native",
    position_attribute: str = "pos",
    k: int | None = None,
    descending: bool = False,
    backend: str = "python",
) -> AURelation:
    """Uncertain sort using either the native sweep or the rewrite semantics.

    ``backend="columnar"`` routes to the NumPy-backed vectorized kernels of
    :mod:`repro.columnar` (bit-identical bounds for both methods — the
    columnar kernels evaluate the definitional Equations 1-3 directly, which
    the native sweep reproduces).
    """
    if method not in ("native", "rewrite"):
        raise OperatorError(f"unknown sort method {method!r}; expected 'native' or 'rewrite'")
    if method == "rewrite" and backend == "python":
        return sort_rewrite(
            relation, order_by, position_attribute=position_attribute, descending=descending
        )
    # sort_native owns the backend dispatch (including the NumPy gate); the
    # columnar kernels evaluate the definitional equations directly, so the
    # rewrite method on the columnar backend is the unpruned columnar sort.
    return sort_native(
        relation,
        order_by,
        k=k if method == "native" else None,
        position_attribute=position_attribute,
        descending=descending,
        backend=backend,
    )


def topk(
    relation: AURelation,
    order_by: Sequence[str],
    k: int,
    *,
    method: str = "native",
    position_attribute: str = "pos",
    keep_position: bool = True,
    descending: bool = False,
    backend: str = "python",
) -> AURelation:
    """Uncertain top-k: tuples possibly among the first ``k`` in the sort order.

    The result's multiplicity triples encode answer classes: a lower bound of
    one marks a *certain* answer, an upper bound of one with a lower bound of
    zero marks a merely *possible* answer.  ``backend="columnar"`` computes
    the underlying sort with the vectorized kernels of :mod:`repro.columnar`.
    """
    k = validate_k(k)
    ranked = sort(
        relation,
        order_by,
        method=method,
        position_attribute=position_attribute,
        k=k if method == "native" else None,
        descending=descending,
        backend=backend,
    )
    filtered = select(ranked, attr(position_attribute).lt(k))
    if keep_position:
        return filtered
    from repro.core.operators.project import project  # local import to avoid cycle

    return project(filtered, list(relation.schema.attributes))
