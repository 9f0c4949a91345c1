"""Deterministic sort operator (Section 4.2 of the paper).

``sort_operator`` extends every row of a bag relation with an attribute
storing the row's position under the total order ``<ᵗᵒᵗᵃˡ_O``: rows are
compared on the order-by attributes first and, to break ties deterministically
(up to tuple equivalence), on the remaining attributes of the relation.
Duplicates of a row occupy consecutive positions.

Top-k is the sort operator followed by a selection on the position attribute.

``backend="columnar"`` evaluates the sort with rank-encoded NumPy columns and
``np.lexsort`` instead of a per-row Python comparator; both backends produce
identical relations.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.ranges import Scalar
from repro.core.schema import Schema
from repro.errors import OperatorError
from repro.relational.relation import Relation, Row

__all__ = [
    "sort_operator",
    "topk",
    "validate_k",
    "total_order_key",
    "make_total_order_key",
    "sort_key_value",
]


def validate_k(k: object) -> int:
    """``k`` for a top-k: a non-negative ``int`` (``bool`` rejected).

    The one check every top-k entry point runs — deterministic, uncertain,
    both backends and the columnar plans — so a bad ``k`` raises
    :class:`~repro.errors.OperatorError` everywhere instead of a bare
    ``TypeError`` from a comparison, or an empty result.
    """
    if type(k) is bool or not isinstance(k, int):
        raise OperatorError(f"top-k k must be a non-negative int, got {k!r}")
    if k < 0:
        raise OperatorError("k must be non-negative")
    return k


def sort_key_value(value: Scalar) -> tuple[int, Scalar]:
    """A sort key wrapper that orders ``None`` before every other value.

    Mixed ``None`` / scalar attribute values are common after outer-join-like
    cleaning steps; this keeps Python's tuple comparison total.  Genuinely
    incomparable mixes (e.g. ``int`` vs ``str`` in one column) cannot be
    repaired here — the sort entry points detect them and raise a clear
    :class:`~repro.errors.OperatorError` instead of surfacing an opaque
    ``TypeError`` from deep inside ``list.sort``.
    """
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    return (1, value)


def _total_order_indexes(relation_schema: Schema, order_by: Sequence[str]) -> tuple[int, ...]:
    """Column positions in ``<ᵗᵒᵗᵃˡ_O`` significance order: order-by, then rest."""
    order_idx = relation_schema.indexes_of(order_by)
    in_order = set(order_idx)
    rest_idx = tuple(i for i in range(len(relation_schema)) if i not in in_order)
    return order_idx + rest_idx


def make_total_order_key(
    relation_schema: Schema, order_by: Sequence[str]
) -> Callable[[Row], tuple]:
    """Build the ``<ᵗᵒᵗᵃˡ_O`` sort key function with indexes resolved once.

    Resolving ``indexes_of`` / the rest-attribute positions per comparison
    made the comparator ``O(schema)`` in name lookups for every row; hoisting
    it out lets ``list.sort`` call a closure over precomputed positions.
    """
    all_idx = _total_order_indexes(relation_schema, order_by)

    def key(row: Row) -> tuple:
        return tuple(sort_key_value(row[i]) for i in all_idx)

    return key


def total_order_key(relation_schema: Schema, order_by: Sequence[str], row: Row) -> tuple:
    """Sort key for ``<ᵗᵒᵗᵃˡ_O``: order-by attributes, then the remaining attributes.

    Prefer :func:`make_total_order_key` when sorting many rows — it resolves
    the attribute positions once instead of per call.
    """
    return make_total_order_key(relation_schema, order_by)(row)


def _incomparable_attributes(relation: Relation) -> list[str]:
    """Attribute names whose columns mix scalar types that ``<`` cannot compare.

    ``None`` is always comparable (ordered first by :func:`sort_key_value`)
    and ``int`` / ``float`` / ``bool`` are mutually comparable; anything else
    mixing distinct types in one column breaks the total order.
    """
    numeric = {int, float, bool}
    bad: list[str] = []
    for i, name in enumerate(relation.schema):
        classes: set[object] = set()
        for row in relation._rows:
            value = row[i]
            if value is None:
                continue
            classes.add("numeric" if type(value) in numeric else type(value).__name__)
        if len(classes) > 1:
            bad.append(name)
    return bad


def _checked_sort(rows: list[Row], relation: Relation, key, *, reverse: bool) -> None:
    """Sort in place, translating comparator ``TypeError`` into a clear error."""
    try:
        rows.sort(key=key, reverse=reverse)
    except TypeError as exc:
        bad = _incomparable_attributes(relation)
        detail = (
            f"attribute(s) {bad} mix incomparable scalar types"
            if bad
            else f"sort keys are not mutually comparable ({exc})"
        )
        raise OperatorError(
            f"cannot sort relation {relation.schema}: {detail}; "
            "clean each column to a single comparable type first"
        ) from exc


def sort_operator(
    relation: Relation,
    order_by: Sequence[str],
    *,
    position_attribute: str = "pos",
    descending: bool = False,
    backend: str = "python",
) -> Relation:
    """Extend every row with its 0-based position under ``<ᵗᵒᵗᵃˡ_O``.

    Each duplicate of a row receives its own position, so every output row has
    multiplicity 1 (unless two distinct duplicates also collide on the
    position, which cannot happen).
    """
    if not order_by:
        raise OperatorError("sort requires at least one order-by attribute")
    relation.schema.require(list(order_by))
    out_schema = relation.schema.extend(position_attribute)

    if backend == "columnar":
        return _sort_operator_columnar(relation, order_by, out_schema, descending=descending)
    if backend != "python":
        raise OperatorError(
            f"unknown sort backend {backend!r}; expected 'python' or 'columnar'"
        )

    expanded = relation.expanded_rows()
    _checked_sort(
        expanded, relation, make_total_order_key(relation.schema, order_by), reverse=descending
    )

    out = Relation(out_schema)
    for position, row in enumerate(expanded):
        out.add(row + (position,), 1)
    return out


def _sort_operator_columnar(
    relation: Relation, order_by: Sequence[str], out_schema: Schema, *, descending: bool
) -> Relation:
    """Vectorized ``<ᵗᵒᵗᵃˡ_O`` sort: rank-encode columns, ``np.lexsort``, repeat."""
    try:
        import numpy as np
    except ImportError as exc:  # pragma: no cover - environment dependent
        raise OperatorError("the columnar backend requires NumPy") from exc
    from repro.columnar.kernels import dense_rank_codes

    rows = relation.rows()
    counts = np.fromiter(
        (relation.multiplicity(row) for row in rows), dtype=np.int64, count=len(rows)
    )
    all_idx = _total_order_indexes(relation.schema, order_by)

    # np.lexsort sorts by its last key first, so feed the key columns in
    # reverse significance; negated codes reproduce ``reverse=descending``
    # (stability is irrelevant: equal total keys imply identical rows).
    keys = []
    for i in reversed(all_idx):
        codes = dense_rank_codes([row[i] for row in rows], relation.schema.attributes[i])
        keys.append(-codes if descending else codes)
    order = (
        np.lexsort(tuple(keys)) if keys else np.arange(len(rows), dtype=np.int64)
    )

    out = Relation(out_schema)
    position = 0
    for idx in order:
        row = rows[idx]
        for _ in range(int(counts[idx])):
            out.add(row + (position,), 1)
            position += 1
    return out


def topk(
    relation: Relation,
    order_by: Sequence[str],
    k: int,
    *,
    descending: bool = False,
    keep_position: bool = False,
    position_attribute: str = "pos",
    backend: str = "python",
) -> Relation:
    """Deterministic top-k: sort, keep positions < k, optionally drop the position."""
    k = validate_k(k)
    sorted_relation = sort_operator(
        relation,
        order_by,
        position_attribute=position_attribute,
        descending=descending,
        backend=backend,
    )
    pos_idx = sorted_relation.schema.index_of(position_attribute)
    out_schema = sorted_relation.schema if keep_position else relation.schema
    out = Relation(out_schema)
    for row, mult in sorted_relation:
        if row[pos_idx] < k:
            out.add(row if keep_position else row[:pos_idx] + row[pos_idx + 1:], mult)
    return out
