"""Vectorized bound-preserving ``RA⁺`` operators over columnar AU-relations.

These kernels mirror :mod:`repro.core.operators` (the AU-DB selection /
projection / join semantics of Fig. 2 lifted through the ``N³`` semiring) but
take and return :class:`~repro.columnar.relation.ColumnarAURelation`, so a
whole operator pipeline composes without materialising a row-major
:class:`~repro.core.relation.AURelation` between stages:

* :func:`select` — predicate bounding triples evaluated as boolean masks
  (:mod:`repro.columnar.expressions`), multiplicities filtered per component,
* :func:`project` / :func:`union` — bag semantics with hash-grouped duplicate
  merging (lexicographic dense codes + ``np.unique``),
* :func:`distinct` — bound-preserving duplicate elimination (blocked pairwise
  overlap masks decide which tuples may keep a certain copy),
* :func:`extend` / :func:`rename` — computed / relabelled columns,
* :func:`cross` / :func:`join` — pair enumeration via the bulk ``np.repeat``
  × ``np.tile`` grid, or — for equi-joins whose keys are certain on one side
  — a memory-safe sort/searchsorted path that materialises only the
  possible-overlap match candidates, with vectorized equality / predicate
  masks filtering the pointwise multiplicity products,
* :func:`groupby_aggregate` — grouped aggregation over lexsort group codes
  with segmented prefix-sum / min-max reductions and bound-preserving
  ``N³`` handling of uncertain group membership.

Every kernel is bit-identical to the Python backend: converting the result
with :meth:`~repro.columnar.relation.ColumnarAURelation.to_relation` yields
exactly the relation the tuple-at-a-time operator produces — same hypercubes,
annotations, and first-occurrence merge order (the differential property
suite under ``tests/property/`` pins this on randomized inputs).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.columnar.expressions import predicate_masks, range_columns
from repro.columnar.kernels import lexsort_stable
from repro.columnar.relation import (
    FLOAT64_EXACT_MAX,
    AttributeColumn,
    ColumnarAURelation,
    column_array,
    profile_components,
)
from repro.core.booleans import RangeBool
from repro.core.expressions import (
    Arithmetic,
    Attribute,
    BooleanOp,
    Comparison,
    Constant,
    Expression,
)
from repro.core.ranges import RangeValue
from repro.core.schema import Schema
from repro.core.tuples import AUTuple
from repro.errors import OperatorError, SchemaError

__all__ = [
    "select",
    "project",
    "extend",
    "rename",
    "union",
    "distinct",
    "cross",
    "join",
    "groupby_aggregate",
    "merge_equal_rows",
    "candidate_key_pairs",
    "searchsorted_candidate_pairs",
    "band_join_plan",
    "band_candidate_pairs",
    "planned_join_kernel",
]


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def select(
    relation: ColumnarAURelation,
    predicate: Expression | Callable[[AUTuple], RangeBool],
) -> ColumnarAURelation:
    """Keep rows according to the bounding triple of ``predicate``.

    The certain multiplicity survives only where the predicate is certainly
    true, the possible multiplicity where it is possibly true, and the
    selected-guess multiplicity where it holds in the selected-guess world —
    the same per-component filtering as :meth:`Multiplicity.filter`.
    """
    certain, sg, possible = predicate_masks(relation, predicate)
    mult_lb = np.where(certain, relation.mult_lb, 0)
    mult_sg = np.where(sg, relation.mult_sg, 0)
    mult_ub = np.where(possible, relation.mult_ub, 0)
    return relation.with_multiplicities(mult_lb, mult_sg, mult_ub).mask(mult_ub > 0)


# ---------------------------------------------------------------------------
# Projection / extension / renaming
# ---------------------------------------------------------------------------


def project(relation: ColumnarAURelation, attributes: Sequence[str]) -> ColumnarAURelation:
    """Bag projection: rows with equal projected hypercubes merge (annotations add)."""
    return merge_equal_rows(relation.restrict(attributes))


def extend(
    relation: ColumnarAURelation,
    name: str,
    expression: Expression | Callable[[AUTuple], RangeValue],
) -> ColumnarAURelation:
    """Append a computed range-annotated attribute to every row."""
    relation.schema.extend(name)  # validates the name early (clear SchemaError)
    lb, sg, ub = range_columns(relation, expression)
    return relation.with_column(AttributeColumn(name, lb, sg, ub))


def rename(relation: ColumnarAURelation, mapping: Mapping[str, str]) -> ColumnarAURelation:
    """Rename attributes (values and annotations unchanged)."""
    return relation.rename(dict(mapping))


# ---------------------------------------------------------------------------
# Union / distinct
# ---------------------------------------------------------------------------


def union(left: ColumnarAURelation, right: ColumnarAURelation) -> ColumnarAURelation:
    """Bag union: rows with identical hypercubes merge, annotations add."""
    if left.schema != right.schema:
        raise SchemaError("union requires identical schemas")
    return merge_equal_rows(left.concat(right))


#: Row-block size bounding the pairwise overlap mask of :func:`distinct`.
_DISTINCT_BLOCK = 512


def distinct(relation: ColumnarAURelation) -> ColumnarAURelation:
    """Bound-preserving duplicate elimination (vectorized).

    Bit-identical to :func:`repro.core.operators.distinct`: certain copies
    survive only on tuples whose hypercube is disjoint from every other
    tuple (pairwise interval-overlap masks over the per-column rank codes,
    evaluated in row blocks so memory stays ``O(block · n)``), the
    selected-guess copy goes to the first producer of each selected-guess
    row, and only point-valued tuples cap their possible multiplicity at one.
    """
    if len(relation) and not bool(np.all(relation.mult_ub > 0)):
        # Rows that possibly never exist carry the semiring zero; the
        # row-major layout cannot hold them (AURelation.add skips it), so
        # they must neither survive nor block a neighbour's certainty.
        relation = relation.mask(relation.mult_ub > 0)
    n = len(relation)
    if n == 0:
        return relation
    if any(_components_carry_nan(column) for column in relation.columns):
        from repro.core.operators.distinct import distinct as python_distinct

        return ColumnarAURelation.from_relation(python_distinct(relation.to_relation()))

    from repro.columnar.kernels import component_rank_codes

    codes = [component_rank_codes(column) for column in relation.columns]

    overlaps_other = np.zeros(n, dtype=bool)
    for start in range(0, n, _DISTINCT_BLOCK):
        stop = min(n, start + _DISTINCT_BLOCK)
        block = np.ones((stop - start, n), dtype=bool)
        for lb_codes, _sg_codes, ub_codes in codes:
            block &= (lb_codes[start:stop, None] <= ub_codes[None, :]) & (
                lb_codes[None, :] <= ub_codes[start:stop, None]
            )
        block[np.arange(stop - start), np.arange(start, stop)] = False
        overlaps_other[start:stop] = block.any(axis=1)

    point_row = _point_rows(codes, n)

    # First producer of each selected-guess row among tuples with sg >= 1.
    owner = np.zeros(n, dtype=bool)
    candidates = np.flatnonzero(relation.mult_sg >= 1)
    if len(candidates):
        classes, _representatives = _sg_class_groups(codes, n)
        _, first_candidate = np.unique(classes[candidates], return_index=True)
        owner[candidates[first_candidate]] = True

    lb = ((relation.mult_lb >= 1) & ~overlaps_other).astype(np.int64)
    ub = np.where(point_row, np.minimum(relation.mult_ub, 1), relation.mult_ub)
    sg = np.maximum(lb, np.minimum(owner.astype(np.int64), ub))
    return relation.with_multiplicities(lb, sg, ub)


def _point_rows(codes: list[tuple[np.ndarray, np.ndarray, np.ndarray]], n: int) -> np.ndarray:
    """Rows whose hypercube is a single point on every coded column."""
    point_row = np.ones(n, dtype=bool)
    for lb_codes, sg_codes, ub_codes in codes:
        point_row &= (lb_codes == sg_codes) & (sg_codes == ub_codes)
    return point_row


def _sg_class_groups(
    codes: list[tuple[np.ndarray, np.ndarray, np.ndarray]], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by their selected-guess key vector, first-occurrence ordered.

    Returns ``(group_of_row, group_rows)``: the group id of every row (ids
    numbered in order of each group's first appearance) and the first
    (representative) row index per group.  Shared by :func:`distinct` (SG
    world deduplication) and :func:`groupby_aggregate` (group identification)
    so the sg-equality semantics cannot drift between them.
    """
    if not codes:
        return np.zeros(n, dtype=np.int64), np.zeros(min(n, 1), dtype=np.int64)
    sg_matrix = np.column_stack([sg_codes for _lb, sg_codes, _ub in codes])
    _, first, inverse = np.unique(sg_matrix, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(first, kind="stable")
    remap = np.empty(len(order), dtype=np.int64)
    remap[order] = np.arange(len(order), dtype=np.int64)
    return remap[inverse], first[order]


# ---------------------------------------------------------------------------
# Cross product / join
# ---------------------------------------------------------------------------


def cross(left: ColumnarAURelation, right: ColumnarAURelation) -> ColumnarAURelation:
    """Cross product; clashing attribute names on the right get ``_r`` suffixes.

    Pairs expand in bulk — left rows ``np.repeat``-ed, right rows
    ``np.tile``-d — in the same left-outer / right-inner order as the Python
    backend, with multiplicities multiplying pointwise.
    """
    schema = left.schema.concat(right.schema, disambiguate=True)
    n_left, n_right = len(left), len(right)
    if n_left == 0 or n_right == 0:
        # n=0 short-circuit: the product is empty — gather zero rows (dtypes
        # preserved) instead of paying the repeat/tile pass over the
        # non-empty side's arrays.
        empty = np.empty(0, dtype=np.int64)
        expanded_left = left.take(empty)
        expanded_right = right.take(empty)
    else:
        expanded_left = left.repeat(n_right)
        expanded_right = right.tile(n_left)
    columns = list(expanded_left.columns)
    for name, column in zip(schema.attributes[len(columns) :], expanded_right.columns):
        columns.append(column.renamed(name))
    return ColumnarAURelation(
        schema,
        columns,
        expanded_left.mult_lb * expanded_right.mult_lb,
        expanded_left.mult_sg * expanded_right.mult_sg,
        expanded_left.mult_ub * expanded_right.mult_ub,
    )


def join(
    left: ColumnarAURelation,
    right: ColumnarAURelation,
    predicate: Expression | Callable[[AUTuple], RangeBool] | None = None,
    *,
    on: Sequence[str] | None = None,
    method: str = "auto",
) -> ColumnarAURelation:
    """Theta or equi-join over columnar AU-relations.

    With ``on``, pairs join when their ranges on the named attributes
    *possibly* intersect (the vectorized equality triple filters the
    certain / selected-guess / possible multiplicities); a ``predicate`` is
    evaluated over the disambiguated product relation.  Same semantics as
    :func:`repro.core.operators.join`.

    ``method`` selects the pair-enumeration kernel:

    * ``"grid"`` — expand the full ``|L| × |R|`` pair grid (``np.repeat`` ×
      ``np.tile``) and filter it with vectorized masks.  Exact for every
      input, but ``O(|L| · |R|)`` memory.
    * ``"searchsorted"`` — sort/searchsorted equi-join: when *any* ``on``
      key is *certain* (``lb == sg == ub``) on one side, the
      possible-overlap matches of every row on the other side form a
      contiguous run in the sorted key order, found by two endpoint binary
      searches (:func:`repro.columnar.kernels.interval_point_match_pairs`);
      the remaining keys refine the candidate set pairwise.  Raises
      :class:`~repro.errors.OperatorError` when the keys do not qualify.
    * ``"sweep"`` — range×range interval-overlap sweep: when *both* sides
      carry uncertain keys, the possibly-equal pairs are exactly the pairs
      whose first-key ``[lb, ub]`` intervals intersect, enumerated by the
      width-bucketed endpoint index
      (:func:`repro.columnar.kernels.interval_overlap_pairs`).
    * ``"band"`` — shifted-endpoint sweep over a band / theta *predicate*
      (no ``on`` keys): an AND-tree containing ``l.x OP r.y ± c``
      comparisons implies an interval-overlap window between ``l.x`` and the
      constant-shifted ``r.y``, so candidates enumerate through the same
      sweep index over the shifted endpoints (see :func:`band_join_plan`).
    * ``"auto"`` (default) — the cheapest applicable kernel in the order
      ``searchsorted`` → ``sweep`` → ``band``, falling back to ``grid``
      (object-dtype / NaN / lossy-promotion keys, or predicates without an
      extractable band).

    Every kernel is bit-identical to the grid — same pairs, same row order,
    same annotations: candidate enumeration may only *over*-approximate the
    possibly-joining pairs, and the pair assembler re-checks every candidate
    with the exact equality / predicate masks (zero-multiplicity pairs are
    dropped, exactly as the grid masks them out).  The differential suite
    cross-checks all kernels against the grid and the Python backend.
    """
    if on is None and predicate is None:
        raise OperatorError("join requires either a predicate or an `on` attribute list")
    if method not in ("auto", "grid", "searchsorted", "sweep", "band"):
        raise OperatorError(
            f"unknown join method {method!r}; expected 'auto', 'grid', "
            "'searchsorted', 'sweep' or 'band'"
        )
    if method in ("searchsorted", "sweep") and not on:
        raise OperatorError(f"the {method} equi-join requires an `on` attribute list")
    if method == "band" and predicate is None:
        raise OperatorError("the band join requires a predicate")
    if method == "band" and on:
        raise OperatorError(
            "the band join enumerates candidates from the predicate; drop the "
            "`on` keys or use method='auto'"
        )
    left.schema.require(list(on or ()))
    right.schema.require(list(on or ()))

    if len(left) == 0 or len(right) == 0:
        # n=0 short-circuit: no pairs can exist — run the pair assembler on
        # an empty candidate list (same schema, masks, and predicate errors
        # as the grid, without its repeat/tile scratch over the non-empty
        # side).
        empty = np.empty(0, dtype=np.int64)
        return _join_pairs(left, right, predicate, list(on or ()), empty, empty)

    if method != "grid" and on:
        kernels = ("searchsorted", "sweep") if method == "auto" else (method,)
        candidates = candidate_key_pairs(
            [left.column(name) for name in on],
            [right.column(name) for name in on],
            kernels=kernels,
        )
        if candidates is not None:
            left_rows, right_rows, _kernel = candidates
            return _join_pairs(left, right, predicate, list(on), left_rows, right_rows)
        if method == "searchsorted":
            raise OperatorError(
                "searchsorted equi-join requires a certain (lb == sg == ub) "
                "key column on one side and NaN-free, exactly promotable numeric "
                "key columns; use method='grid' (or 'auto') for these inputs"
            )
        if method == "sweep":
            raise OperatorError(
                "the sweep equi-join requires NaN-free, exactly promotable "
                "numeric key columns; use method='grid' (or 'auto') for these inputs"
            )
    if method in ("auto", "band") and not on and predicate is not None:
        band = _band_join_pairs(left, right, predicate)
        if band is not None:
            return _join_pairs(left, right, predicate, [], *band)
        if method == "band":
            raise OperatorError(
                "the band join requires an AND-tree predicate comparing a left "
                "attribute against a (constant-shifted) right attribute over "
                "NaN-free, exactly promotable numeric columns; use "
                "method='grid' (or 'auto') for these inputs"
            )

    product = cross(left, right)
    n = len(product)
    certain = np.ones(n, dtype=bool)
    sg = np.ones(n, dtype=bool)
    possible = np.ones(n, dtype=bool)
    if on is not None:
        for name in on:
            # The product already holds the repeated / tiled key columns —
            # read the pair grid off it instead of expanding it again.
            left_expanded = product.columns[left.schema.index_of(name)]
            right_expanded = product.columns[len(left.schema) + right.schema.index_of(name)]
            eq_cert, eq_sg, eq_poss = _pairwise_equality(
                left_expanded, right_expanded, left.column(name), right.column(name)
            )
            certain &= eq_cert
            sg &= eq_sg
            possible &= eq_poss
    if predicate is not None:
        p_cert, p_sg, p_poss = predicate_masks(product, predicate)
        certain &= p_cert
        sg &= p_sg
        possible &= p_poss

    mult_lb = np.where(certain, product.mult_lb, 0)
    mult_sg = np.where(sg, product.mult_sg, 0)
    mult_ub = np.where(possible, product.mult_ub, 0)
    keep = np.flatnonzero(mult_ub > 0)
    return product.with_multiplicities(mult_lb, mult_sg, mult_ub).take(keep)


def _column_certain(column: AttributeColumn) -> bool:
    """Whether every row of a (numeric) key column is a point value."""
    if len(column.lb) == 0:
        return True
    return bool(np.all((column.lb == column.sg) & (column.sg == column.ub)))


def candidate_key_pairs(
    left_columns: Sequence[AttributeColumn],
    right_columns: Sequence[AttributeColumn],
    *,
    kernels: Sequence[str] = ("searchsorted", "sweep"),
) -> tuple[np.ndarray, np.ndarray, str] | None:
    """Match-candidate ``(left_rows, right_rows, kernel)`` for an equi-join.

    Enumerates the pairs whose key ranges possibly intersect on every ``on``
    column, through the cheapest kernel in ``kernels`` that applies:

    * ``"searchsorted"`` — *any* key pair with a certain (``lb == sg == ub``)
      side anchors the enumeration: its point values are the sorted search
      space, the other side's ``[lb, ub]`` endpoints the queries
      (:func:`~repro.columnar.kernels.interval_point_match_pairs`).
    * ``"sweep"`` — both sides uncertain: the *first* key's interval-overlap
      pairs via the width-bucketed endpoint index
      (:func:`~repro.columnar.kernels.interval_overlap_pairs`).

    The remaining key columns refine the candidate set pairwise (interval
    overlap per pair — pure pruning, since non-overlapping pairs carry a zero
    possible multiplicity through the exact masks anyway).  Returns ``None``
    when no requested kernel applies: every key column pair must be exactly
    vectorizable (no object dtypes, NaN, or lossy int/float promotion), and
    ``"searchsorted"`` additionally needs a certain side on some key.

    Takes bare key columns (not relations) so the factorised layer
    (:mod:`repro.columnar.factorised`) can enumerate candidates over gathered
    pair columns through the identical kernels.  Pairs return in the pair
    grid's left-outer / right-inner enumeration order, so the assembled rows
    line up with the grid kernel (and the Python backend).
    """
    from repro.columnar.kernels import interval_overlap_pairs, interval_point_match_pairs

    if len(left_columns[0].lb) == 0 or len(right_columns[0].lb) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, kernels[0]
    for left_column, right_column in zip(left_columns, right_columns):
        if not _equality_vectorizable(left_column, right_column):
            return None
    anchor = None
    kernel = None
    if "searchsorted" in kernels:
        for index, (left_key, right_key) in enumerate(zip(left_columns, right_columns)):
            if _column_certain(right_key):
                left_rows, right_rows = interval_point_match_pairs(
                    left_key.lb, left_key.ub, right_key.sg
                )
            elif _column_certain(left_key):
                right_rows, left_rows = interval_point_match_pairs(
                    right_key.lb, right_key.ub, left_key.sg
                )
            else:
                continue
            anchor, kernel = index, "searchsorted"
            break
    if anchor is None and "sweep" in kernels:
        left_key, right_key = left_columns[0], right_columns[0]
        left_rows, right_rows = interval_overlap_pairs(
            left_key.lb, left_key.ub, right_key.lb, right_key.ub
        )
        anchor, kernel = 0, "sweep"
    if anchor is None:
        return None
    if len(left_rows) and len(left_columns) > 1:
        keep = np.ones(len(left_rows), dtype=bool)
        for index, (left_key, right_key) in enumerate(zip(left_columns, right_columns)):
            if index == anchor:
                continue
            keep &= (left_key.lb[left_rows] <= right_key.ub[right_rows]) & (
                right_key.lb[right_rows] <= left_key.ub[left_rows]
            )
        left_rows, right_rows = left_rows[keep], right_rows[keep]
    # Restore the pair grid's left-outer / right-inner enumeration order so
    # the result rows line up with the grid kernel (and the Python backend).
    order = lexsort_stable((right_rows, left_rows))
    return left_rows[order], right_rows[order], kernel


def searchsorted_candidate_pairs(
    left_columns: Sequence[AttributeColumn],
    right_columns: Sequence[AttributeColumn],
) -> tuple[np.ndarray, np.ndarray] | None:
    """Certain-side candidate pairs only (:func:`candidate_key_pairs` subset)."""
    result = candidate_key_pairs(left_columns, right_columns, kernels=("searchsorted",))
    if result is None:
        return None
    return result[0], result[1]


# ---------------------------------------------------------------------------
# Band / theta predicate candidates (shifted-endpoint sweep)
# ---------------------------------------------------------------------------


def band_join_plan(
    predicate: object, left_schema: Schema, right_schema: Schema
) -> tuple[str, str, int | float | None, int | float | None] | None:
    """Extract a band window ``(left_attr, right_attr, low, high)`` from a predicate.

    Walks the top-level AND-tree of an :class:`Expression` for comparisons of
    the shape ``l.x ± c₁  OP  r.y ± c₂`` (``OP`` ∈ ``<``, ``<=``, ``>``,
    ``>=``, ``==``; either side may be the bare attribute) referencing one
    attribute of each join side, and normalises them into per-attribute-pair
    shift windows: the conjunction *possibly* holds on a pair only if
    ``[l.lb, l.ub]`` overlaps ``[r.lb + low, r.ub + high]``.  Strict
    comparisons relax to non-strict — candidate enumeration may only
    over-approximate; the exact predicate masks re-check every pair.

    Per pair, ``<``/``<=`` conjuncts tighten ``high`` (minimum shift wins),
    ``>``/``>=`` tighten ``low`` (maximum), ``==`` tightens both.  A missing
    bound stays ``None`` (one-sided bands still prune: ``l < r`` candidates
    are exactly the possibly-true pairs).  Attribute names resolve against
    the disambiguated product schema — the namespace join predicates are
    written in.  Returns the first two-sided window, else the first
    one-sided one, else ``None`` (no extractable band — conjuncts that are
    not band-shaped are simply ignored, which is sound for a conjunction).
    """
    if not isinstance(predicate, Expression):
        return None
    attributes = left_schema.concat(right_schema, disambiguate=True).attributes
    n_left = len(left_schema.attributes)
    side_of = {}
    for position, name in enumerate(attributes):
        if position < n_left:
            side_of[name] = ("left", left_schema.attributes[position])
        else:
            side_of[name] = ("right", right_schema.attributes[position - n_left])
    conjuncts = []
    stack = [predicate]
    while stack:
        node = stack.pop()
        if type(node) is BooleanOp and node.op == "and":
            stack.append(node.left)
            stack.append(node.right)
        else:
            conjuncts.append(node)
    windows: dict[tuple[str, str], list] = {}
    for node in conjuncts:
        if type(node) is not Comparison or node.op not in ("<", "<=", ">", ">=", "=="):
            continue
        lhs = _shifted_attribute(node.left, side_of)
        rhs = _shifted_attribute(node.right, side_of)
        if lhs is None or rhs is None or lhs[0] == rhs[0]:
            continue
        op = node.op
        if lhs[0] == "right":
            lhs, rhs = rhs, lhs
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}[op]
        # l.x + c₁ OP r.y + c₂  ==>  l.x OP r.y + (c₂ - c₁)
        _, left_name, left_shift = lhs
        _, right_name, right_shift = rhs
        shift = right_shift - left_shift
        window = windows.setdefault((left_name, right_name), [None, None])
        if op in (">", ">=", "=="):
            window[0] = shift if window[0] is None else max(window[0], shift)
        if op in ("<", "<=", "=="):
            window[1] = shift if window[1] is None else min(window[1], shift)
    chosen = None
    for names, (low, high) in windows.items():
        if low is not None and high is not None:
            chosen = (names, low, high)
            break
    if chosen is None:
        for names, (low, high) in windows.items():
            chosen = (names, low, high)
            break
    if chosen is None:
        return None
    (left_name, right_name), low, high = chosen
    return left_name, right_name, low, high


def _shifted_attribute(node: Expression, side_of: dict) -> tuple[str, str, int | float] | None:
    """Resolve ``attr``, ``attr ± const``, or ``const + attr`` to ``(side, name, shift)``."""
    shift: int | float = 0
    if type(node) is Arithmetic and node.op in ("+", "-"):
        left, right = node.left, node.right
        if type(right) is Constant and type(left) is Attribute:
            value = right.value
            if type(value) not in (int, float):  # bools are not shifts
                return None
            shift = value if node.op == "+" else -value
            node = left
        elif node.op == "+" and type(left) is Constant and type(right) is Attribute:
            value = left.value
            if type(value) not in (int, float):
                return None
            shift = value
            node = right
        else:
            return None
    if type(node) is not Attribute:
        return None
    resolved = side_of.get(node.name)
    if resolved is None:
        return None
    side, name = resolved
    return side, name, shift


def band_candidate_pairs(
    left_column: AttributeColumn,
    right_column: AttributeColumn,
    low: int | float | None,
    high: int | float | None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Candidate pairs of a band window: ``[l.lb, l.ub]`` meets ``[r.lb+low, r.ub+high]``.

    The shifted-endpoint mirror of the range×range sweep — the right
    endpoints shift by the band constants before the interval-overlap
    enumeration (float shifts widen one ULP outward, so rounding can only
    *add* candidates; integer shifts are exact under the overflow gate).  A
    ``None`` bound substitutes the matching extreme of the left endpoints,
    making that side of the condition vacuous.  Returns ``None`` when the
    columns or shifts are not exactly vectorizable; pairs return in
    left-outer / right-inner order.
    """
    from repro.columnar.kernels import interval_overlap_pairs

    if len(left_column.lb) == 0 or len(right_column.lb) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if not _band_vectorizable(left_column, right_column, low, high):
        return None
    if low is None:
        r_lo = np.full(len(right_column.lb), left_column.ub.min())
    else:
        r_lo = _shifted_endpoint(right_column.lb, low, -1)
    if high is None:
        r_hi = np.full(len(right_column.lb), left_column.lb.max())
    else:
        r_hi = _shifted_endpoint(right_column.ub, high, 1)
    left_rows, right_rows = interval_overlap_pairs(
        left_column.lb, left_column.ub, r_lo, r_hi
    )
    order = lexsort_stable((right_rows, left_rows))
    return left_rows[order], right_rows[order]


def _band_join_pairs(
    left: ColumnarAURelation,
    right: ColumnarAURelation,
    predicate: Expression | Callable[[AUTuple], RangeBool],
) -> tuple[np.ndarray, np.ndarray] | None:
    """Band candidates of a predicate join, or ``None`` when no band applies."""
    plan = band_join_plan(predicate, left.schema, right.schema)
    if plan is None:
        return None
    left_name, right_name, low, high = plan
    return band_candidate_pairs(
        left.column(left_name), right.column(right_name), low, high
    )


def _shifted_endpoint(values: np.ndarray, shift: int | float, direction: int) -> np.ndarray:
    """``values + shift``, over-approximated one ULP in ``direction`` for floats.

    Integer arrays with integer shifts stay exact ``int64`` (the
    vectorizability gate excludes overflow); any float involvement computes
    in ``float64`` and widens the result outward so rounding can only add
    candidates, never drop a possibly-matching pair.
    """
    if type(shift) is int and values.dtype == np.int64:
        return values + np.int64(shift)
    out = values.astype(np.float64) + float(shift)
    return np.nextafter(out, -np.inf if direction < 0 else np.inf)


def _band_vectorizable(
    left: AttributeColumn,
    right: AttributeColumn,
    low: int | float | None,
    high: int | float | None,
) -> bool:
    """Whether the shifted-endpoint sweep is a sound over-approximation here.

    Mirrors :func:`_equality_vectorizable` on the columns, then guards the
    shift arithmetic: pure-integer bands must not overflow ``int64``; any
    float involvement must keep every integer magnitude (values and shifts)
    inside float64's exact range.
    """
    profile = profile_components(
        [getattr(column, name) for column in (left, right) for name in ("lb", "sg", "ub")]
    )
    if profile.has_object or profile.has_nan:
        return False
    shifts = [s for s in (low, high) if s is not None]
    if any(type(s) not in (int, float) for s in shifts):
        return False
    if any(s != s for s in shifts):  # NaN shift: the scalar path owns it
        return False
    int_shift_magnitude = max((abs(s) for s in shifts if type(s) is int), default=0)
    if profile.has_float or any(type(s) is float for s in shifts):
        return (
            profile.int_magnitude < FLOAT64_EXACT_MAX
            and int_shift_magnitude < FLOAT64_EXACT_MAX
        )
    return profile.int_magnitude + int_shift_magnitude < 2**62


def planned_join_kernel(
    left: ColumnarAURelation,
    right: ColumnarAURelation,
    predicate: Expression | Callable[[AUTuple], RangeBool] | None = None,
    *,
    on: Sequence[str] | None = None,
) -> str:
    """The pair-enumeration kernel ``method="auto"`` would select (no pairs built).

    Returns ``"searchsorted"``, ``"sweep"``, ``"band"``, or ``"grid"`` —
    the benchmark runners record it per contender, and the property suite
    asserts non-grid selection on qualifying inputs.  Costs one dtype
    profile + certainty scan per key column; empty inputs report the kernel
    the non-empty shape would pick (the join itself short-circuits them).
    """
    keys = list(on or ())
    left.schema.require(keys)
    right.schema.require(keys)
    empty = len(left) == 0 or len(right) == 0
    if keys:
        if empty:  # the candidate builders early-return before the dtype gates
            return "searchsorted"
        left_columns = [left.column(name) for name in keys]
        right_columns = [right.column(name) for name in keys]
        if all(
            _equality_vectorizable(lc, rc)
            for lc, rc in zip(left_columns, right_columns)
        ):
            for lc, rc in zip(left_columns, right_columns):
                if _column_certain(lc) or _column_certain(rc):
                    return "searchsorted"
            return "sweep"
        return "grid"
    if predicate is not None:
        plan = band_join_plan(predicate, left.schema, right.schema)
        if plan is not None:
            left_name, right_name, low, high = plan
            if empty or _band_vectorizable(
                left.column(left_name), right.column(right_name), low, high
            ):
                return "band"
    return "grid"


def _join_pairs(
    left: ColumnarAURelation,
    right: ColumnarAURelation,
    predicate: Expression | Callable[[AUTuple], RangeBool] | None,
    on: list[str],
    left_rows: np.ndarray,
    right_rows: np.ndarray,
) -> ColumnarAURelation:
    """Assemble the join result from explicit match-candidate pairs.

    Bit-identical to the grid kernel restricted to these pairs: candidate
    enumeration only skips pairs whose first-key ranges cannot overlap, and
    those carry a zero possible multiplicity on the grid path too (they are
    masked out of its result).
    """
    schema = left.schema.concat(right.schema, disambiguate=True)
    columns = [
        column.take(left_rows, name) for name, column in zip(schema.attributes, left.columns)
    ]
    for name, column in zip(schema.attributes[len(columns) :], right.columns):
        columns.append(column.take(right_rows, name))
    product = ColumnarAURelation(
        schema,
        columns,
        left.mult_lb[left_rows] * right.mult_lb[right_rows],
        left.mult_sg[left_rows] * right.mult_sg[right_rows],
        left.mult_ub[left_rows] * right.mult_ub[right_rows],
    )

    n = len(product)
    certain = np.ones(n, dtype=bool)
    sg = np.ones(n, dtype=bool)
    possible = np.ones(n, dtype=bool)
    for name in on:
        left_col = left.column(name)
        right_col = right.column(name)
        eq_cert, eq_sg, eq_poss = _equality_triple_arrays(
            left_col.lb[left_rows],
            left_col.sg[left_rows],
            left_col.ub[left_rows],
            right_col.lb[right_rows],
            right_col.sg[right_rows],
            right_col.ub[right_rows],
        )
        certain &= eq_cert
        sg &= eq_sg
        possible &= eq_poss
    if predicate is not None:
        p_cert, p_sg, p_poss = predicate_masks(product, predicate)
        certain &= p_cert
        sg &= p_sg
        possible &= p_poss

    mult_lb = np.where(certain, product.mult_lb, 0)
    mult_sg = np.where(sg, product.mult_sg, 0)
    mult_ub = np.where(possible, product.mult_ub, 0)
    keep = np.flatnonzero(mult_ub > 0)
    return product.with_multiplicities(mult_lb, mult_sg, mult_ub).take(keep)


def _pairwise_equality(
    left_expanded: AttributeColumn,
    right_expanded: AttributeColumn,
    left: AttributeColumn,
    right: AttributeColumn,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``RangeValue.eq`` triple over the expanded pair grid.

    ``*_expanded`` are the already repeated / tiled product columns (one
    entry per pair); ``left`` / ``right`` are the original key columns, used
    for the cheap exactness scan and the scalar fallback.
    """
    if _equality_vectorizable(left, right):
        return _equality_triple_arrays(
            left_expanded.lb,
            left_expanded.sg,
            left_expanded.ub,
            right_expanded.lb,
            right_expanded.sg,
            right_expanded.ub,
        )
    # Object-dtype columns (strings, None, mixed types), NaN carriers, and
    # int/float mixes beyond float64's exact integer range: the scalar
    # comparisons own those semantics — delegate per pair.
    n_left, n_right = len(left.lb), len(right.lb)
    certain = np.empty(n_left * n_right, dtype=bool)
    sg = np.empty(n_left * n_right, dtype=bool)
    possible = np.empty(n_left * n_right, dtype=bool)
    left_values = left.range_values()
    right_values = right.range_values()
    pair = 0
    for lvalue in left_values:
        for rvalue in right_values:
            condition = lvalue.eq(rvalue)
            certain[pair] = condition.lb
            sg[pair] = condition.sg
            possible[pair] = condition.ub
            pair += 1
    return certain, sg, possible


def _equality_triple_arrays(
    l_lb: np.ndarray,
    l_sg: np.ndarray,
    l_ub: np.ndarray,
    r_lb: np.ndarray,
    r_sg: np.ndarray,
    r_ub: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``RangeValue.eq`` bounding triple over aligned component arrays.

    The single definition both join kernels (pair grid and searchsorted)
    filter through — keeping them bit-identical by construction.  Callers
    gate on :func:`_equality_vectorizable` first.
    """
    certain_left = (l_lb == l_sg) & (l_sg == l_ub)
    certain_right = (r_lb == r_sg) & (r_sg == r_ub)
    certainly = certain_left & certain_right & (l_lb == r_lb)
    overlaps = (l_lb <= r_ub) & (r_lb <= l_ub)
    return certainly, l_sg == r_sg, overlaps


def _equality_vectorizable(left: AttributeColumn, right: AttributeColumn) -> bool:
    """Whether the vectorized equality triple is exact for these columns.

    Rejects ``object`` components, NaN-carrying floats (NumPy comparison NaN
    propagation differs from the scalar ``_le`` order), and int/float mixes
    whose integers would round when promoted to ``float64``.
    """
    profile = profile_components(
        [getattr(column, name) for column in (left, right) for name in ("lb", "sg", "ub")]
    )
    return not (
        profile.has_object
        or profile.has_nan
        or (profile.has_float and profile.int_magnitude >= FLOAT64_EXACT_MAX)
    )


# ---------------------------------------------------------------------------
# Grouped aggregation (Fig. 2's aggregate operator, [24] semantics)
# ---------------------------------------------------------------------------


def groupby_aggregate(
    relation: ColumnarAURelation,
    group_by: Sequence[str],
    aggregates: Sequence[tuple[str, str | None, str]],
) -> ColumnarAURelation:
    """Vectorized group-by aggregation with range-bounded results.

    Bit-identical to :func:`repro.core.operators.groupby_aggregate`:

    * output groups are the distinct *selected-guess* key vectors, coded via
      per-column dense rank codes + ``np.unique`` (first-occurrence order);
    * membership splits into certain / possible contributors — point-valued
      key rows belong exactly to their own group, while rows with uncertain
      keys are tested against every group key by vectorized interval
      containment (the bound-preserving ``N³`` handling of groups whose
      membership is uncertain);
    * aggregate bounds are folded with segmented reductions (``np.add.at`` /
      ``np.minimum.at`` / ``np.maximum.at`` over the per-group contributor
      pairs, in first-occurrence order so float accumulation matches the
      scalar semantics); value columns the vectorized reductions cannot
      reproduce exactly (object dtypes, NaN floats, magnitudes that would
      overflow ``int64`` or round in ``float64``) fold through the *same*
      scalar helper as the Python backend
      (:func:`repro.core.operators.aggregate.value_aggregate_bounds`).
    """
    from repro.core.operators.aggregate import validate_aggregate_spec

    validate_aggregate_spec(relation.schema, group_by, aggregates)
    if len(relation) and not bool(np.all(relation.mult_ub > 0)):
        # Rows that possibly never exist carry the semiring zero; the
        # row-major layout cannot hold them either (AURelation.add skips it).
        relation = relation.mask(relation.mult_ub > 0)

    group_columns = [relation.column(name) for name in group_by]
    if any(_components_carry_nan(column) for column in group_columns):
        # NaN group keys: the scalar backend's dict/identity semantics are
        # not expressible through order codes — delegate wholesale.
        return _scalar_groupby(relation, group_by, aggregates)

    from repro.columnar.kernels import component_rank_codes

    n = len(relation)
    out_schema = Schema(tuple(group_by) + tuple(name for _f, _a, name in aggregates))
    codes = [component_rank_codes(column) for column in group_columns]

    # -- group identification (selected-guess key vectors) -------------------
    if group_by:
        group_of_row, group_rows = _sg_class_groups(codes, n)
        groups = len(group_rows)
    else:
        groups = 1  # global aggregation: one group, even over empty input
        group_of_row = np.zeros(n, dtype=np.int64)
        group_rows = np.zeros(0, dtype=np.int64)

    # -- membership pairs (group, row), certain-contributor flags ------------
    point_row = _point_rows(codes, n)
    certain_rows = np.flatnonzero(point_row)
    uncertain_rows = np.flatnonzero(~point_row)
    pair_group_parts = [group_of_row[certain_rows]]
    pair_row_parts = [certain_rows]
    if len(uncertain_rows) and groups:
        contained = np.ones((len(uncertain_rows), groups), dtype=bool)
        for lb_codes, sg_codes, ub_codes in codes:
            key_codes = sg_codes[group_rows]
            contained &= (lb_codes[uncertain_rows, None] <= key_codes[None, :]) & (
                key_codes[None, :] <= ub_codes[uncertain_rows, None]
            )
        row_idx, group_idx = np.nonzero(contained)
        pair_group_parts.append(group_idx)
        pair_row_parts.append(uncertain_rows[row_idx])
    pair_group = np.concatenate(pair_group_parts)
    pair_row = np.concatenate(pair_row_parts)
    pair_order = lexsort_stable((pair_row, pair_group))
    pair_group = pair_group[pair_order]
    pair_row = pair_row[pair_order]
    pair_certain = point_row[pair_row] & (relation.mult_lb[pair_row] > 0)
    has_possible = np.bincount(pair_group, minlength=groups) > 0

    # -- output group-key columns (hull of possible contributors) ------------
    out_columns: list[AttributeColumn] = []
    for column, (lb_codes, _sg_codes, ub_codes) in zip(group_columns, codes):
        out_columns.append(
            _group_hull_column(
                column, lb_codes, ub_codes, group_rows, pair_group, pair_row, has_possible, groups, n
            )
        )

    # -- aggregate columns ----------------------------------------------------
    for func, attribute, name in aggregates:
        if func == "count":
            out_columns.append(
                _count_column(name, relation, pair_group, pair_row, pair_certain, group_of_row, groups)
            )
            continue
        assert attribute is not None
        column = relation.column(attribute)
        if _aggregate_vectorizable(func, column, relation):
            if func == "sum":
                out_columns.append(
                    _sum_column(
                        name, relation, column, pair_group, pair_row, pair_certain, group_of_row, groups
                    )
                )
            else:
                out_columns.append(
                    _extremum_column(
                        name,
                        func,
                        relation,
                        column,
                        pair_group,
                        pair_row,
                        pair_certain,
                        group_of_row,
                        has_possible,
                        groups,
                    )
                )
        else:
            out_columns.append(
                _scalar_aggregate_column(
                    name, func, relation, column, pair_group, pair_row, pair_certain, group_of_row, groups
                )
            )

    # -- group multiplicities (lb = any certain member, ub = 1) ---------------
    mult_lb = (np.bincount(pair_group[pair_certain], minlength=groups) > 0).astype(np.int64)
    sg_any = np.bincount(group_of_row[relation.mult_sg > 0], minlength=groups) > 0
    mult_sg = np.maximum(mult_lb, sg_any.astype(np.int64))
    mult_ub = np.ones(groups, dtype=np.int64)
    return ColumnarAURelation(out_schema, out_columns, mult_lb, mult_sg, mult_ub)


def _components_carry_nan(column: AttributeColumn) -> bool:
    """NaN anywhere in a column's components (object arrays scanned too)."""
    for arr in (column.lb, column.sg, column.ub):
        if arr.dtype == np.float64:
            if len(arr) and bool(np.isnan(arr).any()):
                return True
        elif arr.dtype == object:
            if any(value != value for value in arr.tolist()):
                return True
    return False


def _scalar_groupby(
    relation: ColumnarAURelation,
    group_by: Sequence[str],
    aggregates: Sequence[tuple[str, str | None, str]],
) -> ColumnarAURelation:
    """Wholesale scalar fallback: run the Python backend, convert back."""
    from repro.core.operators.aggregate import groupby_aggregate as python_groupby

    return ColumnarAURelation.from_relation(
        python_groupby(relation.to_relation(), group_by, aggregates)
    )


def _aggregate_vectorizable(func: str, column: AttributeColumn, relation: ColumnarAURelation) -> bool:
    """Whether the segmented reductions are exact for this value column.

    Mirrors the expression-evaluator gates: object dtypes and NaN floats only
    exist on the scalar path; ``sum`` / ``avg`` additionally need the partial
    sums and multiplicity products to stay exact (no ``int64`` overflow, no
    ``float64`` rounding of large integers).
    """
    profile = profile_components((column.lb, column.sg, column.ub))
    if profile.has_object or profile.has_nan:
        return False
    if profile.has_float and profile.int_magnitude >= FLOAT64_EXACT_MAX:
        return False
    if func in ("sum", "avg"):
        total = int(relation.mult_ub.sum()) if len(relation) else 0
        if profile.int_magnitude * max(1, total) >= 2**62:
            return False
    return True


def _group_hull_column(
    column: AttributeColumn,
    lb_codes: np.ndarray,
    ub_codes: np.ndarray,
    group_rows: np.ndarray,
    pair_group: np.ndarray,
    pair_row: np.ndarray,
    has_possible: np.ndarray,
    groups: int,
    n: int,
) -> AttributeColumn:
    """One output group-key column: ``[hull lb / key sg / hull ub]`` per group.

    The hull folds ``union_hull`` over the possible contributors; ties under
    the domain order keep the *first* minimal lb and the *last* maximal ub,
    reproduced here by taking segmented min / max over ``code * (n+1) + row``
    composites (code ties resolved by row position).
    """
    base = np.int64(n + 1)
    min_composite = np.full(groups, np.iinfo(np.int64).max, dtype=np.int64)
    max_composite = np.full(groups, np.iinfo(np.int64).min, dtype=np.int64)
    if len(pair_group):
        np.minimum.at(min_composite, pair_group, lb_codes[pair_row] * base + pair_row)
        np.maximum.at(max_composite, pair_group, ub_codes[pair_row] * base + pair_row)
    lb_rows = np.where(has_possible, min_composite % base, group_rows)
    ub_rows = np.where(has_possible, max_composite % base, group_rows)
    sg_values = column.sg[group_rows].tolist()
    lb_picked = column.lb[lb_rows].tolist()
    ub_picked = column.ub[ub_rows].tolist()
    lb_values = [
        lb_picked[g] if has_possible[g] else sg_values[g] for g in range(groups)
    ]
    ub_values = [
        ub_picked[g] if has_possible[g] else sg_values[g] for g in range(groups)
    ]
    return AttributeColumn(
        column.name, column_array(lb_values), column_array(sg_values), column_array(ub_values)
    )


def _count_column(
    name: str,
    relation: ColumnarAURelation,
    pair_group: np.ndarray,
    pair_row: np.ndarray,
    pair_certain: np.ndarray,
    group_of_row: np.ndarray,
    groups: int,
) -> AttributeColumn:
    """``count(*)`` bounds per group: segmented multiplicity sums."""
    lb = np.zeros(groups, dtype=np.int64)
    np.add.at(lb, pair_group[pair_certain], relation.mult_lb[pair_row[pair_certain]])
    ub = np.zeros(groups, dtype=np.int64)
    np.add.at(ub, pair_group, relation.mult_ub[pair_row])
    sg = np.zeros(groups, dtype=np.int64)
    np.add.at(sg, group_of_row, relation.mult_sg)
    sg = np.clip(sg, lb, ub)
    return AttributeColumn(name, lb, sg, ub)


def _sum_column(
    name: str,
    relation: ColumnarAURelation,
    column: AttributeColumn,
    pair_group: np.ndarray,
    pair_row: np.ndarray,
    pair_certain: np.ndarray,
    group_of_row: np.ndarray,
    groups: int,
) -> AttributeColumn:
    """``sum`` bounds per group, accumulation order matching the scalar fold.

    Certain contributors add ``value * mult`` picking the multiplicity bound
    that minimises / maximises the product; possible-only contributors can
    also be absent, so only sign-decreasing (lb) / sign-increasing (ub)
    contributions count.  ``lb`` / ``ub`` accumulate in ``float64`` exactly
    like the Python backend's ``0.0 +=`` fold.
    """
    value_lb = column.lb[pair_row]
    value_ub = column.ub[pair_row]
    mult_lb = relation.mult_lb[pair_row]
    mult_ub = relation.mult_ub[pair_row]
    lb_contrib = np.where(
        pair_certain,
        value_lb * np.where(value_lb >= 0, mult_lb, mult_ub),
        np.where(value_lb < 0, value_lb * mult_ub, 0),
    )
    ub_contrib = np.where(
        pair_certain,
        value_ub * np.where(value_ub >= 0, mult_ub, mult_lb),
        np.where(value_ub >= 0, value_ub * mult_ub, 0),
    )
    lb = np.zeros(groups, dtype=np.float64)
    ub = np.zeros(groups, dtype=np.float64)
    np.add.at(lb, pair_group, lb_contrib)
    np.add.at(ub, pair_group, ub_contrib)
    sg_dtype = np.float64 if column.sg.dtype == np.float64 else np.int64
    sg = np.zeros(groups, dtype=sg_dtype)
    np.add.at(sg, group_of_row, column.sg * relation.mult_sg)
    return AttributeColumn(name, lb, _clamp_sg_components(sg, lb, ub), ub)


def _select_components(mask: np.ndarray, when_true: np.ndarray, when_false: np.ndarray) -> np.ndarray:
    """Elementwise select that never promotes mixed dtypes.

    ``np.where`` over an ``int64`` / ``float64`` pair would upcast every
    element to ``float64``; the Python backend keeps each scalar's own type
    (an unclamped integer selected guess stays ``int``).  Equal dtypes take
    the vectorized path, mixed dtypes re-pack per element.
    """
    if when_true.dtype == when_false.dtype:
        return np.where(mask, when_true, when_false)
    true_values = when_true.tolist()
    false_values = when_false.tolist()
    return column_array(
        [true_values[i] if keep else false_values[i] for i, keep in enumerate(mask.tolist())]
    )


def _clamp_sg_components(sg: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """The ``_make_range`` clamp (sg into ``[lb, ub]``), scalar types preserved."""
    low = sg < lb
    if bool(low.any()):
        sg = _select_components(low, lb, sg)
    high = sg > ub
    if bool(high.any()):
        sg = _select_components(high, ub, sg)
    return sg


def _segmented_reduce(
    idx: np.ndarray, values: np.ndarray, groups: int, *, maximum: bool
) -> np.ndarray:
    """Segmented min / max with sentinel initialisation (empty groups keep it)."""
    if values.dtype == np.float64:
        sentinel = -np.inf if maximum else np.inf
    else:
        info = np.iinfo(np.int64)
        sentinel = info.min if maximum else info.max
    out = np.full(groups, sentinel, dtype=values.dtype)
    if len(idx):
        (np.maximum if maximum else np.minimum).at(out, idx, values)
    return out


def _extremum_column(
    name: str,
    func: str,
    relation: ColumnarAURelation,
    column: AttributeColumn,
    pair_group: np.ndarray,
    pair_row: np.ndarray,
    pair_certain: np.ndarray,
    group_of_row: np.ndarray,
    has_possible: np.ndarray,
    groups: int,
) -> AttributeColumn:
    """``min`` / ``max`` / ``avg`` bounds per group via segmented reductions."""
    value_lb = column.lb[pair_row]
    value_ub = column.ub[pair_row]
    cert_group = pair_group[pair_certain]
    poss_min_lb = _segmented_reduce(pair_group, value_lb, groups, maximum=False)
    poss_max_ub = _segmented_reduce(pair_group, value_ub, groups, maximum=True)
    has_certain = np.bincount(cert_group, minlength=groups) > 0

    sg_mask = relation.mult_sg > 0
    sg_groups = group_of_row[sg_mask]
    sg_values = column.sg[sg_mask]
    has_sg = np.bincount(sg_groups, minlength=groups) > 0

    if func == "min":
        lb = poss_min_lb
        cert_min_ub = _segmented_reduce(cert_group, value_ub[pair_certain], groups, maximum=False)
        ub = np.where(has_certain, cert_min_ub, poss_max_ub)
        sg = _segmented_reduce(sg_groups, sg_values, groups, maximum=False)
    elif func == "max":
        ub = poss_max_ub
        cert_max_lb = _segmented_reduce(cert_group, value_lb[pair_certain], groups, maximum=True)
        poss_min_lb_all = _segmented_reduce(pair_group, value_lb, groups, maximum=False)
        lb = np.where(has_certain, cert_max_lb, poss_min_lb_all)
        sg = _segmented_reduce(sg_groups, sg_values, groups, maximum=True)
    else:  # avg
        lb = poss_min_lb
        ub = poss_max_ub
        totals = np.zeros(
            groups, dtype=np.float64 if sg_values.dtype == np.float64 else np.int64
        )
        if len(sg_groups):
            np.add.at(totals, sg_groups, sg_values)
        counts = np.bincount(sg_groups, minlength=groups)
        sg = np.divide(
            totals,
            counts,
            out=np.zeros(groups, dtype=np.float64),
            where=counts > 0,
        )
    sg = _select_components(has_sg, sg, lb)
    sg = _clamp_sg_components(sg, lb, ub)
    if bool(np.all(has_possible)):
        return AttributeColumn(name, lb, sg, ub)
    # Groups without possible contributors aggregate to the certain NULL.
    lb_values = [value if has_possible[g] else None for g, value in enumerate(lb.tolist())]
    sg_values_out = [value if has_possible[g] else None for g, value in enumerate(sg.tolist())]
    ub_values = [value if has_possible[g] else None for g, value in enumerate(ub.tolist())]
    return AttributeColumn(
        name, column_array(lb_values), column_array(sg_values_out), column_array(ub_values)
    )


def _scalar_aggregate_column(
    name: str,
    func: str,
    relation: ColumnarAURelation,
    column: AttributeColumn,
    pair_group: np.ndarray,
    pair_row: np.ndarray,
    pair_certain: np.ndarray,
    group_of_row: np.ndarray,
    groups: int,
) -> AttributeColumn:
    """Scalar fallback: fold each group through the Python backend's helper.

    Used for value columns the segmented reductions cannot reproduce exactly
    (object dtypes, NaN floats, overflow-prone magnitudes); calls
    :func:`repro.core.operators.aggregate.value_aggregate_bounds` per group,
    so both backends share one implementation of the edge-case semantics.
    """
    from repro.core.operators.aggregate import value_aggregate_bounds

    values = column.range_values()
    mults = [relation.multiplicity(i) for i in range(len(relation))]
    # pair_group is sorted: per-group contributor slices via searchsorted.
    starts = np.searchsorted(pair_group, np.arange(groups), side="left")
    stops = np.searchsorted(pair_group, np.arange(groups), side="right")
    sg_order = np.argsort(group_of_row, kind="stable")
    sg_starts = np.searchsorted(group_of_row[sg_order], np.arange(groups), side="left")
    sg_stops = np.searchsorted(group_of_row[sg_order], np.arange(groups), side="right")
    results = []
    for g in range(groups):
        possible = [
            (values[r], mults[r], bool(c))
            for r, c in zip(
                pair_row[starts[g] : stops[g]].tolist(),
                pair_certain[starts[g] : stops[g]].tolist(),
            )
        ]
        sg_members = [
            (values[r], mults[r]) for r in sg_order[sg_starts[g] : sg_stops[g]].tolist()
        ]
        results.append(value_aggregate_bounds(func, possible, sg_members))
    return AttributeColumn(
        name,
        column_array([result.lb for result in results]),
        column_array([result.sg for result in results]),
        column_array([result.ub for result in results]),
    )


# ---------------------------------------------------------------------------
# Duplicate merging (the K-relation view: equal hypercubes add annotations)
# ---------------------------------------------------------------------------


def merge_equal_rows(relation: ColumnarAURelation) -> ColumnarAURelation:
    """Merge rows with equal hypercubes, annotations adding pointwise.

    Equality follows the scalar semantics (``RangeValue.__eq__`` per
    attribute: ``1 == 1.0 == True``, NaN equal to nothing including itself);
    merged rows keep the first occurrence's values and position, matching the
    insertion-order merge of :meth:`AURelation.add`.
    """
    n = len(relation)
    if n == 0:
        return relation
    if not relation.columns:
        # Zero-attribute schema: every row is the empty tuple.
        return ColumnarAURelation(
            relation.schema,
            (),
            np.array([int(relation.mult_lb.sum())], dtype=np.int64),
            np.array([int(relation.mult_sg.sum())], dtype=np.int64),
            np.array([int(relation.mult_ub.sum())], dtype=np.int64),
        )
    codes = [
        _equality_codes(component)
        for column in relation.columns
        for component in (column.lb, column.sg, column.ub)
    ]
    matrix = np.column_stack(codes)
    _, first, inverse = np.unique(matrix, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    groups = len(first)
    if groups == n:
        return relation
    mult_lb = np.zeros(groups, dtype=np.int64)
    mult_sg = np.zeros(groups, dtype=np.int64)
    mult_ub = np.zeros(groups, dtype=np.int64)
    np.add.at(mult_lb, inverse, relation.mult_lb)
    np.add.at(mult_sg, inverse, relation.mult_sg)
    np.add.at(mult_ub, inverse, relation.mult_ub)
    # Emit groups in first-occurrence order so downstream sequence-number
    # tiebreakers (the <total_O sort order) see the same row order as the
    # Python backend's insertion-ordered dict.
    order = np.argsort(first, kind="stable")
    return relation.take(first[order]).with_multiplicities(
        mult_lb[order], mult_sg[order], mult_ub[order]
    )


def _equality_codes(component: np.ndarray) -> np.ndarray:
    """Dense equality codes of one bound-component array.

    Numeric arrays without NaN use ``np.unique``; everything else is coded
    through Python equality (dict keys), which reproduces the scalar
    semantics exactly — ``1 == 1.0 == True`` share a code, while each NaN
    occurrence gets a fresh one (NaN never merges, not even with itself).
    """
    if component.dtype != object:
        if component.dtype != np.float64 or not bool(np.isnan(component).any()):
            _, inverse = np.unique(component, return_inverse=True)
            return inverse.reshape(-1).astype(np.int64, copy=False)
    codes: dict = {}
    out = np.empty(len(component), dtype=np.int64)
    next_code = 0
    for i, value in enumerate(component.tolist()):
        if value != value:  # NaN-like: unique code per occurrence
            out[i] = next_code
            next_code += 1
            continue
        code = codes.get(value)
        if code is None:
            codes[value] = code = next_code
            next_code += 1
        out[i] = code
    return out
