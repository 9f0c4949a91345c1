"""Vectorized kernels over columnar AU-relations.

The ranking operators only ever compare tuples through three per-tuple key
vectors over the order-by attributes — *earliest*, *selected-guess*, and
*latest* (:mod:`repro.ranking.positions`).  The kernels here rank-encode
those vectors into dense ``int64`` codes (order-preserving, so lexicographic
tuple comparison becomes integer comparison) and then evaluate the paper's
Equations 1-3 with sorts, prefix sums, and binary searches instead of
per-tuple Python work:

* :func:`sort_position_bounds_ranked` — position ``(lb, sg, ub)`` triples
  for every row, bit-identical to the definitional rewrite semantics,
* :func:`selected_guess_positions` — positions under ``<ᵗᵒᵗᵃˡ_O`` in the
  selected-guess world,
* :func:`topk_candidates` — Algorithm 1's top-k early stop, vectorized: the
  rows a top-``k`` sort must rank, read off the first order-by column, so
  the kernels above run on those rows only.

Rank encoding uses :func:`repro.relational.sort.sort_key_value` for columns
stored as ``object`` arrays, so ``None`` ordering and mixed ``int``/``float``
columns behave exactly as in the Python backend; genuinely incomparable
columns (e.g. ``int`` vs ``str``) raise a clear
:class:`~repro.errors.OperatorError` naming the attribute.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.columnar.relation import AttributeColumn, ColumnarAURelation
from repro.errors import OperatorError
from repro.relational.sort import sort_key_value

__all__ = [
    "lexsort_stable",
    "dense_rank_codes",
    "order_code_matrices",
    "lex_rank_pairs",
    "sort_position_bounds_ranked",
    "selected_guess_positions",
    "oriented_key_bounds",
    "topk_candidates",
    "duplicate_offsets",
    "interval_point_match_pairs",
    "interval_overlap_pairs",
    "expand_ranges",
    "FrameMemberIndex",
    "sliding_window_sums",
    "sliding_window_extrema",
]


def lexsort_stable(keys: Sequence[np.ndarray]) -> np.ndarray:
    """``np.lexsort`` semantics (last key is primary) via chained stable argsorts.

    Bit-identical to ``np.lexsort(keys)`` — both orders are stable — but
    ~5-7x faster on large key arrays: ``np.lexsort`` pays a per-key merge
    over the full index array, while successive ``kind="stable"`` argsorts
    use the radix/timsort fast paths.  The hot sweep orderings (the window
    sweep's member-pair groupings, emission schedules, ``<ᵗᵒᵗᵃˡ_O`` key
    stacks) all sort through here.
    """
    order = np.argsort(keys[0], kind="stable")
    for key in keys[1:]:
        order = order[np.argsort(key[order], kind="stable")]
    return order


# ---------------------------------------------------------------------------
# Rank encoding
# ---------------------------------------------------------------------------


def _object_rank_codes(pools: Sequence[list], attribute: str) -> list[np.ndarray]:
    """Dense order codes for object-dtype component columns (shared code space)."""
    distinct = set()
    for pool in pools:
        distinct.update(pool)
    try:
        ordered = sorted(distinct, key=sort_key_value)
    except TypeError as exc:
        types = sorted({type(v).__name__ for v in distinct})
        raise OperatorError(
            f"cannot order attribute {attribute!r}: column mixes incomparable "
            f"scalar types {types}; clean the column to a single comparable type"
        ) from exc
    codes = {value: rank for rank, value in enumerate(ordered)}
    return [np.array([codes[v] for v in pool], dtype=np.int64) for pool in pools]


def _numeric_rank_codes(arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Dense order codes for numeric component columns (shared code space)."""
    pooled = np.concatenate(arrays)
    _, inverse = np.unique(pooled, return_inverse=True)
    inverse = inverse.astype(np.int64, copy=False)
    out = []
    offset = 0
    for arr in arrays:
        out.append(inverse[offset : offset + len(arr)])
        offset += len(arr)
    return out


def dense_rank_codes(values: Sequence, attribute: str) -> np.ndarray:
    """Order-preserving dense ``int64`` codes for one scalar column.

    Used by the deterministic columnar sort; shares the numeric fast path and
    the ``sort_key_value``-based object path with the AU-relation kernels.
    """
    from repro.columnar.relation import column_array

    arr = column_array(list(values))
    if arr.dtype != object:
        return _numeric_rank_codes([arr])[0]
    return _object_rank_codes([arr.tolist()], attribute)[0]


def component_rank_codes(
    column: AttributeColumn, components: Sequence[str] = ("lb", "sg", "ub")
) -> list[np.ndarray]:
    """Order-preserving dense codes for the requested bound components.

    All requested components share one code space so that cross-component
    comparisons (earliest of one tuple vs latest of another) remain valid.
    """
    arrays = [getattr(column, c) for c in components]
    first_dtype = arrays[0].dtype
    # The vectorized path requires one shared numeric dtype: pooling int64
    # with float64 would upcast to float64 and collapse integers >= 2**53,
    # silently breaking order-preservation.  Mixed-dtype components take the
    # exact object path instead.
    if first_dtype != object and all(arr.dtype == first_dtype for arr in arrays):
        return _numeric_rank_codes(arrays)
    return _object_rank_codes([arr.tolist() for arr in arrays], column.name)


def order_code_matrices(
    relation: ColumnarAURelation, order_by: Sequence[str], *, descending: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Earliest / selected-guess / latest code matrices over the order-by attributes.

    Row ``i`` of the matrices is the rank-encoded key vector of tuple ``i``;
    under a descending order the earliest bound of a range is its upper end,
    which the encoding realises by swapping components and negating codes.
    """
    n = len(relation)
    m = len(order_by)
    earliest = np.empty((n, m), dtype=np.int64)
    sg = np.empty((n, m), dtype=np.int64)
    latest = np.empty((n, m), dtype=np.int64)
    for j, name in enumerate(order_by):
        lb_c, sg_c, ub_c = component_rank_codes(relation.column(name))
        if descending:
            earliest[:, j] = -ub_c
            sg[:, j] = -sg_c
            latest[:, j] = -lb_c
        else:
            earliest[:, j] = lb_c
            sg[:, j] = sg_c
            latest[:, j] = ub_c
    return earliest, sg, latest


def _lex_dense_ranks(rows: np.ndarray) -> np.ndarray:
    """Dense ranks of the rows of an integer matrix under lexicographic order."""
    if len(rows) == 0:
        return np.empty(0, dtype=np.int64)
    order = lexsort_stable(tuple(rows.T[::-1]))
    ordered = rows[order]
    changed = np.any(ordered[1:] != ordered[:-1], axis=1)
    ranks_sorted = np.concatenate([[0], np.cumsum(changed)])
    ranks = np.empty(len(rows), dtype=np.int64)
    ranks[order] = ranks_sorted
    return ranks


def lex_rank_pairs(
    earliest: np.ndarray, latest: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar ranks of the earliest / latest key vectors in one shared order.

    After this step ``earliest_rank[i] <= latest_rank[j]`` iff the earliest
    key vector of ``i`` is lexicographically ``<=`` the latest key vector of
    ``j`` — all interval-lexicographic comparisons reduce to ``int64``
    comparisons.
    """
    n = len(earliest)
    ranks = _lex_dense_ranks(np.vstack([earliest, latest]))
    return ranks[:n], ranks[n:]


# ---------------------------------------------------------------------------
# Position-bound kernels (Equations 1-3)
# ---------------------------------------------------------------------------


def certainly_precedes_counts(
    earliest_rank: np.ndarray, latest_rank: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """For every tuple ``i``: total weight of tuples that certainly precede it.

    A tuple certainly precedes ``i`` when its latest key vector is strictly
    below ``i``'s earliest key vector (Equation 1's predecessor set).  A tuple
    never certainly precedes itself, so no self-correction is needed.
    """
    order = np.argsort(latest_rank, kind="stable")
    prefix = np.concatenate([[0], np.cumsum(weights[order])])
    return prefix[np.searchsorted(latest_rank[order], earliest_rank, side="left")]


def possibly_precedes_counts(
    earliest_rank: np.ndarray, latest_rank: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """For every tuple ``i``: total weight of tuples that possibly precede it.

    A tuple possibly precedes ``i`` when its earliest key vector does not
    exceed ``i``'s latest key vector (possible ties included).  The count
    includes ``i`` itself; callers subtract its own weight.
    """
    order = np.argsort(earliest_rank, kind="stable")
    prefix = np.concatenate([[0], np.cumsum(weights[order])])
    return prefix[np.searchsorted(earliest_rank[order], latest_rank, side="right")]


def selected_guess_positions(
    relation: ColumnarAURelation,
    order_by: Sequence[str],
    sg_codes: np.ndarray,
    *,
    strict_tiebreak: str | None = None,
) -> np.ndarray:
    """Position of every tuple's first duplicate in the selected-guess world.

    Orders the tuples under ``<ᵗᵒᵗᵃˡ_O`` — selected-guess order-by keys, then
    the remaining attributes, then the input sequence number — and
    accumulates selected-guess multiplicities, exactly like the Python
    backend's ``_sg_positions``.

    ``strict_tiebreak`` names an attribute whose selected-guess values are a
    strict ``int64`` permutation ordered like the *full* non-order-by
    remainder (the factorised slim schema's rank column): it settles every
    ``<ᵗᵒᵗᵃˡ_O`` tie before any later attribute or the sequence number could
    be consulted, so the sort uses it as the sole tiebreaker — skipping the
    rank-encode + sort of every remaining column — and stays bit-identical.
    """
    n = len(relation)
    in_order_by = set(order_by)
    # np.lexsort sorts by its *last* key first: sequence number (final
    # tiebreaker) goes first, then the rest attributes right-to-left, then
    # the order-by codes right-to-left.
    if strict_tiebreak is not None:
        if strict_tiebreak in in_order_by or strict_tiebreak not in relation.schema:
            raise OperatorError(
                f"strict_tiebreak {strict_tiebreak!r} must be a non-order-by attribute"
            )
        # Raw values are their own rank codes (strict int64 permutation).
        keys: list[np.ndarray] = [relation.column(strict_tiebreak).sg]
    else:
        rest = [name for name in relation.schema if name not in in_order_by]
        keys = [np.arange(n, dtype=np.int64)]
        for name in reversed(rest):
            keys.append(component_rank_codes(relation.column(name), ("sg",))[0])
    for j in reversed(range(sg_codes.shape[1])):
        keys.append(sg_codes[:, j])
    order = lexsort_stable(keys)
    weights = relation.mult_sg[order]
    running = np.cumsum(weights) - weights
    positions = np.empty(n, dtype=np.int64)
    positions[order] = running
    return positions


def sort_position_bounds_ranked(
    relation: ColumnarAURelation,
    order_by: Sequence[str],
    *,
    descending: bool = False,
    strict_tiebreak: str | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row sort-position bounds (Equations 1-3) and latest-key ranks.

    Returns ``(lower, sg, upper, latest_rank)``: the position bounds of the
    first duplicate of every row, bit-identical to
    :func:`repro.ranking.positions.position_bounds` and to what the native
    sweep emits, and the rank of every row's latest key vector.
    ``latest_rank`` orders rows by their *latest* (upper-bound) key vector —
    the comparator the native sweep's emission heap pops by.  The
    columnar-native sort / window stages order their output rows by
    ``(latest_rank, input sequence)`` so that chained plans see exactly the
    row order the Python backend's insertion-ordered dictionaries would feed
    the next stage (downstream ``<ᵗᵒᵗᵃˡ_O`` sequence-number tiebreakers
    depend on it).

    ``strict_tiebreak`` passes through to :func:`selected_guess_positions`.
    """
    earliest, sg_matrix, latest = order_code_matrices(
        relation, order_by, descending=descending
    )
    earliest_rank, latest_rank = lex_rank_pairs(earliest, latest)
    lower = certainly_precedes_counts(earliest_rank, latest_rank, relation.mult_lb)
    upper = possibly_precedes_counts(earliest_rank, latest_rank, relation.mult_ub)
    upper -= relation.mult_ub
    sg = selected_guess_positions(
        relation, order_by, sg_matrix, strict_tiebreak=strict_tiebreak
    )
    sg = np.clip(sg, lower, upper)
    return lower, sg, upper, latest_rank


def oriented_key_bounds(
    column: AttributeColumn, *, descending: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Raw ``(earliest, sg, latest)`` values of one order-by column, or ``None``.

    Under a descending order the earliest bound of a range is its upper end,
    realised by swapping and negating the components, as
    :func:`order_code_matrices` does with rank codes.  On a NaN-free column
    (the sort stage rejects NaN order-by bounds first), raw values compare
    like those codes exactly when the three components share one numeric
    dtype and negate without overflow (no ``int64`` minimum under
    ``descending``); anything else returns ``None``.
    """
    comps = (column.lb, column.sg, column.ub)
    dtype = comps[0].dtype
    if dtype.kind not in "if" or any(arr.dtype != dtype for arr in comps):
        return None
    if not descending:
        return comps
    if (
        dtype.kind == "i"
        and len(column.lb)
        and min(int(arr.min()) for arr in comps) == np.iinfo(dtype).min
    ):
        return None
    return -column.ub, -column.sg, -column.lb


def topk_candidates(
    column: AttributeColumn, mult_lb: np.ndarray, k: int, *, descending: bool = False
) -> np.ndarray | None:
    """Rows a top-``k`` sort must rank, in input order; ``None`` keeps them all.

    The columnar twin of Algorithm 1's early stop, read off the first
    order-by attribute ``column`` alone.  With ``e`` / ``l`` a row's earliest
    / latest value of it (oriented by the sort direction):

    1. ``c`` is the smallest ``l`` such that the rows with ``l <= c`` carry
       certain multiplicity (``mult_lb``) of at least ``k``.  Each of them
       certainly precedes every row with ``e > c``, whatever the later
       order-by attributes say, so such a row has ``pos_lb >= k`` and all
       its duplicates are pruned.
    2. ``r`` is the largest ``l`` among the rows with ``e <= c``.
    3. The candidates are the rows with ``e <= r``.  Every row that
       certainly precedes a candidate is a candidate too, and so is every
       row a survivor's bounds read — one that possibly precedes it, or
       precedes it under ``<ᵗᵒᵗᵃˡ_O`` — because ``e <= sg <= l`` holds for
       every row.  On the candidates, every row keeps its ``pos_lb`` and
       every survivor its position triple.

    The column holds no NaN: the sort stage rejects NaN order-by bounds
    before it asks.  Total certain multiplicity below ``k`` keeps every row;
    ``k == 0`` keeps none.
    """
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if int(mult_lb.sum()) < k:
        return None
    keys = oriented_key_bounds(column, descending=descending)
    if keys is None:
        lb, ub = component_rank_codes(column, ("lb", "ub"))
        earliest, latest = (-ub, -lb) if descending else (lb, ub)
    else:
        earliest, _sg, latest = keys
    # The k smallest latest values among certain rows hold the cutoff: each
    # carries mult_lb >= 1, so their weight alone reaches k.
    certain = np.flatnonzero(mult_lb > 0)
    if len(certain) > k:
        certain = certain[np.argpartition(latest[certain], k - 1)[:k]]
    order = certain[np.argsort(latest[certain], kind="stable")]
    cutoff = latest[order][np.searchsorted(np.cumsum(mult_lb[order]), k)]
    keep = earliest <= latest[earliest <= cutoff].max()
    if keep.all():
        return None
    return np.flatnonzero(keep)


# ---------------------------------------------------------------------------
# Frame-membership kernels (windowed aggregation, Sections 6-7)
# ---------------------------------------------------------------------------


def duplicate_offsets(mult_ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand a multiplicity-upper-bound vector into per-duplicate indexes.

    Returns ``(row, offset)`` arrays of length ``sum(mult_ub)``: duplicate
    ``t`` belongs to input row ``row[t]`` and is that row's ``offset[t]``-th
    copy.  The ``i``-th duplicate's sort position is the row's base position
    shifted by ``i`` (the split of Fig. 4 / Algorithm 2).
    """
    total = int(mult_ub.sum()) if len(mult_ub) else 0
    row = np.repeat(np.arange(len(mult_ub), dtype=np.int64), mult_ub)
    starts = np.cumsum(mult_ub) - mult_ub
    offset = np.arange(total, dtype=np.int64) - np.repeat(starts, mult_ub)
    return row, offset


def expand_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, stop)`` for every aligned (start, stop) pair.

    The vectorized replacement for ``[i for s, t in zip(starts, stops) for i
    in range(s, t)]`` — turns per-query searchsorted bounds into the flat
    member-index list of the pair sweep.
    """
    counts = stops - starts
    total = int(counts.sum()) if len(counts) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


class FrameMemberIndex:
    """Width-bucketed, position-sorted index over expanded duplicates.

    Answers the frame-membership queries of the columnar window sweep with
    ``np.searchsorted`` range queries instead of ``O(queries x n)`` boolean
    masks.  For an ``N PRECEDING AND CURRENT ROW`` frame, candidate ``e``
    *possibly* falls into the frame of defining duplicate ``d`` iff its
    position interval overlaps ``[pos_lb[d] - N, pos_ub[d]]`` (the overlap
    condition of Fig. 6):

        ``pos_lb[e] <= pos_ub[d]  and  pos_ub[e] >= pos_lb[d] - N``.

    Bucketing candidates by interval width ``w = pos_ub - pos_lb`` rewrites
    the two-sided condition as a single contiguous range over the bucket's
    sorted ``pos_lb`` — ``pos_lb[e] in [pos_lb[d] - N - w, pos_ub[d]]`` — so
    each (query, bucket) pair costs two binary searches, and materialising
    the members costs ``O(pairs)``.  Total work is ``O((n + q·W) log n +
    pairs)`` with ``W`` distinct widths: linear-ish in the *actual* number of
    possible members instead of quadratic in the relation size.

    All (query, bucket) searches run as *one* ``np.searchsorted`` call: the
    buckets are concatenated in ascending-width order with their normalised
    ``pos_lb`` values shifted by ``bucket_index * stride`` (``stride`` wider
    than the position range, so buckets cannot collide), query values are
    clamped into the bucket's slot and shifted the same way, and the
    resulting bounds are *global* indices into the concatenated member
    array — no per-bucket Python loop.
    """

    __slots__ = ("preceding", "_members", "_widths", "_shifted_lb", "_base", "_stride")

    def __init__(self, pos_lb: np.ndarray, pos_ub: np.ndarray, preceding: int):
        self.preceding = preceding
        width = pos_ub - pos_lb
        if len(width) == 0:
            self._members = np.empty(0, dtype=np.int64)
            self._widths = np.empty(0, dtype=np.int64)
            self._shifted_lb = np.empty(0, dtype=np.int64)
            self._base = np.int64(0)
            self._stride = np.int64(1)
            return
        # Members sorted by (width, pos_lb): each width bucket is a
        # contiguous, pos_lb-sorted run of the concatenated array.
        order = lexsort_stable((pos_lb, width))
        self._members = order
        sorted_width = width[order]
        bucket_of_member = np.cumsum(
            np.concatenate([[0], (sorted_width[1:] != sorted_width[:-1]).astype(np.int64)])
        )
        starts = np.flatnonzero(
            np.concatenate([[True], sorted_width[1:] != sorted_width[:-1]])
        )
        self._widths = sorted_width[starts]
        self._base = np.int64(pos_lb.min())
        self._stride = np.int64(pos_lb.max()) - self._base + 2
        self._shifted_lb = (pos_lb[order] - self._base) + bucket_of_member * self._stride

    #: Cell budget for the (buckets x queries) bound matrices: query slices
    #: are sized so one batched searchsorted never materialises more cells.
    _CELL_BUDGET = 4_000_000

    def _bucket_bounds(
        self, q_lb: np.ndarray, q_ub: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Global ``[low, high)`` member-array bounds per (bucket, query).

        Returns flattened bucket-major ``(buckets * queries,)`` arrays.  The
        query endpoints are clamped into the bucket's slot
        (``[0, stride - 1]`` for the left bound, ``[-1, stride - 1]`` for the
        right so an endpoint below every position yields an empty run) before
        shifting, so an out-of-range endpoint saturates at its own bucket's
        edge instead of bleeding into a neighbour.
        """
        buckets = len(self._widths)
        lo_values = np.clip(
            q_lb[None, :] - self.preceding - self._widths[:, None] - self._base,
            0,
            self._stride - 1,
        )
        hi_values = np.clip(q_ub - self._base, -1, self._stride - 1)
        shift = (np.arange(buckets, dtype=np.int64) * self._stride)[:, None]
        low = np.searchsorted(self._shifted_lb, (lo_values + shift).ravel(), side="left")
        high = np.searchsorted(
            self._shifted_lb, (hi_values[None, :] + shift).ravel(), side="right"
        )
        return low, np.maximum(low, high)

    def _query_slices(self, queries: int):
        step = max(1, self._CELL_BUDGET // max(1, len(self._widths)))
        for start in range(0, queries, step):
            yield start, min(queries, start + step)

    def pair_counts(self, q_lb: np.ndarray, q_ub: np.ndarray) -> np.ndarray:
        """Per query: how many duplicates possibly fall into its frame.

        Used to budget the sweep's memory (queries are chunked so the
        materialised pair list stays bounded).
        """
        buckets = len(self._widths)
        totals = np.zeros(len(q_lb), dtype=np.int64)
        if buckets == 0:
            return totals
        for start, stop in self._query_slices(len(q_lb)):
            low, high = self._bucket_bounds(q_lb[start:stop], q_ub[start:stop])
            totals[start:stop] = (high - low).reshape(buckets, stop - start).sum(axis=0)
        return totals

    def member_pairs(
        self, q_lb: np.ndarray, q_ub: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(query, member)`` index pairs for all possible frame members.

        ``query`` indexes the ``q_lb`` / ``q_ub`` arrays (a chunk of defining
        duplicates), ``member`` the duplicates this index was built over.
        Certain members are a subset (containment implies overlap); callers
        classify them per pair and drop the self pair.  Pair order is
        deterministic but unspecified across query slices; every consumer
        reduces per (query, member) group, so the order never reaches results.
        """
        if len(self._widths) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        query_parts: list[np.ndarray] = []
        member_parts: list[np.ndarray] = []
        for start, stop in self._query_slices(len(q_lb)):
            low, high = self._bucket_bounds(q_lb[start:stop], q_ub[start:stop])
            counts = high - low
            query_parts.append(
                start
                + np.repeat(
                    np.tile(np.arange(stop - start, dtype=np.int64), len(self._widths)),
                    counts,
                )
            )
            member_parts.append(self._members[expand_ranges(low, high)])
        if len(query_parts) == 1:
            return query_parts[0], member_parts[0]
        return np.concatenate(query_parts), np.concatenate(member_parts)


def interval_point_match_pairs(
    lb: np.ndarray, ub: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(interval, point)`` index pairs with ``points[j]`` inside ``[lb[i], ub[i]]``.

    The memory-safe replacement for the pair-grid equi-join when one side's
    key column is certain: sorting the point values once turns every
    interval's possible-overlap match set into a contiguous run bounded by
    two binary searches (``searchsorted`` on the interval endpoints), so the
    work is ``O((n + q) log n + matches)`` instead of ``O(n · q)`` pairs.

    Pairs are emitted grouped by interval; callers needing a specific pair
    order (the join's left-outer / right-inner order) sort the result.
    Inputs must be NaN-free numeric arrays whose cross-dtype promotion is
    exact — the callers gate on :class:`~repro.columnar.relation.ComponentProfile`.
    """
    order = np.argsort(points, kind="stable")
    sorted_points = points[order]
    lo = np.searchsorted(sorted_points, lb, side="left")
    hi = np.maximum(lo, np.searchsorted(sorted_points, ub, side="right"))
    counts = hi - lo
    interval_idx = np.repeat(np.arange(len(lb), dtype=np.int64), counts)
    point_idx = order[expand_ranges(lo, hi)]
    return interval_idx, point_idx


def interval_overlap_pairs(
    l_lb: np.ndarray, l_ub: np.ndarray, r_lb: np.ndarray, r_ub: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(left, right)`` index pairs whose ``[lb, ub]`` intervals overlap.

    The range×range sweep kernel: when *both* join sides carry uncertain
    keys, the possibly-equal pairs are exactly the pairs whose key intervals
    intersect — ``l_lb[i] <= r_ub[j]  and  r_lb[j] <= l_ub[i]``.  The four
    endpoint arrays are rank-encoded into one shared ``int64`` code space
    (overlap only compares endpoints with ``<=``, which dense codes
    preserve), then a :class:`FrameMemberIndex` over the right intervals with
    ``preceding=0`` answers every left interval's overlap set as contiguous
    searchsorted runs per width bucket — ``O((n + q·W) log n + pairs)`` with
    ``W`` distinct right-interval widths, instead of the grid's ``O(n · q)``.

    Pair order is deterministic but unspecified; callers needing the join's
    left-outer / right-inner order sort the result.  Inputs must be NaN-free
    numeric arrays whose cross-dtype promotion is exact — the callers gate on
    :class:`~repro.columnar.relation.ComponentProfile`.
    """
    if len(l_lb) == 0 or len(r_lb) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    q_lb, q_ub, m_lb, m_ub = _numeric_rank_codes([l_lb, l_ub, r_lb, r_ub])
    index = FrameMemberIndex(m_lb, m_ub, 0)
    return index.member_pairs(q_lb, q_ub)


def sliding_window_sums(values: np.ndarray, window: int) -> np.ndarray:
    """Rolling sums of the trailing ``window`` values (prefix-sum shaped).

    ``out[i] = sum(values[max(0, i - window + 1) : i + 1])`` — the
    selected-guess aggregate of an ``N PRECEDING AND CURRENT ROW`` frame over
    a dense, deterministic order.
    """
    n = len(values)
    prefix = np.concatenate([[0], np.cumsum(values)])
    starts = np.maximum(0, np.arange(n) + 1 - window)
    return prefix[1:] - prefix[starts]


def sliding_window_extrema(values: np.ndarray, window: int, *, maximum: bool) -> np.ndarray:
    """Rolling min/max of the trailing ``window`` values (sliding-extrema shaped).

    Pads the front with the identity element so that truncated leading
    windows reduce over exactly the available values.  ``int64`` inputs stay
    ``int64`` (identity from ``np.iinfo``), preserving exactness for
    integers beyond float64's 2**53 range; other inputs reduce in float64.
    """
    if len(values) == 0:
        return np.empty(0, dtype=values.dtype)
    # A trailing window never holds more rows than exist; clamping keeps the
    # padding (and the O(n * window) reduction) bounded for huge frames.
    window = min(window, len(values))
    if values.dtype == np.int64:
        identity = np.iinfo(np.int64).min if maximum else np.iinfo(np.int64).max
        padded = np.concatenate([np.full(window - 1, identity, dtype=np.int64), values])
    else:
        identity = -np.inf if maximum else np.inf
        padded = np.concatenate([np.full(window - 1, identity), values.astype(np.float64)])
    view = np.lib.stride_tricks.sliding_window_view(padded, window)
    return view.max(axis=1) if maximum else view.min(axis=1)
