"""Vectorized uncertain windowed aggregation over the columnar backend.

:func:`window_stage` computes the same range-annotated aggregate attribute
as :func:`repro.window.native.window_native` and
:func:`repro.window.semantics.window_rewrite` — the three implementations are
bound-identical (enforced by the differential property suite) — but replaces
the native sweep's heaps with columnar kernels and emits a
:class:`~repro.columnar.relation.ColumnarAURelation`: the aggregate column is
appended columnar-side and the Fig. 4 per-duplicate split expands the aligned
``lb`` / ``sg`` / ``ub`` arrays in bulk, so a
:class:`~repro.columnar.plan.ColumnarPlan` can keep chaining stages past a
window without materialising rows.  :func:`window_columnar` is the thin
row-major adapter the ``backend="columnar"`` entry points dispatch to.

>>> from repro.core.relation import AURelation
>>> from repro.window.spec import WindowSpec
>>> audb = AURelation.from_rows(["o", "v"], [((1, 4), 1), ((2, 6), 1), ((3, 5), (0, 1, 1))])
>>> spec = WindowSpec(function="sum", attribute="v", output="s", order_by=("o",), frame=(-1, 0))
>>> for tup, mult in window_columnar(audb, spec):
...     print(tup.value("o"), tup.value("s"), mult)
1 4 (1,1,1)
2 10 (1,1,1)
3 11 (0,1,1)

The kernel sweep:

* sort-position bound triples come from the prefix-sum kernels of
  :mod:`repro.columnar.kernels` (Equations 1-3),
* duplicates are expanded in bulk (:func:`~repro.columnar.kernels.duplicate_offsets`)
  and frame membership is resolved with a position-sorted searchsorted sweep
  (:class:`~repro.columnar.kernels.FrameMemberIndex`): candidates bucketed by
  position-interval width turn the Fig. 6 containment / overlap conditions
  into contiguous range queries, so only the *actual* (query, member) pairs
  are ever materialised (chunked to bound peak memory) instead of the
  quadratic query x candidate mask grid,
* aggregate bounds are grouped reductions over those pairs — ``bincount``
  sums for the certain members and a segmented k-pass selection
  (``np.minimum.at`` per pass, no sort of the pair list) for the min-k /
  max-k possible contributions of ``sum`` (at most ``frame_size - 1``
  candidates ever matter), and
* the selected-guess aggregate is a deterministic rolling computation over
  the selected-guess order (prefix sums for ``sum`` / ``count`` / ``avg``,
  sliding extrema for ``min`` / ``max``).

``CURRENT ROW AND N FOLLOWING`` frames use the same mirrored-order reduction
as the native sweep; certain partition-by attributes sweep per partition via
:meth:`~repro.columnar.relation.ColumnarAURelation.take`.  Results are
bit-identical to the Python backend *including row order*: sweep output rows
follow the native sweep's emission order — aggregate windows close in
``(position upper bound, position lower bound, ranked sequence)`` order — so
chained plans feed the next stage the same ``<ᵗᵒᵗᵃˡ_O`` sequence-number
tiebreakers as the row-major path.  Inputs the vectorized kernels cannot
reproduce exactly delegate to the Python backend itself
(:func:`~repro.window.native.window_native`, which also owns the dispatch of
frame classes outside the sweepable one): window specs outside the sweepable
class (two-sided frames, frames excluding the current row, uncertain
partition-by attributes), NaN-carrying relations, aggregation columns whose
float64 math is inexact (integers with ``magnitude * frame_size >= 2**53``,
float columns under ``sum`` / ``avg``).  On NaN-carrying relations the
native sweep and the definitional rewrite *genuinely disagree* (NaN breaks
the total order and their comparison strategies resolve it differently);
the columnar backend follows the **native** sweep there — it is the
implementation ``backend="columnar"`` substitutes for, and what a chained
plan's python-per-stage reference runs (pinned by
``tests/unit/test_columnar.py``).  Both backends share one rule for the
aggregation column (:func:`~repro.window.bounds.sweeps_values`): numbers
(ints, floats, bools) sweep — vectorized on a numeric dtype, through the
Python sweep on an ``object`` one — and a column holding strings or
``None`` delegates to the definitional rewrite, because the Python sweep's
connected heap negates value upper bounds; ``count`` ignores values and is
always vectorized.
"""

from __future__ import annotations

import numpy as np

from repro.columnar.kernels import (
    FrameMemberIndex,
    duplicate_offsets,
    lexsort_stable,
    sliding_window_extrema,
    sliding_window_sums,
    sort_position_bounds_ranked,
)
from repro.columnar.relation import (
    AttributeColumn,
    ColumnarAURelation,
    as_columnar,
    column_array,
    concat_relations as _concat_partials,
)
from repro.core.relation import AURelation
from repro.errors import OperatorError, WindowSpecError
from repro.window.bounds import sweeps_values
from repro.window.spec import WindowSpec

__all__ = ["window_stage", "window_columnar"]

#: Target number of materialised (query, member) pairs per sweep chunk
#: (bounds peak memory of the pair lists).
_PAIR_BUDGET = 4_000_000


def window_stage(
    relation: AURelation | ColumnarAURelation, spec: WindowSpec
) -> ColumnarAURelation:
    """Uncertain windowed aggregation emitting a columnar relation.

    Accepts either relation layout (row-major inputs are converted).  The
    result is the columnar twin of ``window_native``'s output — same
    hypercubes, annotations, and row order — so plans can keep chaining
    (e.g. ``window → select → window``) without a row-major round trip.
    Inputs outside the vectorizable class delegate to the Python backend and
    convert back (the only case a mid-plan stage touches the row-major
    layout).
    """
    columnar = as_columnar(relation)
    kind, spec, groups = _classify(columnar, spec)
    if kind != "sweep":
        return ColumnarAURelation.from_relation(
            _fallback_rows(columnar.to_relation(), spec, kind)
        )
    return _partitioned_sweep(columnar, spec, groups)


def window_columnar(
    relation: AURelation | ColumnarAURelation, spec: WindowSpec
) -> AURelation:
    """Row-major adapter over :func:`window_stage` (the plan boundary).

    This is what ``backend="columnar"`` on the window entry points dispatches
    to; results are bit-identical to ``window_native`` / ``window_rewrite``.
    Fallback paths reuse a row-major input directly instead of round-tripping
    it through the columnar layout.
    """
    columnar = as_columnar(relation)
    source = relation if isinstance(relation, AURelation) else None
    kind, spec, groups = _classify(columnar, spec)
    if kind != "sweep":
        rows = source if source is not None else columnar.to_relation()
        return _fallback_rows(rows, spec, kind)
    return _partitioned_sweep(columnar, spec, groups).to_relation()


def _classify(
    columnar: ColumnarAURelation, spec: WindowSpec
) -> tuple[str, WindowSpec, dict[tuple, list[int]] | None]:
    """Validate the spec and pick the execution path.

    Returns ``(kind, spec, partition_groups)`` with the mirrored-order
    reduction already applied to ``spec``.  ``kind`` is ``"sweep"`` (the
    vectorized kernels apply), ``"native"`` (delegate to the Python backend:
    it owns both the non-sweepable frame classes and the exact scalar math
    the float64 kernels cannot reproduce), or ``"rewrite"`` (aggregation
    columns holding strings or ``None``, which only the definitional rewrite
    covers).  ``partition_groups`` maps each certain partition key to its
    row indices, in first-occurrence order.
    """
    columnar.schema.require(list(spec.order_by))
    columnar.schema.require(list(spec.partition_by))
    if spec.attribute is not None and spec.attribute != "*":
        columnar.schema.require([spec.attribute])
    if spec.output in columnar.schema:
        raise WindowSpecError(f"output attribute {spec.output!r} already exists in the schema")

    if spec.following_only and spec.frame[1] > 0:
        # CURRENT ROW AND N FOLLOWING == N PRECEDING AND CURRENT ROW over
        # the mirrored sort order (the native sweep's reduction).
        spec = spec.mirrored()
    if not spec.preceding_only:
        return "native", spec, None

    if _contains_nan(columnar):
        # NaN breaks the total order both backends sort by: the rank-encoded
        # kernels and Python's comparison-based sorts (and min/max) resolve
        # the incoherent comparisons differently, so NaN-carrying relations
        # stay on the Python backend wholesale.
        return "native", spec, None

    if spec.function not in ("sum", "count", "min", "max", "avg"):
        # Unreachable today (WindowSpec validates against the same set);
        # guards future aggregate additions from silently taking the avg
        # branch of the kernel sweep.
        raise OperatorError(f"unsupported window aggregate {spec.function!r}")

    if spec.function != "count" and spec.attribute not in (None, "*"):
        column = columnar.column(spec.attribute)
        if not column.is_numeric:
            # An object column: numbers (ints, floats, bools mixed) take the
            # Python sweep, anything else (strings, None) the rewrite —
            # window_native applies the same rule.
            values = (v for arr in (column.lb, column.sg, column.ub) for v in arr.tolist())
            return ("native" if sweeps_values(values) else "rewrite"), spec, None
        if spec.function in ("sum", "avg") and any(
            arr.dtype == np.float64 for arr in (column.lb, column.sg, column.ub)
        ):
            # Sum bounds select min-k / max-k member subsets per window; the
            # vectorized selection and the tuple-at-a-time implementations
            # assemble them differently, so float columns (where rounding
            # could expose that) delegate to the Python backend.
            return "native", spec, None
        if not _float64_exact(column, spec.frame_size):
            # The masked bound kernels compare and accumulate in float64;
            # integers large enough that a value (or a window sum) exceeds
            # 2**53 would be silently rounded (cf. the same guard in
            # kernels.component_rank_codes).
            return "native", spec, None

    if spec.partition_by:
        groups = _certain_partition_groups(columnar, spec.partition_by)
        if groups is None:
            return "native", spec, None
        return "sweep", spec, groups
    return "sweep", spec, None


def _fallback_rows(rows: AURelation, spec: WindowSpec, kind: str) -> AURelation:
    """Delegate to the scalar backends (local imports: avoid cycles)."""
    if kind == "rewrite":
        from repro.window.semantics import window_rewrite

        return window_rewrite(rows, spec)
    from repro.window.native import window_native

    return window_native(rows, spec)


def _partitioned_sweep(
    columnar: ColumnarAURelation,
    spec: WindowSpec,
    groups: dict[tuple, list[int]] | None,
    *,
    strict_tiebreak: str | None = None,
) -> ColumnarAURelation:
    """The kernel sweep, split per (certain) partition when requested.

    Partition groups come only from :func:`_certain_partition_groups`, so an
    uncertain partition key never reaches here — ``_classify`` already
    returned the ``"native"`` fallback for it.  ``strict_tiebreak`` passes
    through to the sweep's position-bound sort (see :func:`_sweep_stage`);
    a strict column stays strict on every ``take`` subset, so the per-group
    split preserves the contract.
    """
    if groups is None:
        return _sweep_stage(columnar, spec, strict_tiebreak=strict_tiebreak)
    partials = [
        _sweep_stage(columnar.take(indices), spec, strict_tiebreak=strict_tiebreak)
        for indices in groups.values()
    ]
    if not partials:
        return _empty_result(columnar, spec)
    return _concat_partials(partials)


def _empty_result(columnar: ColumnarAURelation, spec: WindowSpec) -> ColumnarAURelation:
    empty = np.empty(0, dtype=np.int64)
    return columnar.mask(np.zeros(len(columnar), dtype=bool)).with_column(
        AttributeColumn(spec.output, empty, empty, empty)
    )


def _contains_nan(columnar: ColumnarAURelation) -> bool:
    """Whether any bound component anywhere in the relation is NaN.

    Every column can enter the sort keys (order-by columns directly, the rest
    as ``<ᵗᵒᵗᵃˡ_O`` tiebreakers) or the aggregate, so the check is global.
    """
    for column in columnar.columns:
        for arr in (column.lb, column.sg, column.ub):
            if arr.dtype == np.float64 and bool(np.isnan(arr).any()):
                return True
            if arr.dtype == object and any(
                type(v) is float and v != v for v in arr.tolist()
            ):
                return True
    return False


def _float64_exact(column, frame_size: int) -> bool:
    """Whether every window aggregate over the column is exact in float64.

    A window sum combines at most ``frame_size`` member values, so integer
    bound components stay exact when ``frame_size * max|value|`` fits the
    float64 integer range (the shared exactness scan of
    :func:`repro.columnar.relation.profile_components`).
    """
    from repro.columnar.relation import FLOAT64_EXACT_MAX, profile_components

    profile = profile_components((column.lb, column.sg, column.ub))
    return profile.int_magnitude * max(1, frame_size) < FLOAT64_EXACT_MAX


def _certain_partition_groups(
    columnar: ColumnarAURelation, partition_by: tuple[str, ...]
) -> dict[tuple, list[int]] | None:
    """Row indices per partition key (first-occurrence order), ``None`` if a key is uncertain."""
    columns = [columnar.column(name) for name in partition_by]
    for column in columns:
        if len(columnar) and not bool(np.all(column.lb == column.ub)):
            return None
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(zip(*[column.sg.tolist() for column in columns])):
        groups.setdefault(key, []).append(i)
    return groups


def _sweep_stage(
    columnar: ColumnarAURelation,
    spec: WindowSpec,
    *,
    strict_tiebreak: str | None = None,
) -> ColumnarAURelation:
    """The vectorized window sweep over one partition (preceding-only frames).

    Emits a columnar relation whose rows follow the native sweep's emission
    order — windows close in ``(pos_ub, pos_lb, ranked sequence)`` order,
    where the ranked sequence is the order the native sort's output dict
    would enumerate the duplicates in — so the result is the columnar twin
    of the Python backend's insertion-ordered output.
    """
    n = len(columnar)
    if n == 0:
        return _empty_result(columnar, spec)
    preceding = -spec.frame[0]
    frame_size = spec.frame_size

    lower, sg, upper, latest_rank = sort_position_bounds_ranked(
        columnar,
        spec.order_by,
        descending=spec.descending,
        strict_tiebreak=strict_tiebreak,
    )

    if spec.function == "count" or spec.attribute in (None, "*"):
        val_lb = val_sg = val_ub = np.ones(n, dtype=np.int64)
    else:
        column = columnar.column(spec.attribute)
        val_lb, val_sg, val_ub = column.lb, column.sg, column.ub

    # Expand duplicates: the i-th copy of a row shifts its positions by i and
    # is certain / selected-guess-only / merely possible by where i falls in
    # the multiplicity triple.
    row, offset = duplicate_offsets(columnar.mult_ub)
    m = len(row)
    if m == 0:
        return _empty_result(columnar, spec)
    pos_lb = lower[row] + offset
    pos_sg = sg[row] + offset
    pos_ub = upper[row] + offset
    dup_cert = offset < columnar.mult_lb[row]
    dup_sg = offset < columnar.mult_sg[row]
    d_val_lb = val_lb[row]
    d_val_ub = val_ub[row]

    sg_agg = _selected_guess_aggregates(
        spec.function, val_sg[row], pos_sg, dup_sg, frame_size
    )

    # Frame membership as a position-sorted searchsorted sweep: the index
    # answers "which duplicates possibly fall into d's frame" with range
    # queries per interval-width bucket, so cost scales with the number of
    # *actual* member pairs instead of the full query x candidate grid.
    fval_lb = d_val_lb.astype(np.float64)
    fval_ub = d_val_ub.astype(np.float64)
    index = FrameMemberIndex(pos_lb, pos_ub, preceding)
    if m * m <= _PAIR_BUDGET:
        # Even the full pair grid fits the budget: no counting pass needed.
        chunks = [(0, m)]
    else:
        chunks = _query_chunks(index.pair_counts(pos_lb, pos_ub), _PAIR_BUDGET)

    def chunk_bounds(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        block = slice(start, stop)
        nq = stop - start
        query, member = index.member_pairs(pos_lb[block], pos_ub[block])
        # Exclude the defining duplicate itself, then split members into the
        # certain set (position interval contained in the positions the
        # window certainly covers, Fig. 6) and the merely possible rest.
        keep = member != query + start
        query, member = query[keep], member[keep]
        cert = (
            dup_cert[member]
            & (pos_lb[member] >= pos_ub[block][query] - preceding)
            & (pos_ub[member] <= pos_lb[block][query])
        )
        q_cert, e_cert = query[cert], member[cert]
        q_poss, e_poss = query[~cert], member[~cert]

        if spec.function == "sum":
            return _sum_bounds_chunk(
                q_cert, e_cert, q_poss, e_poss, fval_lb, fval_ub,
                self_lb=fval_lb[block], self_ub=fval_ub[block],
                frame_size=frame_size,
                certain_window_size=1 + np.minimum(preceding, pos_lb[block]),
                nq=nq,
            )
        if spec.function == "count":
            return _count_bounds_chunk(
                q_cert, q_poss,
                frame_size=frame_size,
                certain_window_size=1 + np.minimum(preceding, pos_lb[block]),
                nq=nq,
            )
        if spec.function in ("min", "max"):
            return _extrema_bounds_chunk(
                q_cert, e_cert, query, member, fval_lb, fval_ub,
                self_lb=fval_lb[block], self_ub=fval_ub[block],
                maximum=spec.function == "max",
            )
        # avg: envelope of the member values (Algorithm 4's delegation)
        b_lb = fval_lb[block].copy()
        np.minimum.at(b_lb, query, fval_lb[member])
        b_ub = fval_ub[block].copy()
        np.maximum.at(b_ub, query, fval_ub[member])
        return b_lb, b_ub

    w_lb = np.empty(m, dtype=np.float64)
    w_ub = np.empty(m, dtype=np.float64)
    for start, stop in chunks:
        w_lb[start:stop], w_ub[start:stop] = chunk_bounds(start, stop)

    # Integer aggregation columns produce integer bounds on the Python
    # backend (sum/min/max/count of ints, and avg's member-value extrema);
    # the masked kernels compute in float64, so cast the exactly-integral
    # results back for round-trip fidelity.  avg's selected guess (sum/len)
    # stays float like its Python counterpart.
    if all(arr.dtype == np.int64 for arr in (val_lb, val_sg, val_ub)):
        w_lb = w_lb.astype(np.int64)
        w_ub = w_ub.astype(np.int64)
        if spec.function != "avg":
            sg_agg = sg_agg.astype(np.int64)

    sg_col = _sg_column(sg_agg, dup_sg, w_lb, w_ub)

    # Emission order of the native sweep: the ranked sequence of a duplicate
    # is its position in the native sort's output (rows ordered by latest key
    # vector then input sequence, duplicates by offset); windows then close
    # in (pos_ub, pos_lb, sequence) order.
    row_order = np.argsort(latest_rank, kind="stable")  # stable: input order breaks ties
    ub_ranked = columnar.mult_ub[row_order]
    row_start = np.empty(n, dtype=np.int64)
    row_start[row_order] = np.cumsum(ub_ranked) - ub_ranked
    seq = row_start[row] + offset
    emit = lexsort_stable((seq, pos_lb, pos_ub))

    result = columnar.take(row[emit]).with_multiplicities(
        dup_cert[emit].astype(np.int64),
        dup_sg[emit].astype(np.int64),
        np.ones(m, dtype=np.int64),
    ).with_column(
        AttributeColumn(spec.output, w_lb[emit], sg_col[emit], w_ub[emit])
    )
    if m == n:
        # One duplicate per row: output hypercubes are distinct by
        # construction (the columnar layout holds one row per distinct range
        # tuple), so the AURelation.add merge cannot fire.
        return result
    # Bag inputs (ub > 1): duplicates of one row can compute equal aggregate
    # hypercubes; merge them exactly like the Python backend's
    # AURelation.add (first-occurrence order kept).
    from repro.columnar.operators import merge_equal_rows

    return merge_equal_rows(result)


def _sg_column(
    sg_agg: np.ndarray, dup_sg: np.ndarray, w_lb: np.ndarray, w_ub: np.ndarray
) -> np.ndarray:
    """Selected-guess component: the rolling aggregate clamped into the bounds.

    Selected-guess-absent duplicates fall back to the lower bound.  Matching
    dtypes clamp vectorized; mixed dtypes (avg over integer columns: float
    selected guess, integer bounds) replicate the Python backend's
    per-element ``max(lb, min(sg, ub))`` so the winning scalar keeps its
    original type, exactly like ``bounds._clamped_sg``.
    """
    if sg_agg.dtype == w_lb.dtype and w_lb.dtype == w_ub.dtype:
        return np.where(dup_sg, np.clip(sg_agg, w_lb, w_ub), w_lb)
    lb_l, ub_l = w_lb.tolist(), w_ub.tolist()
    sg_l, present = sg_agg.tolist(), dup_sg.tolist()
    return column_array(
        [
            max(lb_l[t], min(sg_l[t], ub_l[t])) if present[t] else lb_l[t]
            for t in range(len(lb_l))
        ]
    )


def _selected_guess_aggregates(
    function: str,
    values_sg: np.ndarray,
    pos_sg: np.ndarray,
    dup_sg: np.ndarray,
    frame_size: int,
) -> np.ndarray:
    """Deterministic rolling aggregate in the selected-guess world, per duplicate.

    Selected-guess-present duplicates occupy dense, distinct positions in the
    selected-guess order, so ordering by ``pos_sg`` recovers that world's sort
    order and the frame is a plain trailing window over it.  Entries of
    sg-absent duplicates are meaningless (callers fall back to the lower
    bound there).
    """
    m = len(pos_sg)
    agg = np.zeros(m, dtype=np.float64)
    present = np.flatnonzero(dup_sg)
    if len(present) == 0:
        return agg
    ordered = present[np.argsort(pos_sg[present], kind="stable")]
    vals = values_sg[ordered]
    if function == "sum":
        window_agg = sliding_window_sums(vals, frame_size)
    elif function == "count":
        window_agg = np.minimum(np.arange(len(vals)) + 1, frame_size)
    elif function == "avg":
        counts = np.minimum(np.arange(len(vals)) + 1, frame_size)
        window_agg = sliding_window_sums(vals, frame_size) / counts
    elif function == "min":
        window_agg = sliding_window_extrema(vals, frame_size, maximum=False)
    else:  # max
        window_agg = sliding_window_extrema(vals, frame_size, maximum=True)
    agg[ordered] = window_agg
    return agg


def _query_chunks(pair_counts: np.ndarray, budget: int):
    """Split the query axis so each chunk materialises at most ``budget`` pairs.

    A single query may exceed the budget on its own (its pairs must be
    materialised together); chunks therefore always advance by at least one
    query.
    """
    m = len(pair_counts)
    cumulative = np.cumsum(pair_counts)
    start = 0
    while start < m:
        base = int(cumulative[start - 1]) if start else 0
        stop = int(np.searchsorted(cumulative, base + budget, side="right"))
        stop = min(m, max(stop, start + 1))
        yield start, stop
        start = stop


def _sum_bounds_chunk(
    q_cert: np.ndarray,
    e_cert: np.ndarray,
    q_poss: np.ndarray,
    e_poss: np.ndarray,
    val_lb: np.ndarray,
    val_ub: np.ndarray,
    *,
    self_lb: np.ndarray,
    self_ub: np.ndarray,
    frame_size: int,
    certain_window_size: np.ndarray,
    nq: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Grouped min-k / max-k sum bounds over the member pairs (Algorithm 5).

    The lower bound adds the certain members' lower bounds plus the smallest
    possible contributions: ``required`` members are forced into the window
    because it certainly holds more rows than self + certain account for;
    beyond that only negative contributions can pull the sum down, limited to
    the free frame slots.  The upper bound is symmetric.  The per-query
    selection of the ``taken`` smallest candidates is one shared
    ``lexsort`` + grouped prefix sums over the pair list instead of per-row
    partial sorts of the full candidate grid.
    """
    used = 1 + np.bincount(q_cert, minlength=nq)
    slots = np.maximum(0, frame_size - used)
    required = np.clip(np.minimum(certain_window_size, frame_size) - used, 0, slots)

    lb = self_lb + _grouped_sums(q_cert, val_lb[e_cert], nq)
    ub = self_ub + _grouped_sums(q_cert, val_ub[e_cert], nq)

    if frame_size > 1 and len(q_poss):
        poss_lb = val_lb[e_poss]
        neg_total = np.bincount(q_poss[poss_lb < 0], minlength=nq)
        taken = np.minimum(slots, np.maximum(required, neg_total))
        lb = lb + _grouped_smallest_prefix_sums(q_poss, poss_lb, taken, nq)

        poss_ub = val_ub[e_poss]
        pos_total = np.bincount(q_poss[poss_ub > 0], minlength=nq)
        taken = np.minimum(slots, np.maximum(required, pos_total))
        ub = ub - _grouped_smallest_prefix_sums(q_poss, -poss_ub, taken, nq)
    return lb, ub


def _grouped_sums(groups: np.ndarray, values: np.ndarray, nq: int) -> np.ndarray:
    if len(groups) == 0:
        return np.zeros(nq, dtype=np.float64)
    return np.bincount(groups, weights=values, minlength=nq)


#: Above this per-query selection size the k-pass sweep degrades to the
#: sorted-prefix evaluation (each pass retires one distinct value per group).
_SELECTION_PASS_LIMIT = 8


def _grouped_smallest_prefix_sums(
    groups: np.ndarray, values: np.ndarray, taken: np.ndarray, nq: int
) -> np.ndarray:
    """Per group: the sum of its ``taken`` smallest values (ascending fold).

    ``taken`` is tiny in valid sweeps (at most ``frame_size - 1`` member
    slots), so the selection runs as a *segmented k-pass*: each pass takes
    every group's current minimum (``np.minimum.at``), counts its copies,
    consumes them, and retires the matched pairs — ``O(passes · pairs)``
    with at most ``max(taken)`` passes and no sort of the pair list.  This
    also keeps every partial sum a true window sum (at most ``frame_size``
    addends, covered by the ``2**53`` exactness gate) instead of a prefix
    over the whole pair list.  Selections larger than
    ``_SELECTION_PASS_LIMIT`` (huge frames) fall back to one sorted-prefix
    evaluation.  Groups with ``taken == 0`` contribute nothing and are
    dropped up front.
    """
    total = np.zeros(nq, dtype=np.float64)
    if len(groups) == 0 or not bool((taken > 0).any()):
        return total
    active = taken[groups] > 0
    if not bool(active.all()):
        groups = groups[active]
        values = values[active]
    need = np.minimum(taken, np.bincount(groups, minlength=nq))
    if int(need.max()) > _SELECTION_PASS_LIMIT:
        return _grouped_sorted_prefix_sums(groups, values, need, nq)
    while len(groups):
        floor = np.full(nq, np.inf)
        np.minimum.at(floor, groups, values)
        at_min = values == floor[groups]
        take_now = np.minimum(need, np.bincount(groups[at_min], minlength=nq))
        total += np.where(take_now > 0, floor, 0.0) * take_now
        need -= take_now
        keep = ~at_min & (need[groups] > 0)
        groups = groups[keep]
        values = values[keep]
    return total


def _grouped_sorted_prefix_sums(
    groups: np.ndarray, values: np.ndarray, take: np.ndarray, nq: int
) -> np.ndarray:
    """Sorted-prefix selection for large ``take`` (one lexsort, grouped prefix sums)."""
    order = lexsort_stable((values, groups))
    sorted_groups = groups[order]
    prefix = np.concatenate([[0.0], np.cumsum(values[order])])
    group_ids = np.arange(nq, dtype=np.int64)
    starts = np.searchsorted(sorted_groups, group_ids, side="left")
    return prefix[starts + take] - prefix[starts]


def _count_bounds_chunk(
    q_cert: np.ndarray,
    q_poss: np.ndarray,
    *,
    frame_size: int,
    certain_window_size: np.ndarray,
    nq: int,
) -> tuple[np.ndarray, np.ndarray]:
    used = 1 + np.bincount(q_cert, minlength=nq)
    lb = np.maximum(used, np.minimum(certain_window_size, frame_size))
    lb = np.minimum(lb, frame_size)
    ub = np.minimum(frame_size, used + np.bincount(q_poss, minlength=nq))
    ub = np.maximum(ub, lb)
    return lb, ub


def _extrema_bounds_chunk(
    q_cert: np.ndarray,
    e_cert: np.ndarray,
    q_all: np.ndarray,
    e_all: np.ndarray,
    val_lb: np.ndarray,
    val_ub: np.ndarray,
    *,
    self_lb: np.ndarray,
    self_ub: np.ndarray,
    maximum: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """min / max bounds: all members bound the loose side, certain members the tight one."""
    if maximum:
        ub = self_ub.copy()
        np.maximum.at(ub, q_all, val_ub[e_all])
        lb = self_lb.copy()
        np.maximum.at(lb, q_cert, val_lb[e_cert])
    else:
        lb = self_lb.copy()
        np.minimum.at(lb, q_all, val_lb[e_all])
        ub = self_ub.copy()
        np.minimum.at(ub, q_cert, val_ub[e_cert])
    return lb, ub
