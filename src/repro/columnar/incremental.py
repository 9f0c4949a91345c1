"""Incremental maintenance of materialised plan results under delta streams.

An :class:`IncrementalView` wraps a plan tree (:class:`~repro.plan.PlanSpec`)
over a base :class:`~repro.core.relation.AURelation` and keeps the
materialised result current under ``apply_delta(inserts, retracts)`` calls —
the serving-style access pattern (millions of small reads against
slowly-changing data) where re-running the plan per delta would spend almost
all of its time re-deriving state a small delta barely moved.

The position-bound machinery of the paper (Equations 1-3) is
searchsorted-shaped: every bound is a prefix sum evaluated at a binary-search
boundary over key-sorted arrays.  An insertion or retraction therefore
shifts bounds by *rank-interval offsets* that can be patched against
maintained sorted permutations instead of recomputed:

* the **prefix** of the tree (``select`` / ``extend`` / ``rename`` nodes,
  the row-local stages) runs on the delta rows only, through the same
  columnar interpreter as the whole plan; the maintained columnar stage
  input is masked / concatenated, never rebuilt;
* a **sort / top-k** node on top keeps three permutations of the stage
  input — latest-key order (also the emission order), earliest-key order,
  and the ``<ᵗᵒᵗᵃˡ_O`` selected-guess order.  Deltas splice rows in and out
  with ``np.searchsorted`` + ``np.insert``
  (:func:`~repro.columnar.kernels.permutation_insert` /
  :func:`~repro.columnar.kernels.permutation_delete`) and re-evaluate the
  bounds with :func:`~repro.columnar.kernels.rank_offset_bounds` — two
  binary-search passes over the maintained orders, no argsort;
* a **window** node on top (certain ``PARTITION BY`` keys) keeps a
  per-partition result cache keyed by stable row ids: only partitions the
  delta touched re-sweep, untouched partials are reused verbatim.

Whenever a stage class has no sound patch rule — uncertain partition keys,
NaN-carrying columns, object-dtype keys, bag-merging stages (``project`` /
``join`` / ``groupby_aggregate``),
a retraction that removes only part of a tuple's multiplicity, or an insert
colliding with an existing hypercube — the view falls back to a full
recompute from the accumulated base, so every delta sequence yields exactly
the from-scratch result (`last_apply` records which path ran; the
differential property suite pins patched == recomputed bit for bit).

>>> from repro.plan import PlanSpec
>>> from repro.core.expressions import attr, const
>>> from repro.core.relation import AURelation
>>> base = AURelation.from_rows(["k", "v"], [((1, 10), 1), ((2, 30), 1)])
>>> view = IncrementalView(base, PlanSpec().topk(["v"], 1, descending=True))
>>> for t, _m in view.to_rows():
...     print(t.value("k"))
2
>>> view.apply_delta(inserts=AURelation.from_rows(["k", "v"], [((3, 99), 1)]))
>>> view.last_apply
'patched'
>>> for t, _m in view.to_rows():
...     print(t.value("k"))
3
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.columnar import operators as ops
from repro.columnar.kernels import (
    oriented_key_bounds,
    permutation_delete,
    permutation_insert,
    rank_offset_bounds,
)
from repro.columnar.plan import ColumnarPlan, run_columnar
from repro.columnar.relation import ColumnarAURelation, concat_relations
from repro.columnar.sort import ranked_emission
from repro.core.expressions import attr
from repro.core.multiplicity import Multiplicity
from repro.core.relation import AURelation
from repro.errors import OperatorError, PlanError
from repro.plan import Extend, Filter, PlanSpec, Rename, Sort, TopK, Window, is_input

__all__ = ["IncrementalView", "as_delta", "merge_delta"]

#: Row-local nodes the view maintains by running them on delta rows only.
_PREFIX_NODES = (Filter, Extend, Rename)

#: Ranking nodes with a dedicated patch rule when they top the tree.
_RANKED_NODES = (Sort, TopK, Window)


# ---------------------------------------------------------------------------
# Delta algebra over the accumulated base
# ---------------------------------------------------------------------------


def merge_delta(
    base: AURelation,
    inserts: AURelation | None,
    retracts: AURelation | None,
) -> tuple[AURelation, bool]:
    """Apply an append/retract delta to a base relation, without mutating it.

    Returns ``(new_base, patchable)``.  Retractions apply first, then
    insertions; a retraction must name an existing hypercube and remove at
    most its stored multiplicity (componentwise, and the remainder must stay
    a valid ``lb <= sg <= ub`` triple) — anything else raises
    :class:`~repro.errors.OperatorError` and leaves every input untouched.

    ``patchable`` reports whether the delta only removed *whole* rows and
    inserted *fresh* hypercubes — the delta class the per-stage patch rules
    are sound for.  Partial retractions and merging inserts still produce the
    correct accumulated base here; the caller recomputes from it instead of
    patching.
    """
    rows = dict(base._rows)
    patchable = True
    retracted: set = set()
    if retracts is not None:
        for tup, mult in retracts:
            values = tup.values
            stored = rows.get(values)
            if stored is None:
                raise OperatorError(
                    f"cannot retract {values!r}: no such tuple in the base relation"
                )
            remaining = _subtract(stored, mult, values)
            retracted.add(values)
            if remaining is None:
                del rows[values]
            else:
                rows[values] = remaining
                patchable = False
    if inserts is not None:
        for tup, mult in inserts:
            values = tup.values
            stored = rows.get(values)
            if stored is not None or values in retracted:
                # Merging insert (or retract-then-reinsert): correct under
                # AURelation.add semantics, but not a whole-row delta.
                rows[values] = mult if stored is None else stored.add(mult)
                patchable = False
            else:
                rows[values] = mult
    out = AURelation(base.schema)
    out._rows = rows
    return out, patchable


def _subtract(stored: Multiplicity, mult: Multiplicity, values) -> Multiplicity | None:
    lb, sg, ub = stored.lb - mult.lb, stored.sg - mult.sg, stored.ub - mult.ub
    if min(lb, sg, ub) < 0 or not (lb <= sg <= ub):
        raise OperatorError(
            f"cannot retract {mult} of {values!r}: stored multiplicity is {stored}"
        )
    if ub == 0 and sg == 0 and lb == 0:
        return None
    return Multiplicity(lb, sg, ub)


def as_delta(delta, schema, label: str) -> AURelation | None:
    """Validate one side of a delta against ``schema``; ``None`` when empty.

    A columnar delta converts to row-major; anything that is not a relation,
    or whose schema differs from ``schema`` (arity *or* column order), raises
    :class:`~repro.errors.OperatorError`.  Views and the serving layer both
    run this before :func:`merge_delta` touches anything.
    """
    if delta is None:
        return None
    if isinstance(delta, ColumnarAURelation):
        delta = delta.to_relation()
    if not isinstance(delta, AURelation):
        raise OperatorError(f"{label} must be an AURelation, got {type(delta).__name__}")
    if delta.schema != schema:
        raise OperatorError(
            f"{label} schema {delta.schema} does not match the view's base schema {schema}"
        )
    return delta if len(delta) else None


# ---------------------------------------------------------------------------
# Plan-shape analysis
# ---------------------------------------------------------------------------


def _split_spec(spec: PlanSpec):
    """``(prefix, ranked_or_None)`` when patch rules exist, else ``None``.

    The patchable shape is a chain of ``select`` / ``extend`` / ``rename``
    nodes over the one input (the prefix subtree), optionally topped by
    exactly one ``sort`` / ``topk`` / ``window`` node.  Every other node
    merges or multiplies rows across hypercubes (``project``, ``join``,
    ``groupby_aggregate``) and has no whole-row patch rule, so those plans
    always recompute.
    """
    ranked = spec if isinstance(spec, _RANKED_NODES) else None
    prefix = spec.child if ranked is not None else spec
    node = prefix
    while isinstance(node, _PREFIX_NODES):
        node = node.child
    if not is_input(node):
        return None
    return prefix, ranked


def _run_prefix(prefix: PlanSpec, relation: AURelation) -> ColumnarAURelation:
    return run_columnar(prefix, lambda _leaf: ColumnarPlan(relation), []).columnar()


# ---------------------------------------------------------------------------
# Per-stage patch state
# ---------------------------------------------------------------------------


def _oriented_sort_arrays(cols: ColumnarAURelation, order_by: str, descending: bool):
    """Oriented raw key arrays ``(earliest, sg, latest, rest_sg)`` or ``None``.

    The patch compares raw values where the from-scratch kernels compare
    dense rank codes; the two are order-isomorphic exactly when every
    compared array is uniform-numeric and NaN-free, so anything else
    (object dtype, mixed components, NaN, an ``int64`` minimum that a
    descending negation would overflow) returns ``None`` and the view
    recomputes instead.  The order-by column's check is
    :func:`~repro.columnar.kernels.oriented_key_bounds`, which the top-k
    prefilter shares.
    """
    keys = oriented_key_bounds(cols.column(order_by), descending=descending)
    if keys is None:
        return None
    rest = []
    for name in cols.schema:
        if name == order_by:
            continue
        sg_arr = cols.column(name).sg
        if sg_arr.dtype == object:
            return None
        if sg_arr.dtype == np.float64 and bool(np.isnan(sg_arr).any()):
            return None
        rest.append(sg_arr)
    return (*keys, rest)


class _SortState:
    """Maintained permutations for a trailing ``sort`` / ``topk`` stage.

    ``latest_perm`` orders stage-input rows by (oriented latest key, row
    index) — which is also the stage's emission order; ``earliest_perm`` by
    (oriented earliest key, row index); ``total_perm`` by the ``<ᵗᵒᵗᵃˡ_O``
    selected-guess order (order-by selected guess, the remaining columns'
    selected guesses in schema order, row index).  Position bounds re-derive
    from these with :func:`~repro.columnar.kernels.rank_offset_bounds`.
    """

    __slots__ = ("order_by", "descending", "k", "pos_attr", "latest_perm",
                 "earliest_perm", "total_perm")

    def __init__(self, order_by, descending, k, pos_attr, latest_perm,
                 earliest_perm, total_perm):
        self.order_by = order_by
        self.descending = descending
        self.k = k
        self.pos_attr = pos_attr
        self.latest_perm = latest_perm
        self.earliest_perm = earliest_perm
        self.total_perm = total_perm

    @staticmethod
    def build(cols: ColumnarAURelation, node: "Sort | TopK") -> "_SortState | None":
        order_by = node.order_by
        if len(order_by) != 1:
            # Multi-key sorts compare lexicographic rank *vectors*; raw
            # per-column values cannot replay that with one searchsorted.
            return None
        descending = bool(node.descending)
        k = node.k if isinstance(node, TopK) else None
        pos_attr = node.position_attribute
        arrays = _oriented_sort_arrays(cols, order_by[0], descending)
        if arrays is None:
            return None
        earliest, sg, latest, rest = arrays
        n = len(cols)
        keys = [np.arange(n, dtype=np.int64)]
        keys.extend(reversed(rest))
        keys.append(sg)
        from repro.columnar.kernels import lexsort_stable

        return _SortState(
            order_by[0],
            descending,
            k,
            pos_attr,
            np.argsort(latest, kind="stable"),
            np.argsort(earliest, kind="stable"),
            lexsort_stable(keys),
        )

    def patched(self, new_input: ColumnarAURelation, keep, n_kept: int, n_new: int):
        arrays = _oriented_sort_arrays(new_input, self.order_by, self.descending)
        if arrays is None:
            return None
        earliest, sg, latest, rest = arrays

        latest_perm, earliest_perm, total_perm = (
            self.latest_perm, self.earliest_perm, self.total_perm,
        )
        if keep is not None:
            latest_perm = permutation_delete(latest_perm, keep)
            earliest_perm = permutation_delete(earliest_perm, keep)
            total_perm = permutation_delete(total_perm, keep)
        if n_new:
            new_idx = np.arange(n_kept, n_kept + n_new, dtype=np.int64)
            # side="right": a new row lands after every equal key — its row
            # index exceeds any existing one, matching the stable tie order.
            # Batches insert in key order so equal splice points stay sorted.
            order = np.argsort(latest[n_kept:], kind="stable")
            latest_perm = permutation_insert(
                latest_perm,
                np.searchsorted(latest[:n_kept][latest_perm], latest[n_kept:][order], side="right"),
                new_idx[order],
            )
            order = np.argsort(earliest[n_kept:], kind="stable")
            earliest_perm = permutation_insert(
                earliest_perm,
                np.searchsorted(earliest[:n_kept][earliest_perm], earliest[n_kept:][order], side="right"),
                new_idx[order],
            )

            def total_key(i):
                i = int(i)
                return (sg[i], *(r[i] for r in rest), i)

            order = sorted(range(n_kept, n_kept + n_new), key=total_key)
            positions = np.array(
                [bisect.bisect_left(total_perm, total_key(i), key=total_key) for i in order],
                dtype=np.int64,
            )
            total_perm = permutation_insert(
                total_perm, positions, np.array(order, dtype=np.int64)
            )

        lower, upper = rank_offset_bounds(
            earliest, latest, new_input.mult_lb, new_input.mult_ub,
            earliest_perm, latest_perm,
        )
        weights = new_input.mult_sg[total_perm]
        running = np.cumsum(weights) - weights
        sg_pos = np.empty(len(new_input), dtype=np.int64)
        sg_pos[total_perm] = running
        sg_pos = np.clip(sg_pos, lower, upper)

        ranked = ranked_emission(
            new_input, lower, sg_pos, upper, latest_perm,
            k=self.k, position_attribute=self.pos_attr,
        )
        if self.k is not None:
            ranked = ops.select(ranked, attr(self.pos_attr).lt(self.k))
        state = _SortState(
            self.order_by, self.descending, self.k, self.pos_attr,
            latest_perm, earliest_perm, total_perm,
        )
        return state, ranked.to_relation()


class _WindowState:
    """Per-partition result cache for a trailing ``window`` stage.

    Rows carry stable monotone ids; a partition whose id sequence is
    unchanged by a delta reuses its cached sweep partial verbatim (sound
    because the patch path only ever inserts or deletes whole rows, so an
    identical id sequence means an identical row subset in identical order).
    Only touched partitions re-sweep.
    """

    __slots__ = ("spec", "ids", "next_id", "cache")

    def __init__(self, spec, ids, next_id, cache):
        self.spec = spec
        self.ids = ids
        self.next_id = next_id
        self.cache = cache

    @staticmethod
    def build(cols: ColumnarAURelation, node: Window) -> "_WindowState | None":
        spec = node.spec
        if not spec.partition_by:
            # No partitions to localise a delta to: one global sweep has no
            # cheaper patch than recomputing the stage.
            return None
        state = _WindowState(spec, np.arange(len(cols), dtype=np.int64), len(cols), {})
        computed = state._compute(cols)
        if computed is None:
            return None
        state.cache = computed[0]
        return state

    def _compute(self, cols: ColumnarAURelation):
        """``(cache, result_rows)`` or ``None`` when the stage is unpatchable.

        Cache entries hold the *row-major* sweep partial per partition;
        untouched partitions contribute their cached rows without re-sweeping
        or re-materialising.  The final result is the partition partials'
        row dictionaries merged in partition order — the exact insertion
        order the from-scratch path's concat-then-convert produces (rows in
        different partitions differ on a partition attribute, so the merge
        can never collide across partials), and ``dict.update`` reuses the
        stored key hashes, so unchanged partitions cost no Python hashing.
        """
        from repro.columnar.window import _classify, _empty_result, _sweep_stage

        kind, sweep_spec, groups = _classify(cols, self.spec)
        if kind != "sweep" or groups is None:
            return None
        cache: dict = {}
        partials = []
        for key, indices in _partition_keys(cols, self.spec.partition_by):
            idx = np.asarray(indices, dtype=np.int64)
            signature = self.ids[idx].tobytes()
            cached = self.cache.get(key)
            if cached is not None and cached[0] == signature:
                partial = cached[1]
            else:
                partial = _sweep_stage(cols.take(idx), sweep_spec).to_relation()
            cache[key] = (signature, partial)
            partials.append(partial)
        if not partials:
            return cache, _empty_result(cols, sweep_spec).to_relation()
        result = AURelation(partials[0].schema)
        for partial in partials:
            result._rows.update(partial._rows)
        return cache, result

    def patched(self, new_input: ColumnarAURelation, keep, n_kept: int, n_new: int):
        ids = self.ids if keep is None else self.ids[keep]
        if n_new:
            ids = np.concatenate(
                [ids, np.arange(self.next_id, self.next_id + n_new, dtype=np.int64)]
            )
        state = _WindowState(self.spec, ids, self.next_id + n_new, self.cache)
        computed = state._compute(new_input)
        if computed is None:
            return None
        state.cache, result = computed
        return state, result


def _locate_row(cols: ColumnarAURelation, gone: ColumnarAURelation, j: int):
    """Position of ``gone``'s ``j``-th row inside ``cols``, or ``None``.

    Vectorized whole-tuple equality, column component by column component —
    no per-row Python hashing of range-value tuples (the dictionary lookup
    this replaces dominated small-delta patch time).  Maintained inputs hold
    one row per distinct hypercube, so exactly one match is expected;
    anything else reports failure and the caller recomputes.
    """
    mask = np.ones(len(cols), dtype=bool)
    for name in cols.schema:
        column = cols.column(name)
        target = gone.column(name)
        for component in ("lb", "sg", "ub"):
            hit = getattr(column, component) == getattr(target, component)[j]
            if not isinstance(hit, np.ndarray):  # dtype mismatch broadcast
                return None
            mask &= hit
            if not mask.any():
                return None
    positions = np.flatnonzero(mask)
    if len(positions) != 1:  # pragma: no cover - defensive
        return None
    return positions[0]


def _partition_keys(cols: ColumnarAURelation, partition_by):
    """``(key, row_indices)`` pairs in first-occurrence order.

    Mirrors :func:`repro.columnar.window._certain_partition_groups` (which the
    classifier has already validated as certain), additionally exposing the
    key tuples the partial cache is addressed by.
    """
    columns = [cols.column(name) for name in partition_by]
    groups: dict = {}
    for i, key in enumerate(zip(*[column.sg.tolist() for column in columns])):
        groups.setdefault(key, []).append(i)
    return list(groups.items())


class _ViewState:
    """Everything the patch path maintains between deltas."""

    __slots__ = ("prefix", "input", "stage")

    def __init__(self, prefix, input_cols, stage):
        self.prefix = prefix
        self.input = input_cols
        self.stage = stage

    def patched(self, inserts: AURelation | None, retracts: AURelation | None):
        """``(new_state, result)`` for a whole-row delta, or ``None`` to recompute."""
        keep = None
        current = self.input
        if retracts is not None:
            gone = _run_prefix(self.prefix, retracts)
            if len(gone):
                keep = np.ones(len(self.input), dtype=bool)
                for j in range(len(gone)):
                    position = _locate_row(self.input, gone, j)
                    if position is None:  # pragma: no cover - defensive
                        return None
                    keep[position] = False
                current = self.input.mask(keep)
        n_kept = len(current)
        fresh = _run_prefix(self.prefix, inserts) if inserts is not None else None
        n_new = len(fresh) if fresh is not None else 0
        new_input = concat_relations([current, fresh]) if n_new else current

        if self.stage is None:
            result = new_input.to_relation()
            return _ViewState(self.prefix, new_input, None), result
        patched = self.stage.patched(new_input, keep, n_kept, n_new)
        if patched is None:
            return None
        new_stage, result = patched
        return _ViewState(self.prefix, new_input, new_stage), result


# ---------------------------------------------------------------------------
# The view
# ---------------------------------------------------------------------------


class IncrementalView:
    """A materialised plan result maintained under append/retract deltas.

    ``incremental=False`` forces the full-recompute path on every delta —
    the oracle the differential property suite pins the patch rules against.

    ``apply_delta`` is atomic: it either commits the delta everywhere (base,
    maintained state, result) or raises and leaves the view exactly as it
    was — a kernel exception mid-recompute cannot leave a half-applied view.
    ``last_apply`` records what the most recent call did: ``"rebuilt"``
    (initial build), ``"patched"``, ``"recomputed"`` (fallback), or
    ``"noop"`` (empty delta).
    """

    __slots__ = ("_spec", "_incremental", "_split", "_base", "_result",
                 "_state", "last_apply")

    def __init__(
        self,
        base: AURelation,
        spec: PlanSpec,
        *,
        incremental: bool = True,
    ):
        if not isinstance(base, AURelation):
            raise OperatorError(f"a view base must be an AURelation, got {type(base).__name__}")
        if not isinstance(spec, PlanSpec):
            raise PlanError(f"a view spec must be a PlanSpec, got {type(spec).__name__}")
        self._spec = spec
        self._incremental = bool(incremental)
        self._split = _split_spec(spec) if self._incremental else None
        self._base = base.copy()
        self._result, self._state = self._recompute(self._base)
        self.last_apply = "rebuilt"

    # -- read side -----------------------------------------------------------

    @property
    def spec(self) -> PlanSpec:
        return self._spec

    def __len__(self) -> int:
        return len(self._result)

    def to_rows(self) -> AURelation:
        """The current plan result as a fresh row-major relation.

        Every call returns an independent copy: callers can mutate the
        returned relation freely without corrupting the maintained result
        (the no-aliasing contract the serving cache relies on).
        """
        out = AURelation(self._result.schema)
        out._rows = dict(self._result._rows)
        return out

    def base_rows(self) -> AURelation:
        """The accumulated base relation (an independent copy)."""
        return self._base.copy()

    # -- write side ----------------------------------------------------------

    def apply_delta(
        self,
        inserts: AURelation | None = None,
        retracts: AURelation | None = None,
    ) -> None:
        """Fold an append/retract delta into the view (atomically).

        ``retracts`` apply before ``inserts``; both must match the base
        schema.  Invalid deltas (retracting a missing tuple or more than its
        stored multiplicity) raise :class:`~repro.errors.OperatorError`
        without changing anything.
        """
        schema = self._base.schema
        inserts = as_delta(inserts, schema, "inserts")
        retracts = as_delta(retracts, schema, "retracts")
        if inserts is None and retracts is None:
            self.last_apply = "noop"
            return
        new_base, patchable = merge_delta(self._base, inserts, retracts)
        if patchable and self._state is not None:
            patched = self._state.patched(inserts, retracts)
            if patched is not None:
                self._base = new_base
                self._state, self._result = patched
                self.last_apply = "patched"
                return
        result, state = self._recompute(new_base)
        self._base = new_base
        self._result = result
        self._state = state
        self.last_apply = "recomputed"

    # -- internals -----------------------------------------------------------

    def _recompute(self, base: AURelation):
        result = self._spec.apply(ColumnarPlan(base)).to_rows()
        state = None
        if self._split is not None:
            state = self._build_state(base)
        return result, state

    def _build_state(self, base: AURelation):
        prefix, ranked = self._split
        cols = _run_prefix(prefix, base)
        stage = None
        if ranked is not None:
            build = _WindowState.build if isinstance(ranked, Window) else _SortState.build
            stage = build(cols, ranked)
            if stage is None:
                return None
        return _ViewState(prefix, cols, stage)
