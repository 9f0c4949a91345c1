"""Incremental maintenance of materialised plan results under delta streams.

An :class:`IncrementalView` wraps a plan tree (:class:`~repro.plan.PlanSpec`)
over a base :class:`~repro.core.relation.AURelation` and keeps the
materialised result current under ``apply_delta(inserts, retracts)`` calls —
the serving-style access pattern (millions of small reads against
slowly-changing data) where re-running the plan per delta would spend almost
all of its time re-deriving state a small delta barely moved.

A view whose tree is a **prefix** — ``select`` / ``extend`` / ``rename``
nodes, the row-local stages, over the one input — topped by at most one
``sort`` / ``topk`` / ``window`` node maintains one value: the prefix
output, in the columnar layout.  A build runs the prefix once over the
base; a whole-row delta runs it on the delta rows only and splices them in
(retracted rows masked out, inserted rows appended), never reading the base
again.  Every result derives from that value:

* with no node on top, the prefix output is the result;
* a **sort / top-k** node re-runs its own stage on it (the top-k stage
  ranks only the rows that can still reach the top k);
* a **window** node with certain ``PARTITION BY`` keys, on input the
  vectorized sweep covers, keeps a per-partition result cache keyed by
  stable row ids: only partitions the delta touched re-sweep, untouched
  partials are reused verbatim;
* any other window re-runs its stage on it.

Trees of any other shape (``project`` / ``join`` / ``groupby_aggregate``
merge rows across hypercubes), merging deltas (a retraction that removes
only part of a tuple's multiplicity, an insert colliding with a stored
hypercube) and retracted rows the prefix output does not hold recompute
from the accumulated base, so every delta sequence yields exactly the
from-scratch result (`last_apply` records which path ran; the differential
property suite pins patched == recomputed bit for bit).

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

from dataclasses import replace

import numpy as np

from repro.columnar.plan import ColumnarPlan, run_columnar
from repro.columnar.relation import ColumnarAURelation, concat_relations
from repro.core.multiplicity import Multiplicity
from repro.core.relation import AURelation
from repro.errors import OperatorError, PlanError
from repro.plan import Extend, Filter, PlanSpec, Rename, Sort, TopK, Window, is_input

__all__ = ["IncrementalView", "as_delta", "merge_delta"]

#: Row-local nodes the view maintains by running them on delta rows only.
_PREFIX_NODES = (Filter, Extend, Rename)

#: Ranking nodes that may top a maintained prefix.
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
    """``(prefix, top)`` when the view can maintain a prefix output, else ``None``.

    The maintained shape is a chain of ``select`` / ``extend`` / ``rename``
    nodes over the one input (the prefix subtree), optionally topped by
    exactly one ``sort`` / ``topk`` / ``window`` node.  ``top`` is that node
    re-rooted on the input leaf, so it runs on the prefix output, or
    ``None``.  Every other node merges or multiplies rows across hypercubes
    (``project``, ``join``, ``groupby_aggregate``) and has no whole-row
    patch rule, so those plans always recompute.
    """
    top = spec if isinstance(spec, _RANKED_NODES) else None
    prefix = spec.child if top is not None else spec
    node = prefix
    while isinstance(node, _PREFIX_NODES):
        node = node.child
    if not is_input(node):
        return None
    return prefix, None if top is None else replace(top, child=PlanSpec())


def _run(node: PlanSpec, relation) -> ColumnarAURelation:
    """Run a one-input tree over ``relation`` through the columnar interpreter."""
    return run_columnar(node, lambda _leaf: ColumnarPlan(relation), []).columnar()


# ---------------------------------------------------------------------------
# Results derived from the prefix output
# ---------------------------------------------------------------------------


class _WindowPartials:
    """Per-partition result cache for a ``window`` top node with partitions.

    Prefix-output rows carry stable monotone ``ids``; a partition whose id
    sequence is unchanged by a delta reuses its cached sweep partial
    verbatim (sound because the patch path only ever inserts or deletes
    whole rows, so an identical id sequence means an identical row subset in
    identical order).  Only touched partitions re-sweep.
    """

    __slots__ = ("ids", "next_id", "cache")

    def __init__(self, ids, next_id, cache):
        self.ids = ids
        self.next_id = next_id
        self.cache = cache

    def spliced(self, keep, n_new: int) -> "_WindowPartials":
        """The ids after masking rows by ``keep`` and appending ``n_new`` rows."""
        ids = self.ids if keep is None else self.ids[keep]
        if n_new:
            ids = np.concatenate(
                [ids, np.arange(self.next_id, self.next_id + n_new, dtype=np.int64)]
            )
        return _WindowPartials(ids, self.next_id + n_new, self.cache)

    def swept(self, cols: ColumnarAURelation, spec):
        """``(partials, result)``, or ``None`` when the vectorized sweep does not apply.

        Cache entries hold the *row-major* sweep partial per partition;
        untouched partitions contribute their cached rows without re-sweeping
        or re-materialising.  The final result is the partition partials'
        row dictionaries merged in partition order — the exact insertion
        order the from-scratch path's concat-then-convert produces (rows in
        different partitions differ on a partition attribute, so the merge
        can never collide across partials), and ``dict.update`` reuses the
        stored key hashes, so unchanged partitions cost no Python hashing.
        """
        from repro.columnar.window import _classify, _sweep_stage

        kind, sweep_spec, groups = _classify(cols, spec)
        if kind != "sweep":
            return None
        cache: dict = {}
        result = AURelation(cols.schema.extend(sweep_spec.output))
        for key, indices in groups.items():
            idx = np.asarray(indices, dtype=np.int64)
            signature = self.ids[idx].tobytes()
            cached = self.cache.get(key)
            if cached is not None and cached[0] == signature:
                partial = cached[1]
            else:
                partial = _sweep_stage(cols.take(idx), sweep_spec).to_relation()
            cache[key] = (signature, partial)
            result._rows.update(partial._rows)
        return _WindowPartials(self.ids, self.next_id, cache), result


def _derive(top, cols: ColumnarAURelation, partials):
    """``(partials, result)``: the view result computed from the prefix output."""
    if top is None:
        return partials, cols.to_relation()
    if partials is not None:
        swept = partials.swept(cols, top.spec)
        if swept is not None:
            return swept
    return partials, _run(top, cols).to_relation()


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


# ---------------------------------------------------------------------------
# The view
# ---------------------------------------------------------------------------


class IncrementalView:
    """A materialised plan result maintained under append/retract deltas.

    ``incremental=False`` forces the full-recompute path on every delta —
    the oracle the differential property suite pins the patch rules against.

    ``apply_delta`` is atomic: it either commits the delta everywhere (base,
    maintained state, result) or raises and leaves the view exactly as it
    was — a kernel exception mid-patch or mid-recompute cannot leave a
    half-applied view.  ``last_apply`` records what the most recent call
    did: ``"rebuilt"`` (initial build), ``"patched"`` (the delta was folded
    into the maintained prefix output without reading the base again),
    ``"recomputed"`` (the plan re-ran over the accumulated base), or
    ``"noop"`` (empty delta).
    """

    __slots__ = ("_spec", "_split", "_base", "_input", "_partials", "_result",
                 "last_apply")

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
        self._split = _split_spec(spec) if incremental else None
        self._base = base.copy()
        self._input, self._partials, self._result = self._build(self._base)
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
        state = self._patched(inserts, retracts) if patchable else None
        last_apply = "patched"
        if state is None:
            state = self._build(new_base)
            last_apply = "recomputed"
        self._input, self._partials, self._result = state
        self._base = new_base
        self.last_apply = last_apply

    # -- internals -----------------------------------------------------------

    def _build(self, base: AURelation):
        """``(prefix output, window partials, result)`` computed from ``base``.

        A tree without a maintained prefix runs whole and keeps no prefix
        output, so every delta recomputes it.
        """
        if self._split is None:
            return None, None, self._spec.apply(ColumnarPlan(base)).to_rows()
        prefix, top = self._split
        cols = _run(prefix, base)
        partials = None
        if isinstance(top, Window) and top.spec.partition_by:
            partials = _WindowPartials(np.arange(len(cols), dtype=np.int64), len(cols), {})
        return (cols, *_derive(top, cols, partials))

    def _patched(self, inserts: AURelation | None, retracts: AURelation | None):
        """The :meth:`_build` triple after a whole-row delta, or ``None``.

        The delta rows run through the prefix alone and splice into the
        maintained prefix output; ``None`` (recompute from the base) when
        the view keeps no prefix output or a retracted row is not in it.
        """
        if self._input is None:
            return None
        prefix, top = self._split
        cols = self._input
        keep = None
        if retracts is not None:
            gone = _run(prefix, retracts)
            if len(gone):
                keep = np.ones(len(cols), dtype=bool)
                for j in range(len(gone)):
                    position = _locate_row(cols, gone, j)
                    if position is None:
                        return None
                    keep[position] = False
                cols = cols.mask(keep)
        fresh = _run(prefix, inserts) if inserts is not None else None
        n_new = len(fresh) if fresh is not None else 0
        if n_new:
            cols = concat_relations([cols, fresh])
        partials = self._partials
        if partials is not None:
            partials = partials.spliced(keep, n_new)
        return (cols, *_derive(top, cols, partials))
