"""The sync/async query front end over cached incremental views.

A :class:`QueryServer` owns one accumulated base relation and a
:class:`~repro.serving.cache.PlanCache` of
:class:`~repro.columnar.incremental.IncrementalView` results.  Callers
register named :class:`~repro.columnar.plan.PlanSpec` *templates* once;
each query names a template plus a parameter tuple, which binds into the
template's constant slots (:meth:`~repro.columnar.plan.PlanSpec.bind` — a
tree rewrite, no re-planning) and answers from the cached view for that
``(shape, params)`` key, building it only on the first miss.  Deltas fan
out through :meth:`QueryServer.apply_delta`, which patches every cached
view in place, so subsequent queries keep hitting warm views.

>>> from repro.columnar.plan import PlanSpec
>>> from repro.core.expressions import attr, const
>>> from repro.core.relation import AURelation
>>> base = AURelation.from_rows(["v"], [((3,), 1), ((8,), 1), ((20,), 1)])
>>> server = QueryServer(base)
>>> server.register("big", PlanSpec().select(attr("v").gt(const(0))).sort(["v"], descending=True))
>>> for t, _m in server.query("big", (5,)):
...     print(t.value("v"))
20
8
>>> for t, _m in server.query("big", (10,)):   # same shape, new constant
...     print(t.value("v"))
20
>>> server.stats()["views"], server.stats()["misses"]
(2, 2)
>>> server.apply_delta(inserts=AURelation.from_rows(["v"], [((30,), 1)]))
>>> [int(t.value("v").sg) for t, _m in server.query("big", (10,))]   # cache hit, patched view
[30, 20]
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

from repro.columnar.incremental import IncrementalView, as_delta, merge_delta
from repro.columnar.plan import PlanSpec, require_serial
from repro.core.relation import AURelation
from repro.errors import PlanError, ServingError
from repro.serving.cache import PlanCache

__all__ = ["QueryServer"]


class QueryServer:
    """Serve repeated parameterized plan queries from cached incremental views.

    ``capacity`` bounds the cached view count (LRU eviction past it);
    ``incremental=False`` builds views that recompute on every delta — the
    oracle configuration the serving benchmarks compare against.  All public
    methods are thread-safe (one re-entrant lock serialises cache and view
    mutation), and :meth:`query_async` exposes the same read path as a
    coroutine for async front ends.  ``workers`` is accepted for
    compatibility only; any value but ``1`` raises
    :class:`~repro.errors.PlanError`.  A base that is not an
    :class:`~repro.core.relation.AURelation`, an ad-hoc spec that is not a
    :class:`PlanSpec` and query parameters that are not a sequence raise
    :class:`~repro.errors.ServingError`.
    """

    def __init__(
        self,
        base: AURelation,
        *,
        workers: int = 1,
        capacity: int = 32,
        incremental: bool = True,
    ):
        require_serial(workers)
        if not isinstance(base, AURelation):
            raise ServingError(f"the base must be an AURelation, got {type(base).__name__}")
        self._lock = threading.RLock()
        self._base = base.copy()
        self._incremental = bool(incremental)
        self._cache = PlanCache(capacity)
        self._templates: dict[str, tuple[PlanSpec, tuple]] = {}

    # -- template registry ---------------------------------------------------

    def register(self, name: str, spec: "PlanSpec | str") -> None:
        """Register a named plan template (its constants become slots).

        ``spec`` may also be a single-table SQL template string — it is
        compiled to a :class:`PlanSpec` once, here, via
        :func:`repro.sql.sql_to_spec` (the ``FROM`` table stands for this
        server's base relation); subsequent :meth:`query` calls re-bind the
        constants through the spec's shape key without re-parsing the SQL.
        """
        if isinstance(spec, str):
            from repro.sql import sql_to_spec

            spec = sql_to_spec(spec, self._base.schema)
        if not isinstance(spec, PlanSpec):
            raise ServingError(f"template {name!r} must be a PlanSpec, got {type(spec).__name__}")
        shape, _params = spec.shape_key()
        with self._lock:
            self._templates[name] = (spec, shape)

    def templates(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._templates)

    # -- read path -----------------------------------------------------------

    def query(self, name: str, params: Sequence = ()) -> AURelation:
        """Answer one parameterized query from the cached view (sync).

        ``params`` bind into the template's constant slots in shape-key walk
        order.  The returned relation is an independent copy — mutating it
        cannot corrupt the cached view.
        """
        with self._lock:
            return self._view(name, params).to_rows()

    async def query_async(self, name: str, params: Sequence = ()) -> AURelation:
        """:meth:`query` as a coroutine (runs the sync path in a thread)."""
        import asyncio

        return await asyncio.to_thread(self.query, name, params)

    def query_spec(self, spec: PlanSpec) -> AURelation:
        """Answer an ad-hoc (non-registered) spec, still through the cache."""
        if not isinstance(spec, PlanSpec):
            raise ServingError(f"query_spec() takes a PlanSpec, got {type(spec).__name__}")
        shape, params = spec.shape_key()
        with self._lock:
            key = (shape, params)
            view = self._cache.get(key)
            if view is None:
                view = IncrementalView(self._base, spec, incremental=self._incremental)
                self._cache.put(key, view)
            return view.to_rows()

    # -- write path ----------------------------------------------------------

    def apply_delta(
        self,
        inserts: AURelation | None = None,
        retracts: AURelation | None = None,
    ) -> None:
        """Fold a delta into the base and every cached view.

        The delta is validated before anything commits: a non-relation, a
        schema mismatch (arity or column order), or an invalid retraction
        raises :class:`~repro.errors.OperatorError` and leaves the base and
        every cached view unchanged.  Views then patch one by one; each
        view's own apply is atomic, and a view whose apply *fails* (e.g. a
        kernel exception mid-recompute) is evicted — never left stale in the
        cache — before the failure re-raises.
        """
        with self._lock:
            schema = self._base.schema
            inserts = as_delta(inserts, schema, "inserts")
            retracts = as_delta(retracts, schema, "retracts")
            new_base, _patchable = merge_delta(self._base, inserts, retracts)
            self._base = new_base
            failure: BaseException | None = None
            for key in tuple(self._cache.keys()):
                view = self._cache.peek(key)
                try:
                    view.apply_delta(inserts=inserts, retracts=retracts)
                except BaseException as exc:  # noqa: BLE001 - evict, then surface
                    self._cache.evict(key)
                    if failure is None:
                        failure = exc
            if failure is not None:
                raise failure

    # -- introspection -------------------------------------------------------

    def base_rows(self) -> AURelation:
        """The accumulated base relation (an independent copy)."""
        with self._lock:
            return self._base.copy()

    def stats(self) -> Mapping[str, int]:
        """Cache counters plus the number of views currently held."""
        with self._lock:
            stats = dict(self._cache.stats)
            stats["views"] = stats.pop("size")
            stats["templates"] = len(self._templates)
            return stats

    def cached_view(self, name: str, params: Sequence = ()) -> IncrementalView | None:
        """The cached view for a key, without building or touching recency."""
        with self._lock:
            template, shape = self._require_template(name)
            return self._cache.peek((shape, _as_params(params)))

    # -- internals -----------------------------------------------------------

    def _require_template(self, name: str) -> tuple[PlanSpec, tuple]:
        entry = self._templates.get(name)
        if entry is None:
            known = ", ".join(sorted(self._templates)) or "none registered"
            raise ServingError(f"unknown query template {name!r} (known: {known})")
        return entry

    def _view(self, name: str, params: Sequence) -> IncrementalView:
        template, shape = self._require_template(name)
        params = _as_params(params)
        key = (shape, params)
        view = self._cache.get(key)
        if view is not None:
            return view
        try:
            spec = template.bind(params)
        except PlanError as exc:
            raise ServingError(f"template {name!r}: {exc}") from exc
        view = IncrementalView(self._base, spec, incremental=self._incremental)
        self._cache.put(key, view)
        return view


def _as_params(params: Sequence) -> tuple:
    """A query's parameters as a tuple (the cache key's second half)."""
    try:
        return tuple(params)
    except TypeError:
        raise ServingError(
            f"query parameters must be a sequence, got {type(params).__name__}"
        ) from None
