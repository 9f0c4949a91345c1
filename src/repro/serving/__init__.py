"""Cached-plan serving over incremental AU-views.

The serving layer answers repeated parameterized queries against a
slowly-changing base relation from materialised
:class:`~repro.columnar.incremental.IncrementalView` results instead of
re-running the plan per query:

* :class:`~repro.serving.cache.PlanCache` — an LRU cache of built views,
  keyed by ``(plan shape, parameter tuple)`` so structurally identical
  plans that differ only in expression literals share one compiled shape;
* :class:`~repro.serving.server.QueryServer` — the sync/async front end:
  named plan-tree templates (:class:`~repro.plan.PlanSpec`, or SQL text
  lowered to one), per-query parameter binding
  (:meth:`~repro.plan.PlanSpec.bind` — no re-planning), and atomic
  ``apply_delta`` fan-out that patches every cached view in place.
"""

from repro.serving.cache import PlanCache
from repro.serving.server import QueryServer

__all__ = ["PlanCache", "QueryServer"]
