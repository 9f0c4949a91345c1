"""Synthetic query/delta serving mix (the ``serve`` harness workload).

Models the cached-plan serving pattern the incremental views exist for: a
slowly-changing base relation, a small set of registered plan *templates*
(top-k dashboards and a partitioned rolling window), and a request stream
that is mostly repeated parameterized queries with occasional append/retract
delta bursts.  :func:`run_serve_mix` drives one
:class:`~repro.serving.QueryServer` through such a schedule and reports
per-query latencies, so the harness can compare cached-incremental serving
(``incremental=True``: deltas patch the cached views) against
recompute-per-delta serving (``incremental=False``: every delta rebuilds
every cached view from scratch) — bit-identical results, very different
latency profiles.

Delta streams only insert fresh row ids and retract whole live rows, so
every delta is patchable by construction; the differential suite separately
covers the fallback classes.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Iterable, Sequence

from repro.core.expressions import attr, const
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.errors import WorkloadError
from repro.window.spec import WindowSpec

__all__ = [
    "SERVE_SCHEMA",
    "SERVE_WINDOW",
    "serve_inputs",
    "serve_templates",
    "serve_schedule",
    "SERVE_MODES",
    "run_serve_mix",
    "latency_summary",
]

#: Base schema of the serving workload: row id, category, uncertain value.
SERVE_SCHEMA = ("rid", "g", "v")

#: Number of categories the window template partitions by.  Deltas touch a
#: handful of categories, so most partitions serve from the incremental
#: view's cached partials.
_CATEGORIES = 64

#: Rolling per-category sum answered by the ``window`` template.
SERVE_WINDOW = WindowSpec(
    function="sum", attribute="v", output="w_sum",
    order_by=("rid",), partition_by=("g",), frame=(-4, 0),
)


def _serve_row(rng: random.Random, rid: int):
    """One workload row: ~20% uncertain values, ~10% bag multiplicities."""
    value = rng.randint(0, 10_000)
    if rng.random() < 0.2:
        value = RangeValue(value, value, value + rng.randint(1, 50))
    mult = (0, 1, 2) if rng.random() < 0.1 else 1
    return [rid, rng.randrange(_CATEGORIES), value], mult


def serve_inputs(rows: int, *, seed: int = 0) -> AURelation:
    """The initial base relation of the serving mix (``rows`` distinct rows)."""
    rng = random.Random(seed)
    base = AURelation.from_rows(list(SERVE_SCHEMA), [])
    for rid in range(rows):
        values, mult = _serve_row(rng, rid)
        base.add_values(values, mult)
    return base


def serve_templates() -> dict:
    """The registered plan templates of the serving mix.

    ``topk`` — the parameterized dashboard: filter on a threshold constant
    (the template's single bind slot), top 16 by value.  ``window`` — the
    per-category rolling sum, filtered by the same parameterized threshold.
    Both are patchable shapes (prefix + one trailing ranked stage).
    """
    from repro.plan import PlanSpec

    return {
        "topk": PlanSpec()
        .select(attr("v").ge(const(0)))
        .topk(["v"], 16, descending=True),
        "window": PlanSpec()
        .select(attr("v").ge(const(0)))
        .window(SERVE_WINDOW),
    }


def serve_schedule(
    base: AURelation,
    *,
    queries: int = 200,
    deltas: int = 10,
    delta_rows: int = 6,
    seed: int = 0,
) -> list[tuple]:
    """A synthetic request schedule over ``base``: queries with delta bursts.

    Returns a list of ``("query", template, params)`` and
    ``("delta", inserts, retracts)`` operations.  Queries cycle through the
    two templates with a handful of threshold parameters (so the plan cache
    serves almost entirely from warm views); deltas are evenly interleaved
    and each inserts ``delta_rows`` fresh rows while retracting about half
    as many live ones (whole rows — the patchable delta class).
    """
    if queries < 1:
        raise WorkloadError(f"queries must be >= 1, got {queries}")
    if deltas < 0 or delta_rows < 1:
        raise WorkloadError(
            f"deltas must be >= 0 and delta_rows >= 1, got {deltas}, {delta_rows}"
        )
    rng = random.Random(seed + 1)
    live = {tup.values: mult for tup, mult in base}
    next_rid = len(base)
    thresholds = [0, 1_000, 5_000, 9_000]
    schedule: list[tuple] = []
    every = max(1, queries // (deltas + 1)) if deltas else queries + 1
    for q in range(queries):
        if deltas and q and q % every == 0 and deltas > 0:
            schedule.append(_delta_op(rng, live, next_rid, delta_rows))
            next_rid += delta_rows
            deltas -= 1
        template = "window" if q % 5 == 4 else "topk"
        schedule.append(("query", template, (rng.choice(thresholds),)))
    while deltas > 0:
        schedule.append(_delta_op(rng, live, next_rid, delta_rows))
        next_rid += delta_rows
        deltas -= 1
    return schedule


def _delta_op(rng: random.Random, live: dict, next_rid: int, delta_rows: int) -> tuple:
    # Victims are sampled before this delta's inserts join the pool:
    # retractions apply before insertions, so a delta must not retract a row
    # it is itself introducing.  Stored value tuples are canonical
    # RangeValues; ordering by the (certain, unique) row id keeps the
    # sampling deterministic per seed.
    retracts = AURelation.from_rows(list(SERVE_SCHEMA), [])
    victims = rng.sample(
        sorted(live, key=lambda v: v[0].sg), min(delta_rows // 2, len(live))
    )
    for values in victims:
        retracts.add_values(list(values), live.pop(values))
    inserts = AURelation.from_rows(list(SERVE_SCHEMA), [])
    for rid in range(next_rid, next_rid + delta_rows):
        values, mult = _serve_row(rng, rid)
        inserts.add_values(values, mult)
    for tup, mult in inserts:
        live[tup.values] = mult
    return ("delta", inserts, retracts if len(retracts) else None)


#: Serving configurations :func:`run_serve_mix` can drive a schedule under.
SERVE_MODES = ("incremental", "cached-recompute", "direct")


def run_serve_mix(
    base: AURelation,
    schedule: Sequence[tuple],
    *,
    mode: str = "incremental",
    capacity: int = 32,
) -> tuple[list[AURelation], list[float], list[float]]:
    """Drive one serving configuration through a schedule.

    ``mode`` selects the contender: ``"incremental"`` answers from cached
    :class:`~repro.columnar.incremental.IncrementalView` results and patches
    them per delta; ``"cached-recompute"`` serves from the same cache but
    rebuilds every cached view from the accumulated base per delta (the
    delta-cost contender); ``"direct"`` holds no views at all and runs the
    bound plan from scratch on every query (the query-cost contender).
    Returns ``(results, query_seconds, delta_seconds)`` — answered relations
    in query order plus per-operation wall-clock latencies; results are
    bit-identical across all three modes.
    """
    if mode not in SERVE_MODES:
        raise WorkloadError(f"mode must be one of {SERVE_MODES}, got {mode!r}")
    results: list[AURelation] = []
    query_seconds: list[float] = []
    delta_seconds: list[float] = []
    if mode == "direct":
        from repro.columnar.incremental import merge_delta
        from repro.columnar.plan import ColumnarPlan

        templates = serve_templates()
        accumulated = base.copy()
        for op in schedule:
            if op[0] == "query":
                spec = templates[op[1]].bind(op[2])
                start = perf_counter()
                results.append(spec.apply(ColumnarPlan(accumulated)).to_rows())
                query_seconds.append(perf_counter() - start)
            else:
                start = perf_counter()
                accumulated, _ = merge_delta(accumulated, op[1], op[2])
                delta_seconds.append(perf_counter() - start)
        return results, query_seconds, delta_seconds

    from repro.serving import QueryServer

    server = QueryServer(base, capacity=capacity, incremental=(mode == "incremental"))
    for name, spec in serve_templates().items():
        server.register(name, spec)
    for op in schedule:
        if op[0] == "query":
            start = perf_counter()
            results.append(server.query(op[1], op[2]))
            query_seconds.append(perf_counter() - start)
        else:
            start = perf_counter()
            server.apply_delta(inserts=op[1], retracts=op[2])
            delta_seconds.append(perf_counter() - start)
    return results, query_seconds, delta_seconds


def latency_summary(seconds: Iterable[float]) -> dict:
    """``{"qps", "mean_ms", "p50_ms", "p99_ms", "count"}`` for a latency list."""
    values = sorted(seconds)
    if not values:
        return {"qps": 0.0, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0, "count": 0}
    total = sum(values)

    def pct(q: float) -> float:
        return values[min(len(values) - 1, int(q * len(values)))] * 1000.0

    return {
        "qps": len(values) / total if total else float("inf"),
        "mean_ms": total / len(values) * 1000.0,
        "p50_ms": pct(0.50),
        "p99_ms": pct(0.99),
        "count": len(values),
    }
