"""Outside-in tracer: spans around the public functions of each layer.

Nothing in the program knows about it.  :meth:`Tracer.install` replaces each
traced function where the program looks it up — class methods on the plan,
relation, view and server classes, and the module globals the SQL frontend
calls through — and :meth:`Tracer.uninstall` puts the originals back.  Spans
(name, start, end, parent span, request id) stay in memory; :meth:`write`
dumps them once the run ends.

A span's self time is its duration minus its children's durations.  The
program runs one thread here, so sibling spans never overlap and that sum is
exactly the part of the span its children cover.

Counters are read through public calls only: ``pair_rows_materialised()``,
``QueryServer.stats()`` (through the workload's probes), ``last_apply`` on
each view after a delta, the candidate pairs ``candidate_key_pairs`` returns,
and ``gc.callbacks`` for collector pauses.
"""

from __future__ import annotations

import gc
import json
from collections import defaultdict
from time import perf_counter

#: Per-layer metrics that sum span self time, per operation: metric → spans.
SELF_TIME_MS = {
    "sql.parse_ms": ("sql.parse",),
    "sql.lower_ms": ("sql.lower",),
    "sql.optimize_ms": ("sql.optimize",),
    "plan.select_ms": ("plan.select",),
    "plan.join_ms": ("plan.join", "join.candidates"),
    "plan.groupby_ms": ("plan.groupby",),
    "plan.sort_ms": ("plan.sort",),
    "plan.window_ms": ("plan.window",),
    "plan.narrow_ms": ("plan.narrow",),
    "plan.other_ms": ("plan.other",),
    "boundary.expand_ms": ("boundary.expand",),
    "boundary.to_relation_ms": ("boundary.to_relation",),
    "serving.query_ms": ("serving.query",),
    "trace.unattributed_ms": ("request.read", "request.delta"),
}

#: Per-layer metrics that sum a span's whole duration, per operation.
INCLUSIVE_MS = {
    "sql.compile_ms": "sql.compile",
    "serving.build_ms": "serving.build",
}

#: Per-layer metrics that sum span self time per *delta* operation.
DELTA_SELF_TIME_MS = {
    "incremental.merge_delta_ms": ("incremental.merge_delta",),
    "incremental.view_patch_ms": ("incremental.view_patch", "serving.apply_delta"),
}

#: Per-layer metrics that are counters, per operation.
COUNTS = (
    "runtime.gc_pause_ms",
    "runtime.gc_gen2",
    "plan.window_rows",
    "boundary.rows",
    "factorised.pair_rows",
    "serving.evictions",
)


def _targets():
    """``(owner, attribute, span name, after hook)`` for every traced function."""
    import repro.sql
    from repro.columnar import incremental, operators
    from repro.columnar.factorised import FactorisedAURelation
    from repro.columnar.incremental import IncrementalView
    from repro.columnar.plan import ColumnarPlan
    from repro.columnar.relation import ColumnarAURelation
    from repro.serving import QueryServer, server
    from repro.sql import compiler, optimizer

    def count_len(counter):
        def after(tracer, args, result):
            tracer.counts[counter] += len(result)
        return after

    def count_candidates(tracer, args, result):
        if result is not None:
            tracer.counts["join.candidates"] += len(result[0])
            tracer.labels.add(f"join.kernel={result[2]}")

    def count_patched(tracer, args, result):
        tracer.counts["incremental.applies"] += 1
        tracer.counts["incremental.patched"] += args[0].last_apply == "patched"

    targets = [
        (repro.sql, "compile_sql", "sql.compile", None),
        (compiler, "parse", "sql.parse", None),
        (compiler, "lower", "sql.lower", None),
        (optimizer, "optimize_plan", "sql.optimize", None),
        (ColumnarPlan, "select", "plan.select", None),
        (ColumnarPlan, "join", "plan.join", count_len("join.output_pairs")),
        (operators, "candidate_key_pairs", "join.candidates", count_candidates),
        (ColumnarPlan, "groupby_aggregate", "plan.groupby", None),
        (ColumnarPlan, "sort", "plan.sort", None),
        (ColumnarPlan, "topk", "plan.sort", None),
        (ColumnarPlan, "window", "plan.window", count_len("plan.window_rows")),
        (ColumnarPlan, "narrow", "plan.narrow", None),
        (ColumnarPlan, "to_rows", "plan.other", count_len("boundary.rows")),
        (FactorisedAURelation, "expand", "boundary.expand", None),
        (ColumnarAURelation, "to_relation", "boundary.to_relation", None),
        (QueryServer, "query", "serving.query", None),
        (QueryServer, "apply_delta", "serving.apply_delta", None),
        (IncrementalView, "__init__", "serving.build", None),
        (IncrementalView, "apply_delta", "incremental.view_patch", count_patched),
        (incremental, "merge_delta", "incremental.merge_delta", None),
        (server, "merge_delta", "incremental.merge_delta", None),
    ]
    for stage in ("project", "extend", "rename", "distinct", "union", "cross"):
        targets.append((ColumnarPlan, stage, "plan.other", None))
    return targets


class Tracer:
    """Spans and counters for the traced requests of one run.

    ``probes`` returns cumulative program counters (name → number); the
    tracer adds each request's difference to :attr:`counts`.
    """

    def __init__(self, probes=lambda: {}):
        from repro.columnar.factorised import pair_rows_materialised

        self.spans: list[list] = []   # [name, start, end, parent, request]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.labels: set[str] = set()
        self.requests: list[str] = []  # the kind of each traced request
        self._probes = lambda: {"factorised.pair_rows": pair_rows_materialised(), **probes()}
        self._stack: list[int] = []
        self._patches = [
            (owner, attribute, owner.__dict__[attribute],
             self._wrap(owner.__dict__[attribute], name, after))
            for owner, attribute, name, after in _targets()
        ]
        self._gc_start: float | None = None
        self._before: dict = {}

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, len(self.requests) - 1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def begin_request(self, kind: str) -> int:
        """Open the root span of one traced operation."""
        self.requests.append(kind)
        self._before = self._probes()
        return self._open(f"request.{kind}")

    def end_request(self, index: int) -> None:
        self._close(index)
        for name, value in self._probes().items():
            self.counts[name] += value - self._before.get(name, 0)

    # -- installation ---------------------------------------------------------

    def _wrap(self, original, name, after):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for owner, attribute, _original, traced in self._patches:
            setattr(owner, attribute, traced)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attribute, original, _traced in self._patches:
            setattr(owner, attribute, original)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.counts["runtime.gc_pause_ms"] += (perf_counter() - self._gc_start) * 1000
            self.counts["runtime.gc_gen2"] += info["generation"] == 2
            self._gc_start = None

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time in seconds of every span, in span order."""
        children = [0.0] * len(self.spans)
        for _name, start, end, parent, _request in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return [end - start - children[i] for i, (_n, start, end, _p, _r) in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer measures, as plain numbers."""
        operations = len(self.requests) or 1
        deltas = self.requests.count("delta") or 1
        self_ms: defaultdict[str, float] = defaultdict(float)
        inclusive_ms: defaultdict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            self_ms[span[0]] += own * 1000
            inclusive_ms[span[0]] += (span[2] - span[1]) * 1000
        counts = self.counts
        metrics = {
            metric: sum(self_ms[name] for name in names) / operations
            for metric, names in SELF_TIME_MS.items()
        }
        metrics.update(
            {metric: inclusive_ms[name] / operations for metric, name in INCLUSIVE_MS.items()}
        )
        metrics.update(
            {
                metric: sum(self_ms[name] for name in names) / deltas
                for metric, names in DELTA_SELF_TIME_MS.items()
            }
        )
        metrics.update({name: counts[name] / operations for name in COUNTS})

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        metrics["serving.hit_ratio"] = ratio(
            counts["serving.hits"], counts["serving.hits"] + counts["serving.misses"]
        )
        metrics["join.match_ratio"] = ratio(counts["join.output_pairs"], counts["join.candidates"])
        metrics["incremental.patched_frac"] = ratio(
            counts["incremental.patched"], counts["incremental.applies"]
        )
        return metrics

    def write(self, path: str) -> None:
        """Dump every span (with self time) and the request kinds as JSON."""
        spans = [
            {"name": name, "start": start, "end": end, "parent": parent,
             "request": request, "self": own}
            for (name, start, end, parent, request), own in zip(self.spans, self.self_times())
        ]
        with open(path, "w") as handle:
            json.dump({"requests": self.requests, "spans": spans}, handle)
