"""Small-N smoke run of the backend comparisons: agreement gates and speedups.

Used by CI to catch two regressions fast, without the full benchmark suite:

* **backend divergence** — the columnar backend must produce bit-identical
  results to the Python backend (and both must match the definitional
  rewrite) on the sort, top-k, and window paths — including following-only
  frames, which exercise the mirrored-order reduction; every contender of
  every plan workload in :mod:`repro.workloads.registry` must agree with the
  workload's first one, and each workload's planned-kernel and pair-count
  ceiling gates must hold; the serving modes and the SQL executions must
  agree too (:func:`smoke_serve`, :func:`smoke_sql`);
* **performance regressions** — the columnar backend should stay faster
  than the Python backend at the smoke size, on the full sort and on a
  top-``rows // 4``, and every declared speedup must reach its floor (the
  full ``bench_*`` runs measure the real ratios).  Wall-clock comparisons
  are noisy on shared CI runners, so a slowdown only *warns* by default;
  set ``REPRO_SMOKE_STRICT_PERF=1`` to make it fatal (e.g. for local
  regression hunting).

Run directly: ``PYTHONPATH=src python benchmarks/smoke_backends.py [rows]``.
Exits non-zero on divergence (always) or slowdown (strict mode only).
"""

from __future__ import annotations

import os
import sys
import time

from repro.columnar.relation import ColumnarAURelation
from repro.harness.adapters import audb_from_workload
from repro.ranking.topk import sort as au_sort, topk as au_topk
from repro.window.native import window_native
from repro.window.semantics import window_rewrite
from repro.window.spec import WindowSpec
from repro.workloads.registry import (
    CEILING_FACTOR,
    SERVE_SPEEDUP,
    SQL_SPEEDUP,
    WORKLOADS,
    columnar_inputs,
    divergent,
    same_rows,
)
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_sort_table,
    generate_window_table,
)


def best_of(fn, reps: int = 5) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def _enforce(message: str) -> int:
    """A missed speedup floor: a failure under strict mode, a warning otherwise."""
    if os.environ.get("REPRO_SMOKE_STRICT_PERF") == "1":
        print(f"FAIL: {message}")
        return 1
    print(f"WARN: {message} (not fatal; set REPRO_SMOKE_STRICT_PERF=1 to enforce)")
    return 0


def _report_speedup(
    path: str,
    rows: int,
    baseline_ms: float,
    columnar_ms: float,
    *,
    baseline: str = "python",
    required: float = 1.0,
) -> int:
    speedup = baseline_ms / columnar_ms if columnar_ms else float("inf")
    print(
        f"{path} rows={rows}: {baseline}={baseline_ms:.2f}ms columnar={columnar_ms:.2f}ms "
        f"speedup={speedup:.2f}x"
    )
    if speedup < required:
        return _enforce(f"columnar backend slower than the {baseline} path on {path}")
    return 0


def smoke_sort(rows: int) -> int:
    config = SyntheticConfig(
        rows=rows, uncertainty=0.05, attribute_range=max(4, rows // 2), domain=10 * rows, seed=0
    )
    audb = audb_from_workload(generate_sort_table(config))
    columnar = ColumnarAURelation.from_relation(audb)
    order_by = ["a"]

    python_result = au_sort(audb, order_by, method="native")
    columnar_result = au_sort(columnar, order_by, method="native", backend="columnar")
    rewrite_result = au_sort(audb, order_by, method="rewrite")

    failures = 0
    if not (
        python_result.schema == columnar_result.schema == rewrite_result.schema
        and python_result._rows == columnar_result._rows == rewrite_result._rows
    ):
        print("FAIL: sort backends/methods diverge (python vs columnar vs rewrite)")
        failures += 1
    for k in (1, rows // 4):
        tp = au_topk(audb, order_by, k, method="native")
        tc = au_topk(audb, order_by, k, method="native", backend="columnar")
        # In row order too: chained plans feed it to the next stage's
        # <total_O sequence-number tiebreakers.
        if tp.schema != tc.schema or list(tp._rows.items()) != list(tc._rows.items()):
            print(f"FAIL: top-{k} backends diverge")
            failures += 1

    python_ms = best_of(lambda: au_sort(audb, order_by, method="native"))
    columnar_ms = best_of(lambda: au_sort(columnar, order_by, method="native", backend="columnar"))
    failures += _report_speedup("sort", rows, python_ms, columnar_ms)
    k = rows // 4
    python_ms = best_of(lambda: au_topk(audb, order_by, k, method="native"))
    columnar_ms = best_of(
        lambda: au_topk(columnar, order_by, k, method="native", backend="columnar")
    )
    failures += _report_speedup("topk", rows, python_ms, columnar_ms)
    return failures


def smoke_window(rows: int) -> int:
    config = SyntheticConfig(
        rows=rows, uncertainty=0.05, attribute_range=max(4, rows // 2), domain=10 * rows, seed=0
    )
    audb = audb_from_workload(generate_window_table(config, partitions=1))
    columnar = ColumnarAURelation.from_relation(audb)
    preceding = WindowSpec(
        function="sum", attribute="v", output="w_sum", order_by=("o",), frame=(-2, 0)
    )
    following = WindowSpec(
        function="sum", attribute="v", output="w_sum", order_by=("o",), frame=(0, 2)
    )

    failures = 0
    for label, spec in (("preceding", preceding), ("following", following)):
        python_result = window_native(audb, spec)
        columnar_result = window_native(columnar, spec, backend="columnar")
        rewrite_result = window_rewrite(audb, spec)
        if not (
            python_result.schema == columnar_result.schema == rewrite_result.schema
            and python_result._rows == columnar_result._rows == rewrite_result._rows
        ):
            print(f"FAIL: {label}-frame window backends/methods diverge")
            failures += 1

    python_ms = best_of(lambda: window_native(audb, preceding))
    columnar_ms = best_of(lambda: window_native(columnar, preceding, backend="columnar"))
    failures += _report_speedup("window", rows, python_ms, columnar_ms)
    return failures


def smoke_workload(name: str, rows: int) -> int:
    """Every gate the registry declares for one plan workload.

    Runs at ``max(rows, smoke_min_rows)`` so asymptotic gates are visible.
    Agreement, the planned kernel and the pair-count ceilings are always
    fatal; the speedup pairs are enforced only in strict mode.
    """
    workload = WORKLOADS[name]
    size = max(rows, workload.smoke_min_rows)
    args = workload.inputs(size, seed=0)
    columnar_args = columnar_inputs(args)

    failures = 0
    results = {c.name: c(args, columnar_args) for c in workload.contenders}
    for contender in divergent(results):
        print(f"FAIL: {name} rows={size}: {contender} diverges from {next(iter(results))}")
        failures += 1

    if workload.planned_kernel is not None:
        expected, plan = workload.planned_kernel
        kernel = plan(*columnar_args)
        if kernel != expected:
            print(f"FAIL: method='auto' planned {kernel!r} for {name}, not {expected!r}")
            failures += 1

    for ceiling in workload.ceilings:
        pairs, grid = ceiling.count(*columnar_args)
        print(f"{name} rows={size}: {ceiling.label}={pairs} {ceiling.grid_label}={grid}")
        if pairs * CEILING_FACTOR >= grid:
            print(
                f"FAIL: {name}: {ceiling.label}={pairs} is not below "
                f"{ceiling.grid_label}={grid} / {CEILING_FACTOR}"
            )
            failures += 1

    ms: dict[str, float] = {}
    for gate in workload.speedups:
        for side in (gate.baseline, gate.contender):
            if side not in ms:
                contender = workload.contender(side)
                ms[side] = best_of(lambda: contender(args, columnar_args), reps=gate.reps)
        failures += _report_speedup(
            gate.path,
            size,
            ms[gate.baseline],
            ms[gate.contender],
            baseline=gate.baseline,
            required=gate.required(size),
        )
    return failures


def smoke_serve(rows: int) -> int:
    """Cached-incremental serving agrees with recompute over a query/delta mix.

    Drives the same synthetic schedule (repeated parameterized top-k and
    window queries with interleaved append/retract bursts) through all three
    serving modes and asserts every answered relation is bit-identical —
    cached views patched per delta must equal views rebuilt per delta must
    equal a from-scratch plan run per query.  Divergence is always fatal.

    The timing gate compares delta application: patching the cached views
    against rebuilding them.  Under ``REPRO_SMOKE_STRICT_PERF=1`` the patch
    path must beat rebuilds — by >= 3x from ``rows=4096`` up (the acceptance
    ratio; at smoke sizes fixed per-delta overhead narrows the gap, so only
    parity is required there).  The warm-query-vs-direct comparison only
    warns: at tiny inputs the cold view builds dominate the cached side.
    """
    from repro.workloads.serve import (
        SERVE_MODES,
        latency_summary,
        run_serve_mix,
        serve_inputs,
        serve_schedule,
    )

    base = serve_inputs(rows, seed=0)
    schedule = serve_schedule(base, queries=60, deltas=6, delta_rows=6, seed=0)
    runs = {mode: run_serve_mix(base, schedule, mode=mode) for mode in SERVE_MODES}

    failures = 0
    inc_results = runs["incremental"][0]
    for mode in ("cached-recompute", "direct"):
        other = runs[mode][0]
        if len(other) != len(inc_results):
            print(f"FAIL: serve mode {mode} answered {len(other)}/{len(inc_results)} queries")
            failures += 1
            continue
        for index, (lhs, rhs) in enumerate(zip(inc_results, other)):
            if not same_rows(lhs, rhs, ordered=True):
                print(f"FAIL: serve query {index} diverges (incremental vs {mode})")
                failures += 1
                break

    inc_queries = latency_summary(runs["incremental"][1])
    direct_queries = latency_summary(runs["direct"][1])
    patched_ms = sum(runs["incremental"][2]) * 1000.0
    rebuilt_ms = sum(runs["cached-recompute"][2]) * 1000.0
    delta_speedup = rebuilt_ms / patched_ms if patched_ms else float("inf")
    print(
        f"serve rows={rows}: incremental qps={inc_queries['qps']:.0f} "
        f"p99={inc_queries['p99_ms']:.2f}ms direct qps={direct_queries['qps']:.0f} "
        f"p99={direct_queries['p99_ms']:.2f}ms | deltas patched={patched_ms:.2f}ms "
        f"rebuilt={rebuilt_ms:.2f}ms speedup={delta_speedup:.2f}x"
    )
    required = SERVE_SPEEDUP.required(rows)
    if delta_speedup < required:
        failures += _enforce(
            f"patched deltas only {delta_speedup:.2f}x faster than view rebuilds "
            f"(required >= {required:.1f}x at rows={rows})"
        )
    if inc_queries["qps"] < direct_queries["qps"]:
        print(
            "WARN: cached serving slower than per-query recompute at the smoke size "
            "(cold view builds dominate tiny inputs; `python -m repro.harness serve` "
            "measures larger N)"
        )
    if not failures:
        print("OK: serve modes agree bit-for-bit over the query/delta mix")
    return failures


def smoke_sql(rows: int) -> int:
    """The SQL frontend's optimized plan agrees with its oracles and stays fast.

    Compiles the scaling query (``repro.workloads.sql``) against a fresh
    catalog and asserts three-way bit-identity: the optimized columnar plan
    must equal the unoptimized (literal-lowering) columnar plan must equal
    the row-at-a-time Python execution.  The optimized plan's joins must
    also resolve to a non-quadratic kernel — a ``grid`` join here means the
    kernel-preference rule regressed.  Divergence is always fatal.

    The timing gate brackets what the optimizer rules buy: optimized vs
    unoptimized (grid join, no pushdown, no pruning).  As with the other
    smokes the gap only warns by default and turns fatal under
    ``REPRO_SMOKE_STRICT_PERF=1`` — at ``rows >= 1024`` strict mode requires
    the acceptance ratio of >= 5x; below that, parity.
    """
    from repro.workloads.sql import (
        run_sql_optimized,
        run_sql_python,
        run_sql_unoptimized,
        sql_catalog,
    )

    catalog = sql_catalog(rows, seed=0)
    optimized, kernels = run_sql_optimized(catalog)
    failures = 0
    for label, oracle in (
        ("unoptimized", run_sql_unoptimized),
        ("python", run_sql_python),
    ):
        if not same_rows(optimized, oracle(catalog)):
            print(f"FAIL: sql optimized plan diverges from the {label} execution")
            failures += 1
    if "grid" in kernels:
        print(f"FAIL: sql optimized plan fell back to a grid join (kernels={kernels})")
        failures += 1

    optimized_ms = best_of(lambda: run_sql_optimized(catalog), reps=SQL_SPEEDUP.reps)
    unoptimized_ms = best_of(lambda: run_sql_unoptimized(catalog), reps=SQL_SPEEDUP.reps)
    speedup = unoptimized_ms / optimized_ms if optimized_ms else float("inf")
    print(
        f"sql rows={rows}: unoptimized={unoptimized_ms:.2f}ms "
        f"optimized={optimized_ms:.2f}ms speedup={speedup:.2f}x "
        f"kernels={'+'.join(kernels)}"
    )
    required = SQL_SPEEDUP.required(rows)
    if speedup < required:
        failures += _enforce(
            f"optimized sql plan only {speedup:.2f}x faster than the unoptimized "
            f"lowering (required >= {required:.1f}x at rows={rows})"
        )
    if not failures:
        print("OK: sql executions agree bit-for-bit (optimized vs unoptimized vs python)")
    return failures


def main(rows: int = 200) -> int:
    failures = (
        smoke_sort(rows)
        + smoke_window(rows)
        + sum(smoke_workload(name, rows) for name in WORKLOADS)
        + smoke_serve(rows)
        + smoke_sql(rows)
    )
    if not failures:
        print("OK: backends agree bit-for-bit")
    return failures


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 200))
