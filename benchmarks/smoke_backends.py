"""Small-N smoke run of the sort- and window-scaling benchmarks on both backends.

Used by CI to catch two regressions fast, without the full benchmark suite:

* **backend divergence** — the columnar backend must produce bit-identical
  results to the Python backend (and both must match the definitional
  rewrite) on the sort, top-k, and window paths — including following-only
  frames, which exercise the mirrored-order reduction — and on the full
  multi-operator ``select -> join -> project -> window``,
  ``select -> join -> groupby -> window``, and (multi-window)
  ``select -> join -> window -> select -> window`` pipelines, where the
  columnar plan stays in columnar layout between stages — the multi-window
  plan additionally pins the chained plan against the per-stage round-trip
  execution of the same kernels,
* **performance regressions** — the columnar backend should stay faster
  than the Python backend at the smoke size, on the full sort and on a
  top-``rows // 4`` (the full
  ``bench_fig14_sort_scaling.py`` / ``bench_fig15_window_scaling.py`` runs
  measure the real ratios).  Wall-clock comparisons are noisy on shared CI
  runners, so a slowdown only *warns* by default; set
  ``REPRO_SMOKE_STRICT_PERF=1`` to make it fatal (e.g. for local regression
  hunting).

The serving smoke drives the synthetic query/delta mix through all three
serving modes (cached views patched per delta, cached views rebuilt per
delta, from-scratch plan per query) and asserts the answered relations are
bit-identical; in strict mode patched deltas must additionally beat view
rebuilds (>= 3x from ``rows=4096`` up).

The SQL smoke compiles the scaling query through the full rule pipeline and
asserts the optimized columnar plan is bit-identical to both the unoptimized
literal lowering and the row-at-a-time Python execution, and that its joins
avoid the quadratic grid kernel; in strict mode the optimized plan must beat
the unoptimized one (>= 5x from ``rows=1024`` up).

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


def _report_speedup(
    path: str, rows: int, baseline_ms: float, columnar_ms: float, *, baseline: str = "python"
) -> int:
    speedup = baseline_ms / columnar_ms if columnar_ms else float("inf")
    print(
        f"{path} rows={rows}: {baseline}={baseline_ms:.2f}ms columnar={columnar_ms:.2f}ms "
        f"speedup={speedup:.2f}x"
    )
    if speedup < 1.0:
        if os.environ.get("REPRO_SMOKE_STRICT_PERF") == "1":
            print(f"FAIL: columnar backend slower than the {baseline} path on {path}")
            return 1
        print(
            f"WARN: columnar backend slower than the {baseline} path on {path} "
            "(not fatal; set REPRO_SMOKE_STRICT_PERF=1 to enforce)"
        )
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


def smoke_pipeline(rows: int) -> int:
    from repro.workloads.pipeline import (
        pipeline_inputs,
        run_pipeline_columnar,
        run_pipeline_python,
    )

    fact, dim, threshold = pipeline_inputs(rows)
    columnar_fact = ColumnarAURelation.from_relation(fact)
    columnar_dim = ColumnarAURelation.from_relation(dim)

    failures = 0
    python_result = run_pipeline_python(fact, dim, threshold)
    columnar_result = run_pipeline_columnar(columnar_fact, columnar_dim, threshold)
    if not (
        python_result.schema == columnar_result.schema
        and python_result._rows == columnar_result._rows
    ):
        print("FAIL: select->join->project->window pipeline backends diverge")
        failures += 1

    python_ms = best_of(lambda: run_pipeline_python(fact, dim, threshold))
    columnar_ms = best_of(lambda: run_pipeline_columnar(columnar_fact, columnar_dim, threshold))
    failures += _report_speedup("pipeline", rows, python_ms, columnar_ms)
    return failures


def smoke_groupby(rows: int) -> int:
    from repro.workloads.pipeline import (
        pipeline_inputs,
        run_groupby_pipeline_columnar,
        run_groupby_pipeline_python,
    )

    fact, dim, threshold = pipeline_inputs(rows)
    columnar_fact = ColumnarAURelation.from_relation(fact)
    columnar_dim = ColumnarAURelation.from_relation(dim)

    failures = 0
    python_result = run_groupby_pipeline_python(fact, dim, threshold)
    columnar_result = run_groupby_pipeline_columnar(columnar_fact, columnar_dim, threshold)
    if not (
        python_result.schema == columnar_result.schema
        and python_result._rows == columnar_result._rows
    ):
        print("FAIL: select->join->groupby->window pipeline backends diverge")
        failures += 1

    python_ms = best_of(lambda: run_groupby_pipeline_python(fact, dim, threshold))
    columnar_ms = best_of(
        lambda: run_groupby_pipeline_columnar(columnar_fact, columnar_dim, threshold)
    )
    failures += _report_speedup("groupby-pipeline", rows, python_ms, columnar_ms)
    return failures


def smoke_multiwindow(rows: int) -> int:
    """The multi-window plan: chained-columnar vs per-stage round trips.

    Asserts all three execution paths (python, per-stage ``backend="columnar"``
    round trips, chained ``ColumnarPlan``) are bit-identical, and that the
    chained plan — whose sort/window stages emit columnar output — beats the
    path that re-materialises a row-major relation after every stage.  The
    round-trip path starts from the row-major tables (its execution model is
    row-major in and out of every stage); the chained plan runs over the
    columnar-resident tables.
    """
    from repro.workloads.pipeline import (
        multiwindow_inputs,
        run_multiwindow_columnar,
        run_multiwindow_python,
        run_multiwindow_roundtrip_columnar,
    )

    fact, dim, threshold = multiwindow_inputs(rows)
    columnar_fact = ColumnarAURelation.from_relation(fact)
    columnar_dim = ColumnarAURelation.from_relation(dim)

    failures = 0
    python_result = run_multiwindow_python(fact, dim, threshold)
    roundtrip_result = run_multiwindow_roundtrip_columnar(fact, dim, threshold)
    chained_result = run_multiwindow_columnar(columnar_fact, columnar_dim, threshold)
    if not (
        python_result.schema == roundtrip_result.schema == chained_result.schema
        and python_result._rows == roundtrip_result._rows == chained_result._rows
    ):
        print("FAIL: select->join->window->select->window paths diverge")
        failures += 1

    python_ms = best_of(lambda: run_multiwindow_python(fact, dim, threshold))
    chained_ms = best_of(
        lambda: run_multiwindow_columnar(columnar_fact, columnar_dim, threshold)
    )
    failures += _report_speedup("multiwindow", rows, python_ms, chained_ms)

    roundtrip_ms = best_of(lambda: run_multiwindow_roundtrip_columnar(fact, dim, threshold))
    failures += _report_speedup(
        "multiwindow-roundtrip", rows, roundtrip_ms, chained_ms, baseline="roundtrip"
    )
    return failures


def smoke_equijoin(rows: int) -> int:
    from repro.workloads.pipeline import (
        equijoin_inputs,
        run_equijoin_columnar,
        run_equijoin_python,
    )

    left, right = equijoin_inputs(rows)
    columnar_left = ColumnarAURelation.from_relation(left)
    columnar_right = ColumnarAURelation.from_relation(right)

    failures = 0
    python_result = run_equijoin_python(left, right)
    grid_result = run_equijoin_columnar(columnar_left, columnar_right, method="grid")
    fast_result = run_equijoin_columnar(columnar_left, columnar_right, method="searchsorted")
    if not (
        python_result.schema == grid_result.schema == fast_result.schema
        and python_result._rows == grid_result._rows == fast_result._rows
    ):
        print("FAIL: equi-join python / grid / searchsorted kernels diverge")
        failures += 1

    python_ms = best_of(lambda: run_equijoin_python(left, right))
    columnar_ms = best_of(
        lambda: run_equijoin_columnar(columnar_left, columnar_right, method="searchsorted")
    )
    failures += _report_speedup("equijoin", rows, python_ms, columnar_ms)
    return failures


def smoke_rangejoin(rows: int) -> int:
    """Both-sides-uncertain range join: sweep kernel vs the quadratic grid.

    Three gates, at N = max(rows, 512) so the asymptotics are visible:

    * **bit-identity** — python / grid / sweep / auto results must agree —
      divergence is fatal;
    * **candidate-pair ceiling** — the sweep must enumerate asymptotically
      fewer candidate pairs than the grid's ``|L|·|R|`` (the workload's
      interval overlaps are ``O(N)``), so a regression that silently
      degrades to near-cross-product enumeration fails CI;
    * **performance** — the sweep should beat the grid contender (warn-only
      unless ``REPRO_SMOKE_STRICT_PERF=1``).
    """
    from repro.columnar import operators as col_ops
    from repro.workloads.pipeline import (
        rangejoin_inputs,
        run_rangejoin_columnar,
        run_rangejoin_python,
    )

    size = max(rows, 512)
    left, right = rangejoin_inputs(size)
    columnar_left = ColumnarAURelation.from_relation(left)
    columnar_right = ColumnarAURelation.from_relation(right)

    failures = 0
    python_result = run_rangejoin_python(left, right)
    grid_result = run_rangejoin_columnar(columnar_left, columnar_right, method="grid")
    sweep_result = run_rangejoin_columnar(columnar_left, columnar_right, method="sweep")
    auto_result = run_rangejoin_columnar(columnar_left, columnar_right, method="auto")
    if not (
        python_result.schema
        == grid_result.schema
        == sweep_result.schema
        == auto_result.schema
        and python_result._rows
        == grid_result._rows
        == sweep_result._rows
        == auto_result._rows
    ):
        print("FAIL: range-join python / grid / sweep / auto kernels diverge")
        failures += 1

    kernel = col_ops.planned_join_kernel(columnar_left, columnar_right, on=["k"])
    if kernel != "sweep":
        print(f"FAIL: method='auto' planned {kernel!r} for the range join, not 'sweep'")
        failures += 1

    candidates = col_ops.candidate_key_pairs(
        [columnar_left.column("k")], [columnar_right.column("k")], kernels=("sweep",)
    )
    grid_pairs = len(columnar_left) * len(columnar_right)
    sweep_pairs = len(candidates[0]) if candidates is not None else grid_pairs
    print(f"rangejoin rows={size}: sweep candidates={sweep_pairs} grid={grid_pairs}")
    if sweep_pairs * 8 >= grid_pairs:
        print(
            "FAIL: sweep kernel enumerated too many candidate pairs "
            f"({sweep_pairs} vs grid {grid_pairs}) — near-cross-product enumeration"
        )
        failures += 1

    grid_ms = best_of(
        lambda: run_rangejoin_columnar(columnar_left, columnar_right, method="grid")
    )
    sweep_ms = best_of(
        lambda: run_rangejoin_columnar(columnar_left, columnar_right, method="sweep")
    )
    failures += _report_speedup("rangejoin", size, grid_ms, sweep_ms, baseline="grid")
    return failures


def smoke_factjoin(rows: int) -> int:
    """The factorised select → join → select → window chain vs the expanded grid.

    Three gates, at N = max(rows, 512) so the asymptotics are visible:

    * **bit-identity** — python / expanded grid / factorised results must
      agree at ``.to_rows()`` — divergence is fatal;
    * **peak allocation** — the factorised path must materialise
      asymptotically fewer pair rows than the grid's ``|L'|·|R|`` scratch
      (``pair_rows_materialised`` counts every pair-length array the
      factorised representation gathers), so a regression that silently
      re-expands mid-chain fails CI;
    * **performance** — factorised should beat the grid contender
      (warn-only unless ``REPRO_SMOKE_STRICT_PERF=1``, like every other
      wall-clock gate here).
    """
    from repro.columnar.factorised import pair_rows_materialised, reset_pair_rows
    from repro.core.expressions import attr, const
    from repro.core.operators import select
    from repro.workloads.pipeline import (
        factjoin_inputs,
        run_factjoin_columnar,
        run_factjoin_python,
    )

    size = max(rows, 512)
    left, right, v_threshold, w_threshold = factjoin_inputs(size)
    columnar_left = ColumnarAURelation.from_relation(left)
    columnar_right = ColumnarAURelation.from_relation(right)

    failures = 0
    python_result = run_factjoin_python(left, right, v_threshold, w_threshold)
    grid_result = run_factjoin_columnar(
        columnar_left, columnar_right, v_threshold, w_threshold, method="grid"
    )
    reset_pair_rows()
    fact_result = run_factjoin_columnar(
        columnar_left, columnar_right, v_threshold, w_threshold
    )
    fact_alloc = pair_rows_materialised()
    if not (
        python_result.schema == grid_result.schema == fact_result.schema
        and python_result._rows == grid_result._rows == fact_result._rows
    ):
        print("FAIL: factjoin python / grid / factorised paths diverge")
        failures += 1

    grid_pairs = len(select(left, attr("v").ge(const(v_threshold)))) * len(right)
    print(
        f"factjoin rows={size}: factorised pair-rows={fact_alloc} "
        f"grid pair-grid={grid_pairs}"
    )
    if fact_alloc * 8 >= grid_pairs:
        print(
            "FAIL: factorised chain materialised too many pair rows "
            f"({fact_alloc} vs grid {grid_pairs}) — something expands mid-chain"
        )
        failures += 1

    grid_ms = best_of(
        lambda: run_factjoin_columnar(
            columnar_left, columnar_right, v_threshold, w_threshold, method="grid"
        )
    )
    fact_ms = best_of(
        lambda: run_factjoin_columnar(
            columnar_left, columnar_right, v_threshold, w_threshold
        )
    )
    failures += _report_speedup("factjoin", size, grid_ms, fact_ms, baseline="grid")
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
            if lhs.schema != rhs.schema or list(lhs._rows.items()) != list(rhs._rows.items()):
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
    required = 3.0 if rows >= 4096 else 1.0
    if delta_speedup < required:
        message = (
            f"patched deltas only {delta_speedup:.2f}x faster than view rebuilds "
            f"(required >= {required:.1f}x at rows={rows})"
        )
        if os.environ.get("REPRO_SMOKE_STRICT_PERF") == "1":
            print(f"FAIL: {message}")
            failures += 1
        else:
            print(f"WARN: {message} (not fatal; set REPRO_SMOKE_STRICT_PERF=1 to enforce)")
    if inc_queries["qps"] < direct_queries["qps"]:
        print(
            "WARN: cached serving slower than per-query recompute at the smoke size "
            "(cold view builds dominate tiny inputs; tools/bench_trajectory.py "
            "measures the warm large-N ratios)"
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
        sql_join_kernels,
    )

    catalog = sql_catalog(rows, seed=0)
    optimized = run_sql_optimized(catalog)
    failures = 0
    for label, oracle in (
        ("unoptimized", run_sql_unoptimized),
        ("python", run_sql_python),
    ):
        other = oracle(catalog)
        if optimized.schema != other.schema or optimized._rows != other._rows:
            print(f"FAIL: sql optimized plan diverges from the {label} execution")
            failures += 1
    kernels = sql_join_kernels(catalog)
    if "grid" in kernels:
        print(f"FAIL: sql optimized plan fell back to a grid join (kernels={kernels})")
        failures += 1

    optimized_ms = best_of(lambda: run_sql_optimized(catalog), reps=3)
    unoptimized_ms = best_of(lambda: run_sql_unoptimized(catalog), reps=3)
    speedup = unoptimized_ms / optimized_ms if optimized_ms else float("inf")
    print(
        f"sql rows={rows}: unoptimized={unoptimized_ms:.2f}ms "
        f"optimized={optimized_ms:.2f}ms speedup={speedup:.2f}x "
        f"kernels={'+'.join(kernels)}"
    )
    required = 5.0 if rows >= 1024 else 1.0
    if speedup < required:
        message = (
            f"optimized sql plan only {speedup:.2f}x faster than the unoptimized "
            f"lowering (required >= {required:.1f}x at rows={rows})"
        )
        if os.environ.get("REPRO_SMOKE_STRICT_PERF") == "1":
            print(f"FAIL: {message}")
            failures += 1
        else:
            print(f"WARN: {message} (not fatal; set REPRO_SMOKE_STRICT_PERF=1 to enforce)")
    if not failures:
        print("OK: sql executions agree bit-for-bit (optimized vs unoptimized vs python)")
    return failures


def main(rows: int = 200) -> int:
    failures = (
        smoke_sort(rows)
        + smoke_window(rows)
        + smoke_pipeline(rows)
        + smoke_groupby(rows)
        + smoke_multiwindow(rows)
        + smoke_equijoin(rows)
        + smoke_rangejoin(rows)
        + smoke_factjoin(rows)
        + smoke_serve(rows)
        + smoke_sql(rows)
    )
    if not failures:
        print("OK: backends agree bit-for-bit")
    return failures


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 200))
