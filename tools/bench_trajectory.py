"""Append multiwindow / equijoin / rangejoin / factjoin timings to a trajectory file.

Each run appends one JSON record to a ``BENCH_*.json`` trajectory (a JSON
array at the repository root) timing the large-N harness workloads — the
multi-window plan (``select -> join -> window -> select -> window``), the
equi-join and range×range join (each timing carries the pair-enumeration
kernel ``method="auto"`` selects, via
:func:`repro.columnar.operators.planned_join_kernel`, so a dispatch
regression is diffable across records), plus the factorised
``select -> join -> select -> window`` chain (``factjoin``).  The factjoin
block compares the fully expanded grid plan against the factorised
representation head-to-head: each path runs in a forked child process so
``resource.getrusage(RUSAGE_SELF).ru_maxrss`` isolates its peak RSS, and the
record carries the estimated expanded pair-row count (``|L'| * |R|``)
alongside the pair rows the factorised path actually materialised
(:func:`repro.columnar.factorised.pair_rows_materialised`).  Above the grid
ceiling only the factorised path runs — that asymmetry *is* the datapoint.
The rangejoin block does the same for the both-sides-uncertain interval
join: sweep-kernel timing plus its candidate-pair count, with the quadratic
grid contender only below the ceiling.  The ``serve`` harness drives the
synthetic query/delta serving mix through all three serving modes
(cached-incremental, cached-recompute, direct) and records QPS/p99 per
mode plus the patched-vs-rebuilt delta totals, asserting bit-identity
across the modes first.  The ``sql`` harness compiles the SQL scaling query
through the full rule pipeline and brackets optimized vs unoptimized
(literal-lowering) vs Python-oracle timings, asserting three-way
bit-identity and recording the join kernels the optimizer steered onto.

Records carry the host's core count, so downstream tooling can tell
machines apart rather than compare raw milliseconds across them.

Runs are config-driven: ``--config benchmarks/configs/<id>.json`` holds the
workload shape (rows / reps / harness ids / output file) as JSON,
so every PR re-runs the *same* named configuration and the appended records
diff cleanly across commits.  Explicit CLI flags override config values.

Example::

    PYTHONPATH=src python tools/bench_trajectory.py --config benchmarks/configs/pipeline.json
    PYTHONPATH=src python tools/bench_trajectory.py --config benchmarks/configs/rangejoin.json
    PYTHONPATH=src python tools/bench_trajectory.py --rows 20000

The trajectory is append-only — committing the file over time charts the
backend's perf history against a fixed workload shape.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_pipeline.json"

#: Harness ids a config's ``harnesses`` list may name.
HARNESSES = ("multiwindow", "equijoin", "rangejoin", "factjoin", "serve", "sql")


def best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def _forked_best_of(fn, reps: int) -> tuple[float, int]:
    """Best-of timing plus peak RSS, measured in a forked child process.

    Forking isolates the measurement: ``ru_maxrss`` is a per-process
    high-water mark, so running both contenders in one process would let
    whichever ran first set the mark for both.  The child inherits the
    parent's pages copy-on-write, times ``fn`` like :func:`best_of`, and
    reports ``(best_ms, peak_rss_kb)`` back through a queue.  ``ru_maxrss``
    is kilobytes on Linux.
    """
    import multiprocessing
    import resource

    context = multiprocessing.get_context("fork")
    channel = context.Queue()

    def child() -> None:
        best = best_of(fn, reps)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        channel.put((best, int(peak)))

    process = context.Process(target=child)
    process.start()
    try:
        best_ms, peak_rss_kb = channel.get()
    finally:
        process.join()
    return best_ms, peak_rss_kb


def measure_factjoin(rows: int, reps: int, *, grid_ceiling: int = 1024) -> dict:
    """Time the factjoin chain and record peak RSS + pair-row counts.

    Returns one JSON-ready block: logical row counts first (estimated
    expanded pairs vs pair rows the factorised path materialised), then the
    per-path timings and peak RSS.  The grid path is skipped above
    ``grid_ceiling`` (its scratch is ``O(|L'| * |R|)``); the factorised path
    always runs.
    """
    from repro.columnar import operators as col_ops
    from repro.columnar.factorised import pair_rows_materialised, reset_pair_rows
    from repro.columnar.relation import ColumnarAURelation
    from repro.core.expressions import attr, const
    from repro.core.operators import select
    from repro.workloads.pipeline import factjoin_inputs, run_factjoin_columnar

    left, right, v_threshold, w_threshold = factjoin_inputs(rows)
    columnar_left = ColumnarAURelation.from_relation(left)
    columnar_right = ColumnarAURelation.from_relation(right)

    expanded_pairs = len(select(left, attr("v").ge(const(v_threshold)))) * len(right)
    reset_pair_rows()
    result = run_factjoin_columnar(
        columnar_left, columnar_right, v_threshold, w_threshold
    )
    factorised_pairs = pair_rows_materialised()

    block = {
        "rows": rows,
        "kernel": col_ops.planned_join_kernel(columnar_left, columnar_right, on=["k"]),
        "output_rows": len(result),
        "expanded_pair_rows": expanded_pairs,
        "factorised_pair_rows": factorised_pairs,
    }
    factorised_ms, factorised_rss = _forked_best_of(
        lambda: run_factjoin_columnar(
            columnar_left, columnar_right, v_threshold, w_threshold
        ),
        reps,
    )
    block["factorised_ms"] = round(factorised_ms, 3)
    block["factorised_peak_rss_kb"] = factorised_rss
    if rows <= grid_ceiling:
        grid_ms, grid_rss = _forked_best_of(
            lambda: run_factjoin_columnar(
                columnar_left, columnar_right, v_threshold, w_threshold, method="grid"
            ),
            reps,
        )
        block["grid_ms"] = round(grid_ms, 3)
        block["grid_peak_rss_kb"] = grid_rss
        print(
            f"factjoin rows={rows}: factorised={factorised_ms:.1f}ms "
            f"(peak {factorised_rss}KB, {factorised_pairs} pair rows) "
            f"grid={grid_ms:.1f}ms (peak {grid_rss}KB, {expanded_pairs} pair rows)"
        )
    else:
        print(
            f"factjoin rows={rows}: factorised={factorised_ms:.1f}ms "
            f"(peak {factorised_rss}KB, {factorised_pairs} pair rows) "
            f"grid skipped (would expand {expanded_pairs} pair rows)"
        )
    return block


def measure_rangejoin(rows: int, reps: int, *, grid_ceiling: int = 1024) -> dict:
    """Time the both-sides-uncertain range join: overlap sweep vs the grid.

    Records the kernel ``method="auto"`` selects, the sweep's candidate-pair
    count against the grid's ``|L|·|R|``, and the sweep timing; the grid
    contender only runs below ``grid_ceiling``.
    """
    from repro.columnar import operators as col_ops
    from repro.columnar.relation import ColumnarAURelation
    from repro.workloads.pipeline import rangejoin_inputs, run_rangejoin_columnar

    left, right = rangejoin_inputs(rows)
    columnar_left = ColumnarAURelation.from_relation(left)
    columnar_right = ColumnarAURelation.from_relation(right)

    candidates = col_ops.candidate_key_pairs(
        [columnar_left.column("k")], [columnar_right.column("k")], kernels=("sweep",)
    )
    block = {
        "rows": rows,
        "kernel": col_ops.planned_join_kernel(columnar_left, columnar_right, on=["k"]),
        "sweep_candidate_pairs": 0 if candidates is None else len(candidates[0]),
        "grid_pairs": len(columnar_left) * len(columnar_right),
    }
    sweep_ms = best_of(
        lambda: run_rangejoin_columnar(columnar_left, columnar_right, method="sweep"),
        reps,
    )
    block["sweep_ms"] = round(sweep_ms, 3)
    if rows <= grid_ceiling:
        grid_ms = best_of(
            lambda: run_rangejoin_columnar(columnar_left, columnar_right, method="grid"),
            reps,
        )
        block["grid_ms"] = round(grid_ms, 3)
        print(
            f"rangejoin rows={rows}: sweep={sweep_ms:.1f}ms "
            f"({block['sweep_candidate_pairs']} candidates) grid={grid_ms:.1f}ms "
            f"({block['grid_pairs']} pairs)"
        )
    else:
        print(
            f"rangejoin rows={rows}: sweep={sweep_ms:.1f}ms "
            f"({block['sweep_candidate_pairs']} candidates) grid skipped "
            f"(would expand {block['grid_pairs']} pairs)"
        )
    return block


def measure_serve(rows: int, reps: int, *, queries: int = 200, deltas: int = 10) -> dict:
    """Time the cached-incremental serving mix against recompute-per-query.

    Runs the same synthetic query/delta schedule under all three serving
    modes (:data:`repro.workloads.serve.SERVE_MODES`), asserts the answered
    relations are bit-identical, and records per-mode QPS/p99 plus the
    patched-vs-rebuilt delta totals — the two ratios the serving layer
    exists to improve.  ``reps`` keeps the best (lowest total wall-clock)
    run per mode.
    """
    from repro.workloads.serve import (
        SERVE_MODES,
        latency_summary,
        run_serve_mix,
        serve_inputs,
        serve_schedule,
    )

    base = serve_inputs(rows, seed=0)
    schedule = serve_schedule(base, queries=queries, deltas=deltas, seed=0)
    best: dict[str, tuple] = {}
    reference = None
    for mode in SERVE_MODES:
        for _ in range(max(1, reps)):
            results, query_seconds, delta_seconds = run_serve_mix(
                base, schedule, mode=mode
            )
            total = sum(query_seconds) + sum(delta_seconds)
            if mode not in best or total < best[mode][0]:
                best[mode] = (total, query_seconds, delta_seconds)
        if reference is None:
            reference = results
        else:
            for lhs, rhs in zip(reference, results):
                if lhs.schema != rhs.schema or list(lhs._rows.items()) != list(
                    rhs._rows.items()
                ):
                    raise SystemExit(
                        f"serve harness: mode {mode!r} diverges from incremental results"
                    )

    incremental = latency_summary(best["incremental"][1])
    direct = latency_summary(best["direct"][1])
    patched_ms = sum(best["incremental"][2]) * 1000.0
    rebuilt_ms = sum(best["cached-recompute"][2]) * 1000.0
    query_speedup = incremental["qps"] / direct["qps"] if direct["qps"] else float("inf")
    delta_speedup = rebuilt_ms / patched_ms if patched_ms else float("inf")
    block = {
        "rows": rows,
        "queries": queries,
        "deltas": deltas,
        "incremental_qps": round(incremental["qps"], 1),
        "incremental_p99_ms": round(incremental["p99_ms"], 3),
        "direct_qps": round(direct["qps"], 1),
        "direct_p99_ms": round(direct["p99_ms"], 3),
        "query_speedup": round(query_speedup, 2),
        "patched_delta_ms": round(patched_ms, 3),
        "rebuilt_delta_ms": round(rebuilt_ms, 3),
        "delta_speedup": round(delta_speedup, 2),
    }
    print(
        f"serve rows={rows} queries={queries} deltas={deltas}: "
        f"incremental qps={incremental['qps']:.0f} p99={incremental['p99_ms']:.1f}ms "
        f"direct qps={direct['qps']:.0f} p99={direct['p99_ms']:.1f}ms "
        f"({query_speedup:.2f}x) | deltas patched={patched_ms:.1f}ms "
        f"rebuilt={rebuilt_ms:.1f}ms ({delta_speedup:.2f}x)"
    )
    return block


def measure_sql(rows: int, reps: int, *, grid_ceiling: int = 4096) -> dict:
    """Time the SQL scaling query: optimized rule pipeline vs literal lowering.

    Asserts three-way bit-identity first — the optimized columnar plan must
    equal the unoptimized (grid join, no pushdown, no pruning) plan and the
    row-at-a-time Python oracle — then records both columnar timings plus
    the pair-enumeration kernels the optimized joins resolve to, so a
    kernel-preference regression (a join falling back to the grid) shows in
    the trajectory diff.  The quadratic contenders (unoptimized, python)
    only run up to ``grid_ceiling``.
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
    kernels = sql_join_kernels(catalog)
    block: dict = {
        "rows": rows,
        "kernels": list(kernels),
        "output_rows": len(optimized),
    }
    optimized_ms = best_of(lambda: run_sql_optimized(catalog), reps)
    block["optimized_ms"] = round(optimized_ms, 3)
    if rows <= grid_ceiling:
        for label, oracle in (
            ("unoptimized", run_sql_unoptimized),
            ("python", run_sql_python),
        ):
            other = oracle(catalog)
            if optimized.schema != other.schema or optimized._rows != other._rows:
                raise SystemExit(
                    f"sql harness: optimized plan diverges from the {label} execution"
                )
        unoptimized_ms = best_of(lambda: run_sql_unoptimized(catalog), reps)
        python_ms = best_of(lambda: run_sql_python(catalog), reps)
        speedup = unoptimized_ms / optimized_ms if optimized_ms else float("inf")
        block["unoptimized_ms"] = round(unoptimized_ms, 3)
        block["python_ms"] = round(python_ms, 3)
        block["optimizer_speedup"] = round(speedup, 2)
        print(
            f"sql rows={rows}: optimized={optimized_ms:.1f}ms "
            f"unoptimized={unoptimized_ms:.1f}ms python={python_ms:.1f}ms "
            f"({speedup:.2f}x) kernels={'+'.join(kernels)}"
        )
    else:
        print(
            f"sql rows={rows}: optimized={optimized_ms:.1f}ms "
            f"quadratic contenders skipped above rows={grid_ceiling} "
            f"kernels={'+'.join(kernels)}"
        )
    return block


def measure(rows: int, reps: int, harnesses: list[str]) -> dict:
    """Timings for the requested scaling harnesses.

    Every join timing records the kernel the ``method="auto"`` dispatch
    would select for the workload's inputs, so a silent dispatch regression
    (a workload falling back to the grid) shows up in the trajectory diff
    even when the milliseconds drift.
    """
    from repro.columnar import operators as col_ops
    from repro.columnar.relation import ColumnarAURelation
    from repro.workloads.pipeline import (
        equijoin_inputs,
        multiwindow_inputs,
        rangejoin_inputs,
        run_equijoin_columnar,
        run_multiwindow_columnar,
        run_rangejoin_columnar,
    )

    entry: dict = {}
    report = []
    if "multiwindow" in harnesses:
        fact, dim, threshold = multiwindow_inputs(rows)
        fact = ColumnarAURelation.from_relation(fact)
        dim = ColumnarAURelation.from_relation(dim)
        ms = best_of(lambda: run_multiwindow_columnar(fact, dim, threshold), reps)
        entry["multiwindow_ms"] = round(ms, 3)
        report.append(f"multiwindow={ms:.1f}ms")
    for name, inputs, run in (
        ("equijoin", equijoin_inputs, run_equijoin_columnar),
        ("rangejoin", rangejoin_inputs, run_rangejoin_columnar),
    ):
        if name not in harnesses:
            continue
        left, right = (ColumnarAURelation.from_relation(r) for r in inputs(rows))
        kernel = col_ops.planned_join_kernel(left, right, on=["k"])
        ms = best_of(lambda: run(left, right, method=kernel), reps)
        entry[f"{name}_ms"] = round(ms, 3)
        entry[f"{name}_kernel"] = kernel
        report.append(f"{name}={ms:.1f}ms[{kernel}]")
    print(" ".join(report))
    return entry


def load_config(path: Path) -> dict:
    """Parse and validate one ``benchmarks/configs/<id>.json`` file."""
    config = json.loads(path.read_text())
    if not isinstance(config, dict):
        raise SystemExit(f"{path} must hold a JSON object")
    unknown = set(config) - {
        "rows", "reps", "harnesses", "factjoin_rows", "output",
        "queries", "deltas",
    }
    if unknown:
        raise SystemExit(f"{path}: unknown config keys {sorted(unknown)}")
    harnesses = config.get("harnesses", [])
    bad = [h for h in harnesses if h not in HARNESSES]
    if bad:
        raise SystemExit(f"{path}: unknown harness ids {bad}; expected {HARNESSES}")
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        help="JSON config (benchmarks/configs/<id>.json) supplying defaults "
        "for rows/reps/harnesses/output; explicit flags override",
    )
    parser.add_argument("--rows", type=int, default=None, help="workload size (default 20000)")
    parser.add_argument("--reps", type=int, default=None, help="repetitions, best-of (default 1)")
    parser.add_argument(
        "--factjoin-rows",
        type=int,
        default=None,
        help="factjoin chain size; 0 skips the factjoin block (default 4096)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="trajectory file to append to"
    )
    args = parser.parse_args(argv)

    config = load_config(args.config) if args.config else {}
    rows = args.rows if args.rows is not None else config.get("rows", 20000)
    reps = args.reps if args.reps is not None else config.get("reps", 1)
    harnesses = config.get("harnesses") or ["multiwindow", "equijoin"]
    factjoin_rows = (
        args.factjoin_rows
        if args.factjoin_rows is not None
        else config.get("factjoin_rows", 4096 if "factjoin" in harnesses or not config else 0)
    )
    output = args.output or (
        REPO_ROOT / config["output"] if "output" in config else DEFAULT_OUTPUT
    )

    scaling = [h for h in harnesses if h not in ("factjoin", "serve", "sql")]
    results = [measure(rows, reps, scaling)] if scaling else []
    record = {
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "rows": rows,
        "reps": reps,
        "cpus": os.cpu_count() or 1,
        "results": results,
    }
    if args.config:
        record["config"] = args.config.stem
    if "rangejoin" in harnesses:
        record["rangejoin"] = measure_rangejoin(max(rows, 4096), reps)
    if factjoin_rows > 0:
        record["factjoin"] = measure_factjoin(factjoin_rows, reps)
    if "sql" in harnesses:
        record["sql"] = measure_sql(rows, reps)
    if "serve" in harnesses:
        record["serve"] = measure_serve(
            rows,
            reps,
            queries=config.get("queries", 200),
            deltas=config.get("deltas", 10),
        )

    trajectory = []
    if output.exists():
        trajectory = json.loads(output.read_text())
        if not isinstance(trajectory, list):
            raise SystemExit(f"{output} is not a JSON array")
    trajectory.append(record)
    output.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"appended record #{len(trajectory)} to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
