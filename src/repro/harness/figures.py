"""Per-figure experiment drivers reproducing the paper's evaluation tables.

Every public function regenerates one table or figure of Section 9 (plus the
connected-heap preliminary experiment of Section 8.2) and returns an
:class:`~repro.harness.report.ExperimentResult`.  Sizes default to values
that run in seconds on a laptop with the pure-Python substrate; pass a larger
``scale`` (or explicit row counts) for closer-to-paper workloads.  The
*shape* of each result — which method wins, by roughly what factor, who over-
vs under-approximates — is what reproduces; absolute milliseconds do not
(PostgreSQL + C vs pure Python), as discussed in EXPERIMENTS.md.

The plan-workload tables (``pipeline`` … ``factjoin``) all come from one
function, :func:`workload_table`, over the declarations of
:mod:`repro.workloads.registry`.
"""

from __future__ import annotations

import os
import random
from functools import partial
from typing import Callable, Sequence

from repro.algorithms.connected_heap import ConnectedHeap, NaiveMultiHeap
from repro.baselines.det import det_sort, det_topk, det_window
from repro.baselines.mcdb import mcdb_sort_bounds, mcdb_window_bounds
from repro.baselines.ptk import topk_probabilities_montecarlo
from repro.baselines.symb import symb_sort_bounds, symb_window_bounds
from repro.errors import EnumerationLimitError, ReproError
from repro.harness.adapters import (
    audb_from_workload,
    audb_sort_bounds,
    audb_window_bounds,
)
from repro.harness.report import ExperimentResult
from repro.harness.runner import timed_ms
from repro.metrics.quality import compare_bounds
from repro.ranking.topk import sort as au_sort, topk as au_topk
from repro.window.native import window_native
from repro.window.semantics import window_rewrite
from repro.window.spec import WindowSpec
from repro.workloads.realworld import REAL_WORLD_DATASETS, DatasetBundle
from repro.workloads.registry import (
    WORKLOADS,
    Contender,
    columnar_inputs,
    divergent,
    same_rows,
)
from repro.workloads.synthetic import SyntheticConfig, generate_sort_table, generate_window_table

__all__ = [
    "BACKEND_ENV",
    "BACKEND_CHOICES",
    "backend_enabled",
    "heap_table",
    "fig11_sort_configs",
    "fig12_sort_quality",
    "fig13_window_quality",
    "fig14_sort_scaling",
    "fig15_window_scaling",
    "fig16_window_configs",
    "fig17_realworld_performance",
    "fig18_realworld_sort_quality",
    "fig19_realworld_window_quality",
    "workload_table",
    "pipeline_scaling",
    "groupby_pipeline_scaling",
    "multiwindow_scaling",
    "equijoin_scaling",
    "rangejoin_scaling",
    "factjoin_scaling",
    "serve_scaling",
    "sql_scaling",
    "ALL_EXPERIMENTS",
]


#: Environment variable filtering which backends the experiments time.
BACKEND_ENV = "REPRO_BACKEND"

#: Valid ``REPRO_BACKEND`` / ``--backend`` values.
BACKEND_CHOICES = ("python", "columnar", "all")


def backend_enabled(backend: str) -> bool:
    """Whether ``REPRO_BACKEND`` (default ``all``) includes this backend.

    ``python`` / ``columnar`` skip the other backend's timing columns in the
    backend-comparison experiments (they print ``-``); an unrecognised value
    raises :class:`~repro.errors.ReproError` naming the valid choices.
    """
    value = os.environ.get(BACKEND_ENV, "all").strip().lower() or "all"
    if value not in BACKEND_CHOICES:
        raise ReproError(
            f"{BACKEND_ENV} must be one of {', '.join(BACKEND_CHOICES)}; got {value!r}"
        )
    return value in ("all", backend)


def _timed_columnar_ms(audb, run) -> object:
    """Time ``run(columnar)`` on a pre-converted columnar relation.

    Degrades to ``"-"`` without NumPy (or with ``REPRO_BACKEND=python``)
    instead of aborting the figure; the conversion is excluded from the
    timing, matching how the other methods are measured on pre-built inputs.
    """
    if not backend_enabled("columnar"):
        return "-"
    try:
        from repro.columnar.relation import ColumnarAURelation
    except ImportError:
        return "-"
    columnar = ColumnarAURelation.from_relation(audb)
    _, ms = timed_ms(lambda: run(columnar))
    return ms


# ---------------------------------------------------------------------------
# Section 8.2 — connected heaps vs unconnected heaps
# ---------------------------------------------------------------------------


def _heap_workload(structure_cls, records: list[tuple[int, float, float]], window: int) -> None:
    """The access pattern of the window sweep: insert, then pop+reinsert probes."""
    heap = structure_cls(
        (
            lambda record: record[0],
            lambda record: record[1],
            lambda record: -record[2],
        )
    )
    for record in records:
        heap.insert(record)
        if len(heap) > window:
            # Evict by position (component 0) and probe the value components,
            # removing the probed records from every component heap.
            heap.pop(0)
            popped = []
            for component in (1, 2):
                for _ in range(2):
                    if not len(heap):
                        break
                    popped.append(heap.pop(component))
            for record in popped:
                heap.insert(record)


def heap_table(*, items: int = 4000, seed: int = 0) -> ExperimentResult:
    """Section 8.2 preliminary experiment: connected vs unconnected heaps."""
    result = ExperimentResult(
        name="sec8.2-heaps",
        description="Connected heaps (back pointers) vs unconnected heaps (linear search), ms",
        headers=["Uncert", "Range", "Connected (ms)", "Unconnected (ms)", "speedup"],
    )
    for uncertainty in (0.01, 0.05):
        for attribute_range in (2000, 15000, 30000):
            rng = random.Random(seed)
            window = max(8, int(items * uncertainty * attribute_range / 10000))
            records = [
                (i, rng.uniform(-attribute_range, attribute_range), rng.uniform(-attribute_range, attribute_range))
                for i in range(items)
            ]
            _, connected_ms = timed_ms(lambda: _heap_workload(ConnectedHeap, records, window))
            _, naive_ms = timed_ms(lambda: _heap_workload(NaiveMultiHeap, records, window))
            result.add(
                f"{uncertainty:.0%}",
                attribute_range,
                connected_ms,
                naive_ms,
                naive_ms / connected_ms if connected_ms else float("nan"),
            )
    return result


# ---------------------------------------------------------------------------
# Figure 11 — sorting and top-k performance per configuration
# ---------------------------------------------------------------------------


def fig11_sort_configs(*, rows: int = 400, seed: int = 0, mcdb_samples: tuple[int, int] = (10, 20)) -> ExperimentResult:
    """Figure 11: sorting / top-k runtime for the paper's five configurations."""
    result = ExperimentResult(
        name="fig11",
        description="Sorting and top-k microbenchmark runtimes (ms)",
        headers=["Config", "Det", "Imp", "Rewr", "MCDB10", "MCDB20"],
    )
    configurations = [
        ("r=1k,u=5%", 1000, 0.05, None),
        ("r=10k,u=5%", 10000, 0.05, None),
        ("r=1k,u=20%", 1000, 0.20, None),
        ("r=1k,u=5%,k=2", 1000, 0.05, 2),
        ("r=1k,u=5%,k=10", 1000, 0.05, 10),
    ]
    for label, attribute_range, uncertainty, k in configurations:
        config = SyntheticConfig(
            rows=rows, uncertainty=uncertainty, attribute_range=attribute_range, seed=seed
        )
        workload = generate_sort_table(config)
        audb = audb_from_workload(workload)
        order_by = ["a"]

        if k is None:
            _, det_ms = timed_ms(lambda: det_sort(workload, order_by))
            _, imp_ms = timed_ms(lambda: au_sort(audb, order_by, method="native"))
            _, rewr_ms = timed_ms(lambda: au_sort(audb, order_by, method="rewrite"))
        else:
            _, det_ms = timed_ms(lambda: det_topk(workload, order_by, k))
            _, imp_ms = timed_ms(lambda: au_topk(audb, order_by, k, method="native"))
            _, rewr_ms = timed_ms(lambda: au_topk(audb, order_by, k, method="rewrite"))
        _, mcdb10_ms = timed_ms(
            lambda: mcdb_sort_bounds(
                workload, order_by, key_attribute="rid", samples=mcdb_samples[0], seed=seed
            )
        )
        _, mcdb20_ms = timed_ms(
            lambda: mcdb_sort_bounds(
                workload, order_by, key_attribute="rid", samples=mcdb_samples[1], seed=seed
            )
        )
        result.add(label, det_ms, imp_ms, rewr_ms, mcdb10_ms, mcdb20_ms)
    return result


# ---------------------------------------------------------------------------
# Figures 12 / 13 — approximation quality vs uncertainty and range
# ---------------------------------------------------------------------------


def _sort_quality_row(
    rows: int, uncertainty: float, attribute_range: int, seed: int
) -> tuple[float, float, float]:
    config = SyntheticConfig(
        rows=rows,
        uncertainty=uncertainty,
        attribute_range=attribute_range,
        domain=10 * rows,
        seed=seed,
    )
    workload = generate_sort_table(config)
    audb = audb_from_workload(workload)
    order_by = ["a"]
    truth = symb_sort_bounds(workload, order_by, key_attribute="rid")
    au_bounds = audb_sort_bounds(audb, order_by, key_attribute="rid", method="native")
    mcdb10 = mcdb_sort_bounds(workload, order_by, key_attribute="rid", samples=10, seed=seed)
    mcdb20 = mcdb_sort_bounds(workload, order_by, key_attribute="rid", samples=20, seed=seed)
    return (
        compare_bounds(mcdb10, truth).range_ratio,
        compare_bounds(mcdb20, truth).range_ratio,
        compare_bounds(au_bounds, truth).range_ratio,
    )


def fig12_sort_quality(*, rows: int = 64, seed: int = 0) -> ExperimentResult:
    """Figure 12: estimated-value-range of sort-position bounds (vs exact)."""
    result = ExperimentResult(
        name="fig12",
        description="Sorting approximation quality: estimated value range relative to exact bounds",
        headers=["Sweep", "Setting", "MCDB10", "MCDB20", "Imp/Rewr"],
    )
    for percent in (1, 3, 5, 7, 9):
        ratios = _sort_quality_row(rows, percent / 100.0, rows // 2, seed)
        result.add("uncertainty", f"{percent}%", *ratios)
    for attribute_range in (rows // 8, rows // 4, rows // 2, rows, 2 * rows):
        ratios = _sort_quality_row(rows, 0.05, attribute_range, seed)
        result.add("range", attribute_range, *ratios)
    return result


def _window_quality_row(
    rows: int, uncertainty: float, attribute_range: int, seed: int, spec: WindowSpec
) -> tuple[float, float, float]:
    config = SyntheticConfig(
        rows=rows,
        uncertainty=uncertainty,
        attribute_range=attribute_range,
        domain=10 * rows,
        seed=seed,
    )
    workload = generate_window_table(config, partitions=1)
    audb = audb_from_workload(workload)
    truth = symb_window_bounds(workload, spec, key_attribute="rid")
    au_bounds = audb_window_bounds(audb, spec, key_attribute="rid", method="native")
    mcdb10 = mcdb_window_bounds(workload, spec, key_attribute="rid", samples=10, seed=seed)
    mcdb20 = mcdb_window_bounds(workload, spec, key_attribute="rid", samples=20, seed=seed)
    return (
        compare_bounds(mcdb10, truth).range_ratio,
        compare_bounds(mcdb20, truth).range_ratio,
        compare_bounds(au_bounds, truth).range_ratio,
    )


def fig13_window_quality(*, rows: int = 48, seed: int = 0) -> ExperimentResult:
    """Figure 13: estimated-value-range of window-aggregate bounds (vs exact)."""
    spec = WindowSpec(
        function="sum", attribute="v", output="w_sum", order_by=("o",), frame=(-2, 0)
    )
    result = ExperimentResult(
        name="fig13",
        description="Windowed aggregation approximation quality: estimated value range vs exact bounds",
        headers=["Sweep", "Setting", "MCDB10", "MCDB20", "Imp/Rewr"],
    )
    for percent in (1, 3, 5, 7, 9):
        ratios = _window_quality_row(rows, percent / 100.0, rows // 2, seed, spec)
        result.add("uncertainty", f"{percent}%", *ratios)
    for attribute_range in (rows // 8, rows // 4, rows // 2, rows, 2 * rows):
        ratios = _window_quality_row(rows, 0.05, attribute_range, seed, spec)
        result.add("range", attribute_range, *ratios)
    return result


# ---------------------------------------------------------------------------
# Figure 14 — sorting runtime scaling
# ---------------------------------------------------------------------------


def fig14_sort_scaling(
    *,
    small_sizes: Sequence[int] = (32, 64, 128, 256),
    large_sizes: Sequence[int] = (256, 512, 1024, 2048),
    seed: int = 0,
    rewrite_limit: int = 1024,
) -> ExperimentResult:
    """Figure 14: sorting runtime vs data size (small sweep incl. Symb / PT-k).

    ``Imp-Col`` reports the native operator on the columnar backend
    (:mod:`repro.columnar`, vectorized kernels over a pre-converted columnar
    relation); its bounds are identical to ``Imp``.  Without NumPy the
    column degrades to ``-`` instead of aborting the figure.
    """
    result = ExperimentResult(
        name="fig14",
        description="Sorting runtime (ms) vs data size; '-' marks methods infeasible at that size",
        headers=["Panel", "Size", "Det", "Imp", "Imp-Col", "Rewr", "MCDB10", "MCDB20", "Symb", "PT-k"],
    )
    order_by = ["a"]
    for panel, sizes, include_exact in (("a-small", small_sizes, True), ("b-large", large_sizes, False)):
        for size in sizes:
            config = SyntheticConfig(rows=size, uncertainty=0.05, attribute_range=max(4, size // 2), domain=10 * size, seed=seed)
            workload = generate_sort_table(config)
            audb = audb_from_workload(workload)
            _, det_ms = timed_ms(lambda: det_sort(workload, order_by))
            _, imp_ms = timed_ms(lambda: au_sort(audb, order_by, method="native"))
            imp_col_ms = _timed_columnar_ms(
                audb,
                lambda columnar: au_sort(columnar, order_by, method="native", backend="columnar"),
            )
            if size <= rewrite_limit:
                _, rewr_ms = timed_ms(lambda: au_sort(audb, order_by, method="rewrite"))
            else:
                rewr_ms = "-"
            _, mcdb10_ms = timed_ms(
                lambda: mcdb_sort_bounds(workload, order_by, key_attribute="rid", samples=10, seed=seed)
            )
            _, mcdb20_ms = timed_ms(
                lambda: mcdb_sort_bounds(workload, order_by, key_attribute="rid", samples=20, seed=seed)
            )
            symb_ms: object = "-"
            ptk_ms: object = "-"
            if include_exact:
                try:
                    _, symb_ms = timed_ms(
                        lambda: symb_sort_bounds(
                            workload, order_by, key_attribute="rid", world_limit=100_000
                        )
                    )
                except EnumerationLimitError:
                    symb_ms = "-"
                _, ptk_ms = timed_ms(
                    lambda: topk_probabilities_montecarlo(
                        workload, order_by, k=max(2, size // 4), key_attribute="rid", samples=100, seed=seed
                    )
                )
            result.add(panel, size, det_ms, imp_ms, imp_col_ms, rewr_ms, mcdb10_ms, mcdb20_ms, symb_ms, ptk_ms)
    return result


# ---------------------------------------------------------------------------
# Figure 15 — windowed aggregation runtime scaling
# ---------------------------------------------------------------------------


def fig15_window_scaling(
    *,
    sizes: Sequence[int] = (64, 128, 256, 512),
    seed: int = 0,
    rewrite_limit: int = 512,
) -> ExperimentResult:
    """Figure 15: windowed aggregation runtime (ms) vs data size.

    ``Imp-Col`` reports the native operator on the columnar backend
    (:mod:`repro.columnar.window`, vectorized frame-membership kernels over a
    pre-converted columnar relation); its bounds are identical to ``Imp``.
    Without NumPy the column degrades to ``-`` instead of aborting the figure.
    """
    spec = WindowSpec(function="sum", attribute="v", output="w_sum", order_by=("o",), frame=(-2, 0))
    result = ExperimentResult(
        name="fig15",
        description="Windowed aggregation runtime (ms) vs data size",
        headers=["Size", "Det", "Imp", "Imp-Col", "Rewr", "MCDB10", "MCDB20"],
    )
    for size in sizes:
        config = SyntheticConfig(rows=size, uncertainty=0.05, attribute_range=max(4, size // 2), domain=10 * size, seed=seed)
        workload = generate_window_table(config, partitions=1)
        audb = audb_from_workload(workload)
        _, det_ms = timed_ms(lambda: det_window(workload, spec))
        _, imp_ms = timed_ms(lambda: window_native(audb, spec))
        imp_col_ms = _timed_columnar_ms(
            audb, lambda columnar: window_native(columnar, spec, backend="columnar")
        )
        if size <= rewrite_limit:
            _, rewr_ms = timed_ms(lambda: window_rewrite(audb, spec))
        else:
            rewr_ms = "-"
        _, mcdb10_ms = timed_ms(
            lambda: mcdb_window_bounds(workload, spec, key_attribute="rid", samples=10, seed=seed)
        )
        _, mcdb20_ms = timed_ms(
            lambda: mcdb_window_bounds(workload, spec, key_attribute="rid", samples=20, seed=seed)
        )
        result.add(size, det_ms, imp_ms, imp_col_ms, rewr_ms, mcdb10_ms, mcdb20_ms)
    return result


# ---------------------------------------------------------------------------
# Figure 16 — windowed aggregation configurations
# ---------------------------------------------------------------------------


def fig16_window_configs(*, rows: int = 300, partitioned_rows: int = 128, seed: int = 0) -> ExperimentResult:
    """Figure 16: windowed aggregation runtimes for varying window specs.

    ``Imp-Col`` reports the columnar window sweep on the order-by-only panel;
    the partition-by panel runs the rewrite method (the native operator
    delegates uncertain partitions to it), where the columnar backend would
    transparently fall back to the same code — hence ``-``.
    """
    result = ExperimentResult(
        name="fig16",
        description="Windowed aggregation runtimes (ms) for order-by only (Imp) and order+partition-by (Rewr)",
        headers=["Panel", "Config", "Det", "Imp", "Imp-Col", "Rewr", "MCDB10", "MCDB20"],
    )
    order_only = [
        ("w=3,r=1k,u=5%", 3, 1000, 0.05),
        ("w=3,r=10k,u=5%", 3, 10000, 0.05),
        ("w=3,r=1k,u=20%", 3, 1000, 0.20),
        ("w=6,r=1k,u=5%", 6, 1000, 0.05),
    ]
    for label, window, attribute_range, uncertainty in order_only:
        spec = WindowSpec(
            function="sum", attribute="v", output="w_sum", order_by=("o",), frame=(-(window - 1), 0)
        )
        config = SyntheticConfig(rows=rows, uncertainty=uncertainty, attribute_range=attribute_range, seed=seed)
        workload = generate_window_table(config, partitions=1)
        audb = audb_from_workload(workload)
        _, det_ms = timed_ms(lambda: det_window(workload, spec))
        _, imp_ms = timed_ms(lambda: window_native(audb, spec))
        imp_col_ms = _timed_columnar_ms(
            audb, lambda columnar: window_native(columnar, spec, backend="columnar")
        )
        _, mcdb10_ms = timed_ms(
            lambda: mcdb_window_bounds(workload, spec, key_attribute="rid", samples=10, seed=seed)
        )
        _, mcdb20_ms = timed_ms(
            lambda: mcdb_window_bounds(workload, spec, key_attribute="rid", samples=20, seed=seed)
        )
        result.add("a-order-by", label, det_ms, imp_ms, imp_col_ms, "-", mcdb10_ms, mcdb20_ms)

    partitioned = [
        ("w=3,r=1k,u=5%", 3, 1000, 0.05),
        ("w=3,r=10k,u=5%", 3, 10000, 0.05),
        ("w=3,r=1k,u=20%", 3, 1000, 0.20),
    ]
    for label, window, attribute_range, uncertainty in partitioned:
        spec = WindowSpec(
            function="sum",
            attribute="v",
            output="w_sum",
            order_by=("o",),
            partition_by=("g",),
            frame=(-(window - 1), 0),
        )
        config = SyntheticConfig(
            rows=partitioned_rows, uncertainty=uncertainty, attribute_range=attribute_range, seed=seed
        )
        workload = generate_window_table(config, partitions=4)
        audb = audb_from_workload(workload)
        _, det_ms = timed_ms(lambda: det_window(workload, spec))
        _, rewr_ms = timed_ms(lambda: window_rewrite(audb, spec))
        _, mcdb10_ms = timed_ms(
            lambda: mcdb_window_bounds(workload, spec, key_attribute="rid", samples=10, seed=seed)
        )
        _, mcdb20_ms = timed_ms(
            lambda: mcdb_window_bounds(workload, spec, key_attribute="rid", samples=20, seed=seed)
        )
        result.add("b-partition-by", label, det_ms, "-", "-", rewr_ms, mcdb10_ms, mcdb20_ms)
    return result


# ---------------------------------------------------------------------------
# Figures 17-19 — real-world datasets
# ---------------------------------------------------------------------------


def _rank_methods(dataset: DatasetBundle, *, seed: int = 0) -> dict[str, float]:
    query = dataset.rank_query
    audb = audb_from_workload(dataset.rank_table)
    order_by = list(query.order_by)
    timings: dict[str, float] = {}
    _, timings["Det"] = timed_ms(
        lambda: det_topk(dataset.rank_table, order_by, query.k, descending=query.descending)
    )
    _, timings["Imp"] = timed_ms(
        lambda: au_topk(audb, order_by, query.k, method="native", descending=query.descending)
    )
    timings["Imp-Col"] = _timed_columnar_ms(
        audb,
        lambda columnar: au_topk(
            columnar,
            order_by,
            query.k,
            method="native",
            descending=query.descending,
            backend="columnar",
        ),
    )
    _, timings["Rewr"] = timed_ms(
        lambda: au_topk(audb, order_by, query.k, method="rewrite", descending=query.descending)
    )
    _, timings["MCDB20"] = timed_ms(
        lambda: mcdb_sort_bounds(
            dataset.rank_table,
            order_by,
            key_attribute=query.key_attribute,
            samples=20,
            seed=seed,
            descending=query.descending,
        )
    )
    return timings


def _window_methods(dataset: DatasetBundle, *, seed: int = 0) -> dict[str, float]:
    spec = dataset.window_query
    audb = audb_from_workload(dataset.window_table)
    timings: dict[str, float] = {}
    _, timings["Det"] = timed_ms(lambda: det_window(dataset.window_table, spec))
    _, timings["Imp"] = timed_ms(lambda: window_native(audb, spec))
    timings["Imp-Col"] = _timed_columnar_ms(
        audb, lambda columnar: window_native(columnar, spec, backend="columnar")
    )
    _, timings["Rewr"] = timed_ms(lambda: window_rewrite(audb, spec))
    _, timings["MCDB20"] = timed_ms(
        lambda: mcdb_window_bounds(
            dataset.window_table, spec, key_attribute=dataset.key_attribute, samples=20, seed=seed
        )
    )
    return timings


def fig17_realworld_performance(*, scale: float = 0.25, seed: int = 0) -> ExperimentResult:
    """Figure 17: runtimes of the real-world rank and window queries.

    ``Imp-Col`` reports the native operator on the columnar backend over a
    pre-converted columnar relation (bit-identical bounds); without NumPy the
    column degrades to ``-``.
    """
    result = ExperimentResult(
        name="fig17",
        description="Real-world query runtimes (ms) on simulated Iceberg / Crimes / Healthcare data",
        headers=["Dataset", "Query", "Det", "Imp", "Imp-Col", "Rewr", "MCDB20"],
    )
    for dataset in REAL_WORLD_DATASETS(scale=scale, seed=seed):
        rank = _rank_methods(dataset, seed=seed)
        result.add(
            dataset.name,
            "Rank",
            rank["Det"],
            rank["Imp"],
            rank["Imp-Col"],
            rank["Rewr"],
            rank["MCDB20"],
        )
        window = _window_methods(dataset, seed=seed)
        result.add(
            dataset.name,
            "Window",
            window["Det"],
            window["Imp"],
            window["Imp-Col"],
            window["Rewr"],
            window["MCDB20"],
        )
    return result


def fig18_realworld_sort_quality(*, scale: float = 0.05, seed: int = 0) -> ExperimentResult:
    """Figure 18: sort-position bound accuracy and recall on the real-world data."""
    result = ExperimentResult(
        name="fig18",
        description="Real-world sort-position bound quality (accuracy / recall)",
        headers=["Dataset", "Method", "Accuracy", "Recall"],
    )
    for dataset in REAL_WORLD_DATASETS(scale=scale, seed=seed):
        query = dataset.rank_query
        order_by = list(query.order_by)
        audb = audb_from_workload(dataset.rank_table)
        truth = symb_sort_bounds(
            dataset.rank_table,
            order_by,
            key_attribute=query.key_attribute,
            descending=query.descending,
        )
        au_bounds = audb_sort_bounds(
            audb,
            order_by,
            key_attribute=query.key_attribute,
            method="native",
            descending=query.descending,
        )
        mcdb = mcdb_sort_bounds(
            dataset.rank_table,
            order_by,
            key_attribute=query.key_attribute,
            samples=20,
            seed=seed,
            descending=query.descending,
        )
        au_quality = compare_bounds(au_bounds, truth)
        mcdb_quality = compare_bounds(mcdb, truth)
        result.add(dataset.name, "Imp/Rewr", au_quality.accuracy, au_quality.recall)
        result.add(dataset.name, "MCDB20", mcdb_quality.accuracy, mcdb_quality.recall)
        result.add(dataset.name, "PT-k/Symb", 1.0, 1.0)
    return result


def fig19_realworld_window_quality(*, scale: float = 0.05, seed: int = 0) -> ExperimentResult:
    """Figure 19: window-aggregate bound accuracy and recall on the real-world data."""
    result = ExperimentResult(
        name="fig19",
        description="Real-world window-aggregation bound quality (accuracy / recall)",
        headers=["Dataset", "Method", "Agg accuracy", "Agg recall"],
    )
    for dataset in REAL_WORLD_DATASETS(scale=scale, seed=seed):
        spec = dataset.window_query
        audb = audb_from_workload(dataset.window_table)
        truth = symb_window_bounds(
            dataset.window_table, spec, key_attribute=dataset.key_attribute
        )
        au_bounds = audb_window_bounds(
            audb, spec, key_attribute=dataset.key_attribute, method="native"
        )
        mcdb = mcdb_window_bounds(
            dataset.window_table, spec, key_attribute=dataset.key_attribute, samples=20, seed=seed
        )
        au_quality = compare_bounds(au_bounds, truth)
        mcdb_quality = compare_bounds(mcdb, truth)
        result.add(dataset.name, "Imp/Rewr", au_quality.accuracy, au_quality.recall)
        result.add(dataset.name, "MCDB20", mcdb_quality.accuracy, mcdb_quality.recall)
        result.add(dataset.name, "Symb", 1.0, 1.0)
    return result


# ---------------------------------------------------------------------------
# Plan workloads — RA⁺ plans on both backends, from the workload registry
# ---------------------------------------------------------------------------


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401 - the columnar backend needs it
    except ImportError:
        return False
    return True


def _enabled(contender: Contender) -> bool:
    """Whether ``REPRO_BACKEND`` and the environment let ``contender`` run."""
    if contender.columnar:
        return backend_enabled("columnar") and _numpy_available()
    return backend_enabled("python")


def _timed_runs(runners: dict[str, Callable[[], object]], warmed: set[str]) -> tuple[dict, dict]:
    """Time each runner once, after one untimed run of each not yet in ``warmed``.

    The untimed run keeps one-time import and kernel setup costs out of the
    first size's timings.
    """
    for name, run in runners.items():
        if name not in warmed:
            warmed.add(name)
            run()
    results: dict[str, object] = {}
    ms: dict[str, float] = {}
    for name, run in runners.items():
        results[name], ms[name] = timed_ms(run)
    return results, ms


def _check_agreement(workload: str, size: int, results: dict) -> None:
    """Raise :class:`~repro.errors.ReproError` unless all results equal the first."""
    diverging = divergent(results)
    if diverging:
        raise ReproError(
            f"{workload}: contender {diverging[0]!r} diverges from "
            f"{next(iter(results))!r} at size {size}"
        )


def _ratio(ms: dict[str, float], baseline: str, contender: str) -> object:
    if baseline not in ms or contender not in ms:
        return "-"
    return ms[baseline] / ms[contender] if ms[contender] else float("inf")


def workload_table(
    name: str,
    *,
    sizes: Sequence[int] | None = None,
    seed: int = 0,
    quadratic_ceiling: int = 1024,
) -> ExperimentResult:
    """Time every contender of the registry workload ``name`` at each size.

    One column per timed contender (:data:`repro.workloads.registry.WORKLOADS`),
    then the workload's ratio columns.  A contender prints ``-`` where
    ``REPRO_BACKEND`` or a missing NumPy rules it out and, if quadratic,
    above ``quadratic_ceiling``.  Results must agree at every size before its
    timings are reported: a divergence raises
    :class:`~repro.errors.ReproError` naming the workload, the contender and
    the size.
    """
    workload = WORKLOADS[name]
    timed = [c for c in workload.contenders if c.timed]
    result = ExperimentResult(
        name=name,
        description=workload.description,
        headers=["Size", *(c.label for c in timed), *(header for header, _, _ in workload.ratios)],
    )
    enabled = [c for c in timed if _enabled(c)]
    warmed: set[str] = set()
    for size in workload.harness_sizes if sizes is None else sizes:
        args = workload.inputs(size, seed=seed)
        running = [c for c in enabled if not (c.quadratic and size > quadratic_ceiling)]
        columnar_args = (
            columnar_inputs(args) if any(not c.row_inputs for c in running) else args
        )
        results, ms = _timed_runs(
            {c.name: partial(c, args, columnar_args) for c in running}, warmed
        )
        _check_agreement(name, size, results)
        result.add(
            size,
            *(ms.get(c.name, "-") for c in timed),
            *(_ratio(ms, baseline, contender) for _, baseline, contender in workload.ratios),
        )
    return result


def pipeline_scaling(*, sizes: Sequence[int] | None = None, seed: int = 0) -> ExperimentResult:
    """Multi-operator pipeline (select -> join -> project -> window) per backend.

    ``Imp`` materialises a row-major relation between every stage;
    ``Imp-Col`` runs the identical plan as one
    :class:`~repro.columnar.plan.ColumnarPlan` chain.
    """
    return workload_table("pipeline", sizes=sizes, seed=seed)


def groupby_pipeline_scaling(
    *, sizes: Sequence[int] | None = None, seed: int = 0
) -> ExperimentResult:
    """Grouped-aggregation pipeline (select -> join -> groupby -> window) per backend.

    The columnar chain keeps the grouped-aggregation stage columnar between
    the join and the terminal window (no row-major conversion mid-plan).
    """
    return workload_table("groupby", sizes=sizes, seed=seed)


def multiwindow_scaling(*, sizes: Sequence[int] | None = None, seed: int = 0) -> ExperimentResult:
    """Multi-window plan (select -> join -> window -> select -> window) per path.

    The composed RA⁺ setting: the plan *continues past* its first window
    stage.  ``Imp`` runs the tuple-at-a-time operators, ``Imp-Col-RT`` the
    columnar kernels stage by stage with a row-major round trip per stage,
    ``Imp-Col`` one ``ColumnarPlan`` chain that converts only at the final
    ``.to_rows()``.  ``RT-speedup`` is the no-round-trip win
    (``Imp-Col-RT`` / ``Imp-Col``).
    """
    return workload_table("multiwindow", sizes=sizes, seed=seed)


def equijoin_scaling(
    *, sizes: Sequence[int] | None = None, quadratic_ceiling: int = 1024, seed: int = 0
) -> ExperimentResult:
    """Equi-join kernels: Python loop vs columnar pair grid vs searchsorted.

    The quadratic contenders (the tuple-at-a-time loop and the
    ``np.repeat`` × ``np.tile`` grid) print ``-`` above
    ``quadratic_ceiling`` — which is the point: the sort/searchsorted path
    reaches sizes the pair grid cannot.
    """
    return workload_table("equijoin", sizes=sizes, seed=seed, quadratic_ceiling=quadratic_ceiling)


def rangejoin_scaling(
    *, sizes: Sequence[int] | None = None, quadratic_ceiling: int = 1024, seed: int = 0
) -> ExperimentResult:
    """Range×range join kernels: Python loop vs columnar grid vs overlap sweep.

    Both sides carry uncertain interval keys, so the searchsorted kernel's
    certain-side requirement never holds.  Above ``quadratic_ceiling`` the
    quadratic contenders print ``-`` while the sweep, which enumerates only
    the possibly-overlapping pairs, keeps scaling.
    """
    return workload_table("rangejoin", sizes=sizes, seed=seed, quadratic_ceiling=quadratic_ceiling)


def factjoin_scaling(
    *, sizes: Sequence[int] | None = None, quadratic_ceiling: int = 1024, seed: int = 0
) -> ExperimentResult:
    """The factorised select → join → select → window chain vs the expanded paths.

    The factorised representation (matched-pair index vectors, no payload
    gather before the boundary) reaches N=4096, where the Python backend and
    the eager pair grid, capped at ``quadratic_ceiling``, print ``-``.
    """
    return workload_table("factjoin", sizes=sizes, seed=seed, quadratic_ceiling=quadratic_ceiling)


def serve_scaling(
    *,
    sizes: Sequence[int] = (256, 512, 1024),
    seed: int = 0,
    queries: int = 120,
    deltas: int = 8,
) -> ExperimentResult:
    """Cached-plan serving under a query/delta mix: incremental vs recompute.

    Drives the same synthetic schedule (repeated parameterized top-k and
    partitioned-window queries, interleaved append/retract bursts — see
    :mod:`repro.workloads.serve`) through three serving configurations:
    cached views patched in place per delta (``Inc``), the plan re-run from
    the accumulated base on every query (``Direct`` — recompute-per-query,
    the query-cost contender), and cached views rebuilt per delta
    (``delta speedup``'s denominator — the delta-cost contender).  Reports
    query throughput (QPS) and tail latency (p99 ms) for the first two, plus
    the patched-vs-rebuilt delta-application speedup; all three modes'
    answers are asserted bit-identical at every size.  Every serving mode is
    columnar, so without NumPy every column prints ``-``.
    """
    result = ExperimentResult(
        name="serve",
        description=(
            "Cached-plan serving (QPS / p99 ms): incremental views (Inc) vs "
            "recompute-per-query (Direct), plus patched-vs-rebuilt delta speedup"
        ),
        headers=[
            "Size", "Inc QPS", "Direct QPS", "Inc p99", "Direct p99", "delta speedup",
        ],
    )
    if not (backend_enabled("columnar") and _numpy_available()):
        for size in sizes:
            result.add(size, "-", "-", "-", "-", "-")
        return result
    from repro.workloads.serve import (
        latency_summary, run_serve_mix, serve_inputs, serve_schedule,
    )

    for size in sizes:
        base = serve_inputs(size, seed=seed)
        schedule = serve_schedule(base, queries=queries, deltas=deltas, seed=seed)
        inc_rows, inc_q, inc_d = run_serve_mix(base, schedule, mode="incremental")
        direct_rows, direct_q, _ = run_serve_mix(base, schedule, mode="direct")
        rebuilt_rows, _, rebuilt_d = run_serve_mix(
            base, schedule, mode="cached-recompute"
        )
        for label, other in (("direct", direct_rows), ("rebuilt", rebuilt_rows)):
            for a, b in zip(inc_rows, other):
                if not same_rows(a, b):
                    raise ReproError(
                        f"serve: incremental serving diverges from the {label} "
                        f"mode at size {size}"
                    )
        inc, direct = latency_summary(inc_q), latency_summary(direct_q)
        delta_speedup: object = "-"
        if inc_d and sum(inc_d):
            delta_speedup = sum(rebuilt_d) / sum(inc_d)
        result.add(
            size, inc["qps"], direct["qps"], inc["p99_ms"], direct["p99_ms"],
            delta_speedup,
        )
    return result


def sql_scaling(
    *,
    sizes: Sequence[int] = (256, 1024, 4096),
    quadratic_ceiling: int = 1024,
    seed: int = 0,
) -> ExperimentResult:
    """The SQL frontend's optimizer bracket: optimized vs literal vs python.

    One query (certain-key equi-join, one-sided WHERE conjuncts, untouched
    payload columns, GROUP BY, top-k — see :mod:`repro.workloads.sql`) runs
    three ways: through the full rule pipeline (pushdown + pruning + kernel
    preference), as the literal grid-joining unpruned lowering, and on the
    row-at-a-time python backend.  The quadratic contenders stop at
    ``quadratic_ceiling`` (their columns degrade to ``-``); at every size
    that runs more than one mode the results are checked bit-identical at
    ``.to_rows()`` before any timing is reported, and the ``Kernels`` column
    records what the timed optimized run's joins resolved to (never the grid
    on this workload's certain keys).
    """
    from repro.workloads.sql import (
        run_sql_optimized,
        run_sql_python,
        run_sql_unoptimized,
        sql_catalog,
    )

    result = ExperimentResult(
        name="sql",
        description=(
            "SQL query runtime (ms): python / unoptimized lowering / "
            "optimized plan, plus the optimized joins' kernels"
        ),
        headers=["Size", "Imp", "Unopt", "Opt", "Kernels"],
    )
    python = backend_enabled("python")
    columnar = backend_enabled("columnar") and _numpy_available()
    warmed: set[str] = set()
    for size in sizes:
        catalog = sql_catalog(size, seed=seed)
        runners = {}
        if python and size <= quadratic_ceiling:
            runners["python"] = partial(run_sql_python, catalog)
        if columnar and size <= quadratic_ceiling:
            runners["unoptimized"] = partial(run_sql_unoptimized, catalog)
        if columnar:
            runners["optimized"] = partial(run_sql_optimized, catalog)
        results, ms = _timed_runs(runners, warmed)
        kernels: object = "-"
        if "optimized" in results:
            results["optimized"], join_kernels = results["optimized"]
            kernels = "+".join(join_kernels)
        _check_agreement("sql", size, results)
        result.add(
            size,
            ms.get("python", "-"),
            ms.get("unoptimized", "-"),
            ms.get("optimized", "-"),
            kernels,
        )
    return result


#: Registry used by the CLI: experiment id -> driver.
ALL_EXPERIMENTS = {
    "heap_table": heap_table,
    "fig11": fig11_sort_configs,
    "fig12": fig12_sort_quality,
    "fig13": fig13_window_quality,
    "fig14": fig14_sort_scaling,
    "fig15": fig15_window_scaling,
    "fig16": fig16_window_configs,
    "fig17": fig17_realworld_performance,
    "fig18": fig18_realworld_sort_quality,
    "fig19": fig19_realworld_window_quality,
    "pipeline": pipeline_scaling,
    "groupby": groupby_pipeline_scaling,
    "multiwindow": multiwindow_scaling,
    "equijoin": equijoin_scaling,
    "rangejoin": rangejoin_scaling,
    "factjoin": factjoin_scaling,
    "serve": serve_scaling,
    "sql": sql_scaling,
}
