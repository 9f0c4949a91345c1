"""Multi-operator ``RA⁺`` + window pipeline workloads (backend benchmarks).

The figure benchmarks time single operators; these workloads time whole
query plans — the compositions the AU-DB closure theorems are about:

* the projection pipeline: ``select(v >= t, fact) ⋈_g dim  →  π(o, v)  →
  sum(v) OVER (ORDER BY o ROWS 2 PRECEDING)``
  (:func:`run_pipeline_python` / :func:`run_pipeline_columnar`),
* the groupby pipeline: ``select(v >= t, fact) ⋈_g dim  →  γ_g(sum, count,
  max)  →  sum(s) OVER (ORDER BY g ROWS 2 PRECEDING)``
  (:func:`run_groupby_pipeline_python` / :func:`run_groupby_pipeline_columnar`
  — the grouped-aggregation stage stays columnar mid-plan),
* the multi-window pipeline: ``select(v >= t, fact) ⋈_g dim  →  sum(v) OVER
  (ORDER BY o ROWS 2 PRECEDING)  →  select(w1 >= t₂)  →  max(w1) OVER
  (ORDER BY o ROWS 3 PRECEDING)`` — the paper's composed RA⁺ setting, where
  a plan *continues past* a window stage
  (:func:`run_multiwindow_python` / :func:`run_multiwindow_columnar` /
  :func:`run_multiwindow_roundtrip_columnar` — the chained plan stays
  columnar through both windows, the round-trip runner re-materialises
  row-major relations after every stage, isolating the conversion cost the
  columnar-native window output removes), and
* two large-N joins on ``k`` (:func:`run_join_python` /
  :func:`run_join_columnar`): an equi-join with certain integer keys and
  ~50% overlap (:func:`equijoin_inputs`; ``method="grid" | "searchsorted"``),
  and a range×range join whose keys are uncertain intervals on *both*
  sides — grid-only before the interval-overlap sweep kernel
  (:func:`rangejoin_inputs`; ``method="grid" | "sweep"``).

Each python runner materialises a row-major
:class:`~repro.core.relation.AURelation` between stages; the columnar
runners chain a :class:`~repro.columnar.plan.ColumnarPlan` that stays in the
columnar layout until the explicit ``.to_rows()`` boundary.  The results are
bit-identical; :mod:`repro.workloads.registry` declares each workload's
contenders, which the harness, the smoke run and the benchmarks check
against each other and time.
"""

from __future__ import annotations

import random

from repro.core.expressions import attr, const
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.window.spec import WindowSpec
from repro.workloads.synthetic import SyntheticConfig, as_audb, generate_window_table

__all__ = [
    "PIPELINE_WINDOW",
    "GROUPBY_AGGREGATES",
    "GROUPBY_WINDOW",
    "MULTIWINDOW_FIRST",
    "MULTIWINDOW_SECOND",
    "pipeline_inputs",
    "run_pipeline_python",
    "run_pipeline_columnar",
    "run_groupby_pipeline_python",
    "run_groupby_pipeline_columnar",
    "multiwindow_inputs",
    "multiwindow_second_threshold",
    "run_multiwindow_python",
    "run_multiwindow_columnar",
    "run_multiwindow_roundtrip_columnar",
    "equijoin_inputs",
    "rangejoin_inputs",
    "run_join_python",
    "run_join_columnar",
    "FACTJOIN_WINDOW",
    "factjoin_inputs",
    "run_factjoin_python",
    "run_factjoin_columnar",
]

#: Terminal stage of the pipeline: a trailing sum over the order attribute.
PIPELINE_WINDOW = WindowSpec(
    function="sum", attribute="v", output="w_sum", order_by=("o",), frame=(-2, 0)
)

#: Number of dimension-table categories (fact rows spread across them).
_CATEGORIES = 8


def pipeline_inputs(
    rows: int, *, seed: int = 0, uncertainty: float = 0.05
) -> tuple[AURelation, AURelation, int]:
    """``(fact, dim, threshold)`` inputs of the pipeline at a given size.

    ``fact`` is the Fig. 15 window workload (schema ``(rid, o, g, v)``,
    uncertain rows carry ranges on ``o``, ``g`` and ``v``); ``dim`` covers
    five of the eight ``g`` categories — one with an uncertain key, so the
    join exercises possible matches — and the selection threshold keeps
    roughly half of the fact rows.
    """
    config = SyntheticConfig(
        rows=rows,
        uncertainty=uncertainty,
        attribute_range=max(4, rows // 2),
        domain=10 * rows,
        seed=seed,
    )
    fact = as_audb(generate_window_table(config, partitions=_CATEGORIES))
    rng = random.Random(seed + 7)
    dim = AURelation.from_rows(["g", "w"], [])
    for g in range(5):
        key = RangeValue(g, g, g + 1) if g == 0 else g
        dim.add_values([key, rng.randint(0, 100)], 1)
    return fact, dim, config.domain // 2


def run_pipeline_python(fact: AURelation, dim: AURelation, threshold: int) -> AURelation:
    """The plan on the tuple-at-a-time backend (row-major between stages)."""
    from repro.core.operators import join, project, select
    from repro.window.native import window_native

    filtered = select(fact, attr("v").ge(const(threshold)))
    joined = join(filtered, dim, on=["g"])
    projected = project(joined, ["o", "v"])
    return window_native(projected, PIPELINE_WINDOW)


def run_pipeline_columnar(fact, dim, threshold: int) -> AURelation:
    """The identical plan as a columnar chain (row-major only at the boundary).

    Accepts either relation layout for both inputs (benchmarks pre-convert).
    """
    from repro.columnar.plan import ColumnarPlan

    return (
        ColumnarPlan(fact)
        .select(attr("v").ge(const(threshold)))
        .join(ColumnarPlan(dim), on=["g"])
        .project(["o", "v"])
        .window(PIPELINE_WINDOW)
        .to_rows()
    )


#: Grouped-aggregation stage of the groupby pipeline (per dimension category).
GROUPBY_AGGREGATES = (("sum", "v", "s"), ("count", "*", "n"), ("max", "v", "peak"))

#: Terminal window over the aggregated groups: rolling sum of the group sums.
GROUPBY_WINDOW = WindowSpec(
    function="sum", attribute="s", output="rolling", order_by=("g",), frame=(-2, 0)
)


def run_groupby_pipeline_python(fact: AURelation, dim: AURelation, threshold: int) -> AURelation:
    """``select → join → groupby → window`` on the tuple-at-a-time backend."""
    from repro.core.operators import groupby_aggregate, join, select
    from repro.window.native import window_native

    filtered = select(fact, attr("v").ge(const(threshold)))
    joined = join(filtered, dim, on=["g"])
    grouped = groupby_aggregate(joined, ["g"], GROUPBY_AGGREGATES)
    return window_native(grouped, GROUPBY_WINDOW)


def run_groupby_pipeline_columnar(fact, dim, threshold: int) -> AURelation:
    """The identical plan as a columnar chain — the groupby stage stays columnar.

    Accepts either relation layout for both inputs (benchmarks pre-convert).
    """
    from repro.columnar.plan import ColumnarPlan

    return (
        ColumnarPlan(fact)
        .select(attr("v").ge(const(threshold)))
        .join(ColumnarPlan(dim), on=["g"])
        .groupby_aggregate(["g"], GROUPBY_AGGREGATES)
        .window(GROUPBY_WINDOW)
        .to_rows()
    )


#: First window of the multi-window pipeline: a trailing sum over ``o``.
MULTIWINDOW_FIRST = WindowSpec(
    function="sum", attribute="v", output="w1", order_by=("o",), frame=(-2, 0)
)


def multiwindow_inputs(
    rows: int, *, seed: int = 0, uncertainty: float = 0.05
) -> tuple[AURelation, AURelation, int]:
    """``(fact, dim, threshold)`` inputs of the multi-window pipeline.

    Same fact / dim tables as :func:`pipeline_inputs`; the selection
    threshold keeps roughly the top quarter of the fact rows — the composed
    plan models a *selective* spike report (filter hard, window, filter on
    the aggregate, window again), so the two window stages run on the
    filtered core rather than half the table.
    """
    fact, dim, _ = pipeline_inputs(rows, seed=seed, uncertainty=uncertainty)
    domain = 10 * rows
    return fact, dim, domain - domain // 4

#: Second window: a trailing max *over the first window's aggregate*.
MULTIWINDOW_SECOND = WindowSpec(
    function="max", attribute="w1", output="w2", order_by=("o",), frame=(-3, 0)
)


def multiwindow_second_threshold(threshold: int) -> int:
    """Mid-plan selection threshold on the first window's rolling sum.

    The first window sums up to three ``v`` values that each passed
    ``v >= threshold``; requiring ``w1 >= 2 * threshold`` keeps roughly the
    windows that certainly saw more than one surviving row, so the second
    window still has work at every size.
    """
    return 2 * threshold


def run_multiwindow_python(fact: AURelation, dim: AURelation, threshold: int) -> AURelation:
    """``select → join → window → select → window`` on the tuple-at-a-time backend."""
    from repro.core.operators import join, select
    from repro.window.native import window_native

    filtered = select(fact, attr("v").ge(const(threshold)))
    joined = join(filtered, dim, on=["g"])
    first = window_native(joined, MULTIWINDOW_FIRST)
    spiky = select(first, attr("w1").ge(const(multiwindow_second_threshold(threshold))))
    return window_native(spiky, MULTIWINDOW_SECOND)


def run_multiwindow_columnar(fact, dim, threshold: int) -> AURelation:
    """The identical plan as one columnar chain — *both* windows stay columnar.

    This is the no-round-trip path the columnar-native window stages enable:
    the plan continues past the first window without re-converting.  Accepts
    either relation layout for both inputs (benchmarks pre-convert).
    """
    from repro.columnar.plan import ColumnarPlan

    return (
        ColumnarPlan(fact)
        .select(attr("v").ge(const(threshold)))
        .join(ColumnarPlan(dim), on=["g"])
        .window(MULTIWINDOW_FIRST)
        .select(attr("w1").ge(const(multiwindow_second_threshold(threshold))))
        .window(MULTIWINDOW_SECOND)
        .to_rows()
    )


def run_multiwindow_roundtrip_columnar(fact, dim, threshold: int) -> AURelation:
    """The same columnar kernels, but materialising rows after *every* stage.

    The pre-refactor execution model: each ``backend="columnar"`` call
    converts its input to columnar and its result back to row-major, so the
    plan pays a full round trip per stage.  Benchmarked against
    :func:`run_multiwindow_columnar` to isolate the conversion cost the
    chained plan removes (the ``multiwindow`` harness id).
    """
    from repro.core.operators import join, select
    from repro.window.native import window_native

    filtered = select(fact, attr("v").ge(const(threshold)), backend="columnar")
    joined = join(filtered, dim, on=["g"], backend="columnar")
    first = window_native(joined, MULTIWINDOW_FIRST, backend="columnar")
    spiky = select(
        first,
        attr("w1").ge(const(multiwindow_second_threshold(threshold))),
        backend="columnar",
    )
    return window_native(spiky, MULTIWINDOW_SECOND, backend="columnar")


def equijoin_inputs(rows: int, *, seed: int = 0) -> tuple[AURelation, AURelation]:
    """Two ``rows``-sized relations with certain integer keys, ~50% overlap.

    Left keys cover ``[0, rows)``, right keys ``[rows // 2, rows + rows // 2)``
    (both shuffled), so the equi-join matches about half of each side 1:1 —
    the memory-safe searchsorted path touches ``O(rows)`` pairs where the
    grid kernel expands ``rows²``.  Payload attributes carry uncertain ranges
    so the joined annotations stay non-trivial.
    """
    rng = random.Random(seed)
    left_keys = list(range(rows))
    right_keys = list(range(rows // 2, rows + rows // 2))
    rng.shuffle(left_keys)
    rng.shuffle(right_keys)
    left = AURelation.from_rows(["k", "a"], [])
    right = AURelation.from_rows(["k", "b"], [])
    for key in left_keys:
        value = rng.randint(0, 1000)
        payload = RangeValue(value, value, value + rng.randint(0, 5))
        left.add_values([key, payload], (1, 1, 1) if rng.random() < 0.9 else (0, 1, 2))
    for key in right_keys:
        right.add_values([key, rng.randint(0, 1000)], 1)
    return left, right


def rangejoin_inputs(rows: int, *, seed: int = 0) -> tuple[AURelation, AURelation]:
    """Two ``rows``-sized relations whose join keys are uncertain on *both* sides.

    Left key centres cover ``[0, rows)``, right centres ``[rows // 2,
    rows + rows // 2)`` (both shuffled), and every key is a narrow
    ``[v, v + width]`` range with ``width ≤ 3`` — so the equi-join's possible
    matches are the interval overlaps, ``O(rows)`` pairs in total, while
    neither side offers the certain column the searchsorted kernel needs.
    This is the workload the range×range sweep exists for: before it, the
    only sound kernel was the ``O(rows²)`` grid.  ~10% of left rows carry
    bag multiplicities ``(0, 1, 2)`` so annotations stay non-trivial.
    """
    rng = random.Random(seed)
    left_keys = list(range(rows))
    right_keys = list(range(rows // 2, rows + rows // 2))
    rng.shuffle(left_keys)
    rng.shuffle(right_keys)
    left = AURelation.from_rows(["k", "a"], [])
    right = AURelation.from_rows(["k", "b"], [])
    for base in left_keys:
        width = rng.randint(0, 3)
        key = RangeValue(base, base + rng.randint(0, width), base + width)
        mult = (1, 1, 1) if rng.random() < 0.9 else (0, 1, 2)
        left.add_values([key, rng.randint(0, 1000)], mult)
    for base in right_keys:
        width = rng.randint(0, 3)
        key = RangeValue(base, base + rng.randint(0, width), base + width)
        right.add_values([key, rng.randint(0, 1000)], 1)
    return left, right


def run_join_python(left: AURelation, right: AURelation) -> AURelation:
    """The join on ``k`` on the tuple-at-a-time backend."""
    from repro.core.operators import join

    return join(left, right, on=["k"])


def run_join_columnar(left, right, *, method: str = "auto") -> AURelation:
    """The join on ``k`` via the selected columnar pair-enumeration kernel.

    ``method="auto"`` enumerates only match candidates — searchsorted for
    certain keys, the interval-overlap sweep when both sides carry ranges;
    ``method="grid"`` forces the quadratic contender for the differential
    cross-check.
    """
    from repro.columnar import operators as col_ops
    from repro.columnar.relation import as_columnar

    return col_ops.join(
        as_columnar(left), as_columnar(right), on=["k"], method=method
    ).to_relation()


#: Terminal stage of the factorised-join chain: a trailing sum of the fact
#: payload over the uncertain order attribute.
FACTJOIN_WINDOW = WindowSpec(
    function="sum", attribute="v", output="w_sum", order_by=("o",), frame=(-2, 0)
)


def factjoin_inputs(
    rows: int, *, seed: int = 0
) -> tuple[AURelation, AURelation, int, int]:
    """``(left, right, v_threshold, w_threshold)`` for the ``factjoin`` chain.

    ``left`` has schema ``(k, o, v)``: certain shuffled keys over
    ``[0, rows)``, an order attribute that is an uncertain integer range on
    ~20% of the rows, an integer payload carrying ranges on ~30% (integers,
    so the terminal window sum stays on the vectorized sweep), and bag
    multiplicities ``(0, 1, 2)`` on ~15%.  ``right`` has schema ``(k, w)``:
    certain shuffled keys over ``[rows // 2, rows + rows // 2)`` (~50%
    overlap) and certain integer weights.  The thresholds keep roughly half
    of each side's rows through the two selections, so the chain
    select → join → select → window exercises every factorised stage with a
    non-trivial surviving pair set.
    """
    rng = random.Random(seed)
    left_keys = list(range(rows))
    right_keys = list(range(rows // 2, rows + rows // 2))
    rng.shuffle(left_keys)
    rng.shuffle(right_keys)
    left = AURelation.from_rows(["k", "o", "v"], [])
    for key in left_keys:
        order = rng.randint(0, 50)
        if rng.random() < 0.2:
            order = RangeValue(order, order, order + rng.randint(1, 5))
        value = rng.randint(0, 100)
        if rng.random() < 0.3:
            value = RangeValue(value, value, value + rng.randint(1, 10))
        mult = (0, 1, 2) if rng.random() < 0.15 else 1
        left.add_values([key, order, value], mult)
    right = AURelation.from_rows(["k", "w"], [])
    for key in right_keys:
        right.add_values([key, rng.randint(0, 100)], 1)
    return left, right, 50, 60


def run_factjoin_python(
    left: AURelation, right: AURelation, v_threshold: int, w_threshold: int
) -> AURelation:
    """The select → join → select → window chain on the Python backend."""
    from repro.core.operators import join, select
    from repro.window.native import window_native

    filtered = select(left, attr("v").ge(const(v_threshold)))
    joined = join(filtered, right, on=["k"])
    narrowed = select(joined, attr("w").lt(const(w_threshold)))
    return window_native(narrowed, FACTJOIN_WINDOW)


def run_factjoin_columnar(
    left,
    right,
    v_threshold: int,
    w_threshold: int,
    *,
    method: str = "auto",
) -> AURelation:
    """The identical chain as a columnar plan (factorised between stages).

    With ``method="auto"`` the join stage keeps the result factorised —
    matched-pair index vectors, no payload gather — and the downstream
    select / window stages push down into it; only ``.to_rows()`` expands.
    ``method="grid"`` forces the eager ``O(|L|·|R|)`` pair-grid contender.
    """
    from repro.columnar.plan import ColumnarPlan

    return (
        ColumnarPlan(left)
        .select(attr("v").ge(const(v_threshold)))
        .join(ColumnarPlan(right), on=["k"], method=method)
        .select(attr("w").lt(const(w_threshold)))
        .window(FACTJOIN_WINDOW)
        .to_rows()
    )
