"""Edge-case differentials: whole columnar plans next to the Python operators.

Each property runs a :class:`~repro.columnar.plan.ColumnarPlan` chain and the
same chain through the tuple-at-a-time reference operators side by side, and
requires bit-identical results (same hypercubes, same ``N³`` triples, same
first-occurrence row order) on the inputs vectorized stages typically fumble:

* **empty inputs** — ``n = 0`` relations through every stage class, and
  relations whose rows a certainly-false selection removes mid-plan (every
  later stage sees a zero-row intermediate);
* **uncertain partition / group keys** — non-point ``PARTITION BY`` ranges,
  where the window stage falls back to the Python sweep, and non-point
  ``GROUP BY`` ranges, which the columnar group-by resolves through its
  possible-membership pairs.

(The module name is kept from when these properties also compared the
removed sharded executor against the serial path.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

pytest.importorskip("numpy", reason="the columnar backend requires NumPy")

from repro.columnar.plan import ColumnarPlan
from repro.core.expressions import attr, const
from repro.core.operators import groupby_aggregate, join, select
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.core.schema import Schema
from repro.ranking.native import sort_native
from repro.window.native import window_native
from repro.window.spec import WindowSpec

from tests.property.strategies import au_relations

SETTINGS = settings(max_examples=25, deadline=None)

ALL_AGGREGATES = [
    ("count", "*", "n"),
    ("sum", "v", "s"),
    ("min", "v", "lo"),
    ("max", "v", "hi"),
    ("avg", "v", "m"),
]


def assert_bit_identical(expected: AURelation, actual: AURelation) -> None:
    """Same schema, same hypercubes and triples, same insertion order."""
    assert expected.schema == actual.schema
    assert list(expected._rows.items()) == list(actual._rows.items())


def _window_spec(frame, partition_by=()) -> WindowSpec:
    return WindowSpec(
        function="sum",
        attribute="v",
        output="w",
        order_by=("o",),
        partition_by=partition_by,
        frame=frame,
    )


# -- edge cases: empty inputs and all-rows-filtered inputs ------------------


def _empty_relation(attributes=("o", "v")) -> AURelation:
    return AURelation(Schema(attributes))


@pytest.mark.parametrize("k", [2, 4])
def test_empty_inputs_agree_across_all_stages(k):
    """n = 0 through every stage class (top-k bound and frame width ``k``)."""
    empty = _empty_relation()
    other = _empty_relation(("o", "x"))
    spec = _window_spec((-k, 0))
    plan = ColumnarPlan(empty)
    for python_result, plan_result in (
        (sort_native(empty, ["o"]), plan.sort(["o"]).to_rows()),
        (
            select(sort_native(empty, ["o"], k=k), attr("pos").lt(k)),
            plan.topk(["o"], k).to_rows(),
        ),
        (window_native(empty, spec), plan.window(spec).to_rows()),
        (join(empty, other, on=["o"]), plan.join(ColumnarPlan(other), on=["o"]).to_rows()),
        (
            groupby_aggregate(empty, ["o"], ALL_AGGREGATES),
            plan.groupby_aggregate(["o"], ALL_AGGREGATES).to_rows(),
        ),
        (empty, plan.to_rows()),
    ):
        assert len(plan_result) == 0
        assert_bit_identical(python_result, plan_result)


@SETTINGS
@given(relation=au_relations(attributes=("o", "v"), max_tuples=6))
def test_all_rows_filtered_inputs_agree(relation):
    """A certainly-false selection empties the input mid-plan; the stages
    downstream must handle the zero-row intermediate like the Python ones."""
    never = attr("v").ge(const(100))  # values are drawn from [-6, 6]
    spec = _window_spec((-1, 0))
    aggregates = [("count", "*", "n")]

    python_result = select(relation, never)
    python_result = window_native(python_result, spec)
    python_result = sort_native(python_result, ["w"])
    python_result = groupby_aggregate(python_result, ["o"], aggregates)
    plan_result = (
        ColumnarPlan(relation)
        .select(never)
        .window(spec)
        .sort(["w"])
        .groupby_aggregate(["o"], aggregates)
        .to_rows()
    )
    assert len(plan_result) == 0
    assert_bit_identical(python_result, plan_result)


# -- uncertain keys, pinned to the Python backend ---------------------------


def _uncertain_group_relation() -> AURelation:
    """A relation whose grouping attribute ``g`` has a non-point range."""
    return AURelation.from_rows(
        ["g", "o", "v"],
        [
            ((RangeValue(0, 1, 2), 1, 10), (1, 1, 1)),  # uncertain group key
            ((1, 2, 20), (1, 1, 1)),
            ((1, 3, 30), (0, 1, 1)),
            ((2, 4, 40), (1, 1, 2)),
        ],
    )


def test_uncertain_partition_by_falls_back_and_matches_python_backend():
    """Non-point PARTITION BY ranges leave the vectorized sweep; the window
    stage's fallback must be bit-identical to the Python backend."""
    relation = _uncertain_group_relation()
    spec = _window_spec((-1, 0), partition_by=("g",))
    assert_bit_identical(
        window_native(relation, spec), ColumnarPlan(relation).window(spec).to_rows()
    )


def test_uncertain_group_by_falls_back_and_matches_python_backend():
    relation = _uncertain_group_relation()
    python = groupby_aggregate(relation, ["g"], ALL_AGGREGATES, backend="python")
    plan_result = ColumnarPlan(relation).groupby_aggregate(["g"], ALL_AGGREGATES).to_rows()
    assert_bit_identical(python, plan_result)
