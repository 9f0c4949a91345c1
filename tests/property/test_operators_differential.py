"""Differential properties: Python vs columnar ``RA⁺`` operators, plus a det oracle.

Two independent checks over randomized AU-relations (including object-dtype
columns, bag multiplicities with ``ub > 1``, and empty results):

* **backend agreement** — every operator of :mod:`repro.core.operators` must
  produce bit-identical relations on ``backend="python"`` and
  ``backend="columnar"`` (same hypercubes, same ``N³`` annotations), which
  pins the vectorized expression evaluator, the hash-grouped duplicate
  merging, and the bulk product expansion of :mod:`repro.columnar.operators`
  against the tuple-at-a-time reference; and
* **det-world soundness** — the selected-guess world of the inputs is a
  deterministic world bounded by them, so by bound preservation (Theorems of
  [23, 24]) the AU output must bound the deterministic operator applied to
  that world.  The bounding oracle is the exact tuple-matching check of
  :mod:`repro.core.bounding` — independent of both uncertain backends.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bounding import bounds_world
from repro.core.expressions import IfThenElse, attr, const
from repro.core.operators import (
    cross,
    distinct,
    extend,
    groupby_aggregate,
    join,
    project,
    select,
    union,
)
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.core.schema import Schema
from repro.relational import operators as det_ops
from repro.relational.relation import Relation

from tests.property.strategies import (
    au_relations,
    multiplicities,
    object_au_relations,
    range_values,
)

pytest.importorskip("numpy", reason="the columnar backend requires NumPy")

SETTINGS = settings(max_examples=80, deadline=None)

#: One of each supported aggregate, all at once (over attribute ``v``).
ALL_AGGREGATES = [
    ("count", "*", "n"),
    ("sum", "v", "s"),
    ("min", "v", "lo"),
    ("max", "v", "hi"),
    ("avg", "v", "m"),
]


def assert_same_relation(python_result: AURelation, columnar_result: AURelation) -> None:
    assert python_result.schema == columnar_result.schema
    assert python_result._rows == columnar_result._rows


def sg_world(relation: AURelation) -> Relation:
    """The selected-guess world as a deterministic bag relation."""
    world = Relation(relation.schema)
    for row, mult in relation.selected_guess_rows().items():
        world.add(row, mult)
    return world


# -- predicate / expression strategies --------------------------------------


@st.composite
def numeric_predicates(draw):
    """Small random predicates over the integer attributes ``a`` and ``b``."""
    operands = [attr("a"), attr("b"), const(draw(st.integers(-4, 4)))]
    ops = ["lt", "le", "gt", "ge", "eq", "ne"]

    def comparison():
        left = draw(st.sampled_from(operands))
        right = draw(st.sampled_from(operands))
        return getattr(left, draw(st.sampled_from(ops)))(right)

    predicate = comparison()
    if draw(st.booleans()):
        connective = draw(st.sampled_from(["and_", "or_"]))
        predicate = getattr(predicate, connective)(comparison())
    if draw(st.booleans()):
        predicate = predicate.not_()
    return predicate


@st.composite
def numeric_expressions(draw):
    """Small random scalar expressions over ``a`` and ``b``."""
    base = [attr("a"), attr("b"), const(draw(st.integers(-3, 3)))]
    left = draw(st.sampled_from(base))
    right = draw(st.sampled_from(base))
    op = draw(st.sampled_from(["+", "-", "*", "ite"]))
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    return IfThenElse(attr("a").lt(attr("b")), left, right)


# -- backend agreement ------------------------------------------------------


@SETTINGS
@given(relation=au_relations(attributes=("a", "b")), predicate=numeric_predicates())
def test_select_backends_agree(relation, predicate):
    assert_same_relation(
        select(relation, predicate), select(relation, predicate, backend="columnar")
    )


@SETTINGS
@given(relation=object_au_relations(attributes=("a", "b")), constant=st.integers(-1, 3))
def test_select_backends_agree_object_columns(relation, constant):
    """Object-dtype columns route through the scalar fallback, bit for bit."""
    predicate = attr("a").le(const(constant))
    assert_same_relation(
        select(relation, predicate), select(relation, predicate, backend="columnar")
    )
    equality = attr("b").eq(attr("b"))
    assert_same_relation(
        select(relation, equality), select(relation, equality, backend="columnar")
    )


@SETTINGS
@given(
    relation=au_relations(attributes=("a", "b", "c")),
    attributes=st.sampled_from([("a",), ("b",), ("c", "a"), ("b", "c"), ("a", "b", "c"), ()]),
)
def test_project_backends_agree(relation, attributes):
    assert_same_relation(
        project(relation, list(attributes)),
        project(relation, list(attributes), backend="columnar"),
    )


@SETTINGS
@given(relation=object_au_relations(attributes=("a", "b")))
def test_project_backends_agree_object_columns(relation):
    """Dict-coded equality grouping must merge exactly like RangeValue.__eq__."""
    assert_same_relation(
        project(relation, ["b"]), project(relation, ["b"], backend="columnar")
    )


@SETTINGS
@given(relation=au_relations(attributes=("a", "b")), expression=numeric_expressions())
def test_extend_backends_agree(relation, expression):
    assert_same_relation(
        extend(relation, "x", expression),
        extend(relation, "x", expression, backend="columnar"),
    )


@SETTINGS
@given(
    left=au_relations(attributes=("a", "b")),
    right=au_relations(attributes=("a", "b")),
)
def test_union_backends_agree(left, right):
    assert_same_relation(union(left, right), union(left, right, backend="columnar"))


@SETTINGS
@given(
    left=object_au_relations(attributes=("a", "b")),
    right=object_au_relations(attributes=("a", "b")),
)
def test_union_backends_agree_object_columns(left, right):
    assert_same_relation(union(left, right), union(left, right, backend="columnar"))


@SETTINGS
@given(relation=au_relations(attributes=("a", "b"), max_count=3))
def test_distinct_backends_agree(relation):
    assert_same_relation(distinct(relation), distinct(relation, backend="columnar"))


@SETTINGS
@given(
    left=au_relations(attributes=("a", "b"), max_tuples=4),
    right=au_relations(attributes=("b", "c"), max_tuples=3),
)
def test_cross_backends_agree(left, right):
    """Shared attribute names exercise the ``_r`` suffix disambiguation too."""
    assert_same_relation(cross(left, right), cross(left, right, backend="columnar"))


@SETTINGS
@given(
    left=au_relations(attributes=("k", "a"), max_tuples=4),
    right=au_relations(attributes=("k", "b"), max_tuples=3),
)
def test_join_on_backends_agree(left, right):
    assert_same_relation(
        join(left, right, on=["k"]), join(left, right, on=["k"], backend="columnar")
    )


@SETTINGS
@given(
    left=object_au_relations(attributes=("a", "k"), max_tuples=4, pool=["p", "q", "r"]),
    right=object_au_relations(attributes=("b", "k"), max_tuples=3, pool=["p", "q", "r"]),
)
def test_join_on_backends_agree_object_keys(left, right):
    """Object-dtype join keys take the scalar per-pair equality path."""
    assert_same_relation(
        join(left, right, on=["k"]), join(left, right, on=["k"], backend="columnar")
    )


@SETTINGS
@given(
    left=au_relations(attributes=("a", "b"), max_tuples=4),
    right=au_relations(attributes=("c",), max_tuples=3),
)
def test_join_predicate_backends_agree(left, right):
    predicate = attr("a").lt(attr("c")).or_(attr("b").eq(attr("c")))
    assert_same_relation(
        join(left, right, predicate), join(left, right, predicate, backend="columnar")
    )


@st.composite
def certain_key_relations(draw, *, attributes=("k", "b"), max_tuples=5):
    """Relations whose first attribute is a *certain* integer key column.

    These qualify for the sort/searchsorted equi-join path (point keys on one
    side); values on the remaining attributes stay uncertain ranges.
    """
    relation = AURelation(Schema(attributes))
    for _ in range(draw(st.integers(min_value=0, max_value=max_tuples))):
        values = [draw(st.integers(min_value=-4, max_value=4))]
        values += [draw(range_values()) for _ in attributes[1:]]
        relation.add_values(values, draw(multiplicities(max_count=2)))
    return relation


@SETTINGS
@given(
    relation=au_relations(attributes=("g", "v"), max_tuples=5, max_count=3),
)
@example(
    relation=AURelation.from_rows(
        ["g", "v"],
        [
            ((RangeValue(0, 1, 2), 10), (1, 1, 1)),  # uncertain group key
            ((1, 20), (1, 1, 1)),
            ((1, 30), (0, 1, 1)),
            ((2, 40), (1, 1, 2)),
        ],
    )
)
def test_groupby_backends_agree(relation):
    """Uncertain group keys exercise the N³ possible-membership handling."""
    assert_same_relation(
        groupby_aggregate(relation, ["g"], ALL_AGGREGATES),
        groupby_aggregate(relation, ["g"], ALL_AGGREGATES, backend="columnar"),
    )


@SETTINGS
@given(relation=au_relations(attributes=("g", "h", "v"), max_tuples=5, max_count=3))
def test_groupby_multi_key_backends_agree(relation):
    assert_same_relation(
        groupby_aggregate(relation, ["g", "h"], [("count", "*", "n"), ("sum", "v", "s")]),
        groupby_aggregate(
            relation, ["g", "h"], [("count", "*", "n"), ("sum", "v", "s")], backend="columnar"
        ),
    )


@SETTINGS
@given(relation=au_relations(attributes=("g", "v"), max_tuples=4, max_count=3))
def test_groupby_global_backends_agree(relation):
    """Empty ``group_by``: one output row even over the empty relation."""
    assert_same_relation(
        groupby_aggregate(relation, [], ALL_AGGREGATES),
        groupby_aggregate(relation, [], ALL_AGGREGATES, backend="columnar"),
    )


@SETTINGS
@given(relation=object_au_relations(attributes=("v", "g"), max_tuples=5, max_count=3))
def test_groupby_backends_agree_object_keys(relation):
    """Object-dtype group keys (strings, None/int, bool/int) group identically."""
    aggregates = [("count", "*", "n"), ("sum", "v", "s"), ("max", "v", "hi")]
    assert_same_relation(
        groupby_aggregate(relation, ["g"], aggregates),
        groupby_aggregate(relation, ["g"], aggregates, backend="columnar"),
    )


@SETTINGS
@given(
    relation=object_au_relations(
        attributes=("g", "v"), max_tuples=5, max_count=3, pool=["p", "q", "r", "s"]
    )
)
def test_groupby_backends_agree_object_values(relation):
    """Object-dtype *aggregated* columns fold through the shared scalar helper."""
    aggregates = [("min", "v", "lo"), ("max", "v", "hi")]
    assert_same_relation(
        groupby_aggregate(relation, ["g"], aggregates),
        groupby_aggregate(relation, ["g"], aggregates, backend="columnar"),
    )


@SETTINGS
@given(
    left=au_relations(attributes=("k", "a"), max_tuples=5, max_count=2),
    right=certain_key_relations(),
)
def test_equijoin_grid_and_searchsorted_agree(left, right):
    """The memory-safe pair enumeration is bit-identical to the pair grid."""
    import numpy as np

    from repro.columnar import operators as col_ops
    from repro.columnar.relation import ColumnarAURelation

    columnar_left = ColumnarAURelation.from_relation(left)
    columnar_right = ColumnarAURelation.from_relation(right)
    for pair in ((columnar_left, columnar_right), (columnar_right, columnar_left)):
        grid = col_ops.join(*pair, on=["k"], method="grid")
        fast = col_ops.join(*pair, on=["k"], method="searchsorted")
        assert grid.schema == fast.schema
        assert len(grid) == len(fast)
        for grid_col, fast_col in zip(grid.columns, fast.columns):
            for component in ("lb", "sg", "ub"):
                assert np.array_equal(
                    getattr(grid_col, component), getattr(fast_col, component)
                )
        for component in ("mult_lb", "mult_sg", "mult_ub"):
            assert np.array_equal(getattr(grid, component), getattr(fast, component))
        # ... and both match the Python backend at the relation boundary.
        assert_same_relation(join(*[p.to_relation() for p in pair], on=["k"]), fast.to_relation())


@SETTINGS
@given(
    left=au_relations(attributes=("k", "a"), max_tuples=4, max_count=2),
    right=certain_key_relations(attributes=("k", "b"), max_tuples=4),
)
def test_equijoin_auto_with_predicate_agrees(left, right):
    """`auto` + extra predicate stays bit-identical across methods and backends."""
    from repro.columnar import operators as col_ops
    from repro.columnar.relation import ColumnarAURelation

    predicate = attr("a").lt(attr("b"))
    columnar_left = ColumnarAURelation.from_relation(left)
    columnar_right = ColumnarAURelation.from_relation(right)
    auto = col_ops.join(columnar_left, columnar_right, predicate, on=["k"])
    grid = col_ops.join(columnar_left, columnar_right, predicate, on=["k"], method="grid")
    assert auto.to_relation()._rows == grid.to_relation()._rows
    assert_same_relation(join(left, right, predicate, on=["k"]), auto.to_relation())


def test_join_cross_empty_inputs_agree_all_methods():
    """Regression: ``n == 0`` inputs short-circuit before the repeat/tile scratch.

    The grid kernel used to size its pair scratch from ``|L| * |R|`` before
    checking for emptiness; every method must now return the empty result on
    an empty side without touching the pair-expansion path, bit-identical to
    the Python backend.
    """
    from repro.columnar import operators as col_ops
    from repro.columnar.relation import ColumnarAURelation

    filled_left = AURelation.from_rows(
        ["k", "a"], [((1, 2), (1, 1, 1)), ((RangeValue(0, 1, 2), 4), (0, 1, 2))]
    )
    filled_right = AURelation.from_rows(["k", "b"], [((1, 5), 1)])
    empty_left = AURelation.from_rows(["k", "a"], [])
    empty_right = AURelation.from_rows(["k", "b"], [])
    for left, right in [
        (filled_left, empty_right),
        (empty_left, filled_right),
        (empty_left, empty_right),
    ]:
        columnar_left = ColumnarAURelation.from_relation(left)
        columnar_right = ColumnarAURelation.from_relation(right)
        python_joined = join(left, right, on=["k"])
        assert python_joined.is_empty()
        for method in ("auto", "grid", "searchsorted", "sweep"):
            columnar_joined = col_ops.join(
                columnar_left, columnar_right, on=["k"], method=method
            )
            assert_same_relation(python_joined, columnar_joined.to_relation())
        band_joined = col_ops.join(
            columnar_left, columnar_right, attr("a").lt(attr("b")), method="band"
        )
        assert_same_relation(join(left, right, attr("a").lt(attr("b"))), band_joined.to_relation())
        python_crossed = cross(left, right)
        assert python_crossed.is_empty()
        assert_same_relation(python_crossed, cross(left, right, backend="columnar"))
        predicate = attr("a").lt(attr("b"))
        assert_same_relation(
            join(left, right, predicate),
            join(left, right, predicate, backend="columnar"),
        )


def test_empty_results_agree_on_both_backends():
    relation = AURelation.from_rows(["a", "b"], [((1, 2), (1, 1, 1)), ((3, 4), (0, 1, 2))])
    never = attr("a").gt(const(100))
    for backend in ("python", "columnar"):
        result = select(relation, never, backend=backend)
        assert result.is_empty()
        assert result.schema == relation.schema
    other = AURelation.from_rows(["c"], [((200,), 1)])
    for backend in ("python", "columnar"):
        joined = join(relation, other, attr("a").gt(attr("c")), backend=backend)
        assert joined.is_empty()
    empty = AURelation.from_rows(["a", "b"], [])
    for backend in ("python", "columnar"):
        assert project(empty, ["a"], backend=backend).is_empty()
        assert distinct(empty, backend=backend).is_empty()
        assert cross(empty, relation, backend=backend).is_empty()

    # Whole plans over an n = 0 input, and over an input the first stage
    # filters to zero rows: every later stage sees an empty intermediate.
    from repro.columnar.plan import ColumnarPlan
    from repro.ranking.native import sort_native
    from repro.window.native import window_native
    from repro.window.spec import WindowSpec

    spec = WindowSpec(function="sum", attribute="b", output="w", order_by=("a",), frame=(-1, 0))
    aggregates = [("count", "*", "n"), ("sum", "b", "s")]
    for source in (empty, relation):
        rows = select(source, never)
        plan = ColumnarPlan(source).select(never)
        for python_result, plan_result in (
            (rows, plan.to_rows()),
            (sort_native(rows, ["a"]), plan.sort(["a"]).to_rows()),
            (select(sort_native(rows, ["a"], k=2), attr("pos").lt(2)), plan.topk(["a"], 2).to_rows()),
            (window_native(rows, spec), plan.window(spec).to_rows()),
            (join(rows, other, attr("a").gt(attr("c"))), plan.join(other, attr("a").gt(attr("c"))).to_rows()),
            (join(rows, relation, on=["a"]), plan.join(relation, on=["a"]).to_rows()),
            (groupby_aggregate(rows, ["a"], aggregates), plan.groupby_aggregate(["a"], aggregates).to_rows()),
        ):
            assert python_result.is_empty()
            assert_same_relation(python_result, plan_result)


# -- det-world soundness oracle ---------------------------------------------

ORACLE_SETTINGS = settings(max_examples=40, deadline=None)


@ORACLE_SETTINGS
@given(relation=au_relations(attributes=("a", "b"), max_tuples=4), predicate=numeric_predicates())
def test_select_bounds_selected_guess_world(relation, predicate):
    result = select(relation, predicate, backend="columnar")
    expected = det_ops.select(sg_world(relation), predicate)
    assert bounds_world(result, expected)


@ORACLE_SETTINGS
@given(
    relation=au_relations(attributes=("a", "b"), max_tuples=4),
    attributes=st.sampled_from([("a",), ("b",), ("b", "a")]),
)
def test_project_bounds_selected_guess_world(relation, attributes):
    result = project(relation, list(attributes), backend="columnar")
    expected = det_ops.project(sg_world(relation), list(attributes))
    assert bounds_world(result, expected)


@ORACLE_SETTINGS
@given(
    left=au_relations(attributes=("k", "a"), max_tuples=3),
    right=au_relations(attributes=("k", "b"), max_tuples=3),
)
def test_join_bounds_selected_guess_world(left, right):
    result = join(left, right, on=["k"], backend="columnar")
    expected = det_ops.join(sg_world(left), sg_world(right), on=["k"])
    assert bounds_world(result, expected)


@ORACLE_SETTINGS
@given(
    left=au_relations(attributes=("a", "b"), max_tuples=3),
    right=au_relations(attributes=("a", "b"), max_tuples=3),
)
def test_union_bounds_selected_guess_world(left, right):
    result = union(left, right, backend="columnar")
    expected = det_ops.union(sg_world(left), sg_world(right))
    assert bounds_world(result, expected)


@ORACLE_SETTINGS
@given(relation=au_relations(attributes=("a", "b"), max_tuples=4, max_count=3))
def test_distinct_bounds_selected_guess_world(relation):
    result = distinct(relation, backend="columnar")
    world = sg_world(relation)
    expected = Relation(world.schema)
    for row, _mult in world:
        expected.add(row, 1)
    assert bounds_world(result, expected)


def test_distinct_overlapping_tuples_drop_certainty():
    """Regression: two tuples that may collapse to one value cannot both stay certain.

    The flow oracle found this on the naive min(1, ·) capping — the world
    ``{(0, 0): 1}`` (the deduplicated selected-guess world) has one tuple, but
    both outputs claimed a certain copy.
    """
    relation = AURelation.from_rows(
        ["a", "b"], [((0, 0), (1, 1, 1)), ((0, RangeValue(0, 0, 1)), (1, 1, 1))]
    )
    for backend in ("python", "columnar"):
        result = distinct(relation, backend=backend)
        mults = list(result._rows.values())
        assert [m.lb for m in mults] == [0, 0]
        assert [m.sg for m in mults] == [1, 0]  # SG world deduplicates to one copy
        expected = Relation(result.schema)
        expected.add((0, 0), 1)
        assert bounds_world(result, expected)


@ORACLE_SETTINGS
@given(relation=au_relations(attributes=("g", "v"), max_tuples=4, max_count=2))
def test_groupby_bounds_selected_guess_world(relation):
    result = groupby_aggregate(
        relation, ["g"], [("count", "*", "n"), ("sum", "v", "s")], backend="columnar"
    )
    expected = det_ops.groupby_aggregate(
        sg_world(relation), ["g"], [("count", "*", "n"), ("sum", "v", "s")]
    )
    assert bounds_world(result, expected)
