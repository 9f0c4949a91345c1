"""Three-way differential: paired factorised plans vs flat plans vs Python.

Randomized ``select -> join -> {select, project, narrow, groupby, window,
sort, extend, rename}`` chains, and ``select -> join -> extend -> join ->
{select, sort, window}`` chains whose second join reads an input that is
already paired, run through three independent executions:

* **paired** — one chained :class:`~repro.columnar.plan.ColumnarPlan`
  whose joins emit a paired
  :class:`~repro.columnar.factorised.FactorisedAURelation` (fragments plus
  pair index vectors; later stages push down into fragments or operate on
  slim gathers, never the full expanded product);
* **flat** — the same plan expanded right after each join
  (``plan.columnar()`` is a sanctioned materialisation point) and wrapped
  again, so the next stage runs on the flat layout, where the ranked stages
  take the eager kernels; and
* **python** — the tuple-at-a-time reference operators.

All three must agree bit for bit at the relation boundary (same hypercubes,
same ``N³`` triples, same first-occurrence row order).  The inputs cover bag
multiplicities (``ub > 1``), empty sides, uncertain join keys (which the
range×range sweep keeps paired), and object-dtype payload *and* key
columns (object keys take the automatic expand-and-grid fallback).

A last property pins the row boundary itself: every result converts to the
same rows, type for type, whether its columns carry the input's range-value
objects or rebuild them from the component arrays.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expressions import attr, const
from repro.core.operators import (
    extend,
    groupby_aggregate,
    join,
    project,
    rename,
    select,
)
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.core.schema import Schema
from repro.window.native import window_native
from repro.window.spec import WindowSpec

from tests.property.strategies import (
    au_relations,
    multiplicities,
    object_au_relations,
    range_values,
)

pytest.importorskip("numpy", reason="the columnar backend requires NumPy")

from repro.columnar.plan import ColumnarPlan  # noqa: E402
from repro.columnar.relation import (  # noqa: E402
    AttributeColumn,
    ColumnarAURelation,
    as_columnar,
)

SETTINGS = settings(max_examples=60, deadline=None)

#: Post-join stages; join output schema is ``(k, a, k_r, b)``.  The sort and
#: window stages pin the folded tiebreak: the factorised path pre-ranks the
#: ``<ᵗᵒᵗᵃˡ_O`` comparator into one strict column and passes it as the stage
#: kernels' sole non-order-by sort key (``strict_tiebreak``), which must stay
#: bit-identical to the eager rank-coded key stack.  ``extend`` reads both
#: sides of the join and ``rename`` renames a column of each.
STAGES = ("select", "project", "narrow", "groupby", "window", "sort", "extend", "rename")

GROUPBY_AGGREGATES = [("count", "*", "n"), ("sum", "b", "s")]
WINDOW = WindowSpec(
    function="sum", attribute="b", output="w", order_by=("a",), frame=(-1, 0)
)
EXTEND = attr("a") + attr("b")
RENAME = {"a": "x", "b": "y"}


def assert_same_relation(expected: AURelation, actual: AURelation) -> None:
    assert expected.schema == actual.schema
    assert expected._rows == actual._rows


def run_python(left, right, threshold, stage):
    result = select(left, attr("a").ge(const(threshold)))
    result = join(result, right, on=["k"])
    if stage == "select":
        return select(result, attr("b").le(const(threshold)))
    if stage == "project":
        return project(result, ["a", "b"])
    if stage == "narrow":
        # The row boundary merges equal hypercubes, as the bag projection does.
        return project(result, ["b", "a"])
    if stage == "groupby":
        return groupby_aggregate(result, ["a"], GROUPBY_AGGREGATES)
    if stage == "sort":
        from repro.ranking.native import sort_native

        return sort_native(result, ["a"])
    if stage == "extend":
        return extend(result, "e", EXTEND)
    if stage == "rename":
        return rename(result, RENAME)
    return window_native(result, WINDOW)


def run_stage(plan, stage, threshold, *, projected=("a", "b")):
    """One post-join stage of :data:`STAGES` on a :class:`ColumnarPlan`."""
    if stage == "select":
        return plan.select(attr("b").le(const(threshold)))
    if stage == "project":
        return plan.project(list(projected))
    if stage == "narrow":
        return plan.narrow(["b", "a"])
    if stage == "groupby":
        return plan.groupby_aggregate(["a"], GROUPBY_AGGREGATES)
    if stage == "sort":
        return plan.sort(["a"])
    if stage == "extend":
        return plan.extend("e", EXTEND)
    if stage == "rename":
        return plan.rename(RENAME)
    return plan.window(WINDOW)


def run_plans(left, right, threshold, stage):
    """Run the chain paired and flat-after-join; return both results."""
    columnar_left = ColumnarAURelation.from_relation(left)
    columnar_right = ColumnarAURelation.from_relation(right)
    joined = (
        ColumnarPlan(columnar_left)
        .select(attr("a").ge(const(threshold)))
        .join(columnar_right, on=["k"])
    )
    return [
        run_stage(contender, stage, threshold).to_rows()
        for contender in (joined, ColumnarPlan(joined.columnar()))
    ]


@SETTINGS
@given(
    left=au_relations(attributes=("k", "a"), max_tuples=4, max_count=3),
    right=au_relations(attributes=("k", "b"), max_tuples=3, max_count=3),
    threshold=st.integers(-2, 2),
    stage=st.sampled_from(STAGES),
)
def test_factorised_chain_three_way(left, right, threshold, stage):
    """Uncertain keys: the range×range sweep keeps the pairs, bit for bit."""
    python_result = run_python(left, right, threshold, stage)
    paired_result, flat_result = run_plans(left, right, threshold, stage)
    assert_same_relation(python_result, paired_result)
    assert_same_relation(python_result, flat_result)


@st.composite
def certain_key_relations(draw, *, attributes=("k", "b"), max_tuples=5):
    """Certain integer keys: the factorised join keeps its pair-index layout."""
    from repro.core.schema import Schema

    relation = AURelation(Schema(attributes))
    for _ in range(draw(st.integers(min_value=0, max_value=max_tuples))):
        values = [draw(st.integers(min_value=-4, max_value=4))]
        values += [draw(range_values()) for _ in attributes[1:]]
        relation.add_values(values, draw(multiplicities(max_count=3)))
    return relation


@SETTINGS
@given(
    left=certain_key_relations(attributes=("k", "a")),
    right=certain_key_relations(attributes=("k", "b"), max_tuples=4),
    threshold=st.integers(-2, 2),
    stage=st.sampled_from(STAGES),
)
def test_factorised_chain_three_way_certain_keys(left, right, threshold, stage):
    """Certain keys stay on the genuinely factorised path through every stage."""
    python_result = run_python(left, right, threshold, stage)
    paired_result, flat_result = run_plans(left, right, threshold, stage)
    assert_same_relation(python_result, paired_result)
    assert_same_relation(python_result, flat_result)


@pytest.mark.parametrize("stage", STAGES)
def test_factorised_chain_sharded_matches_serial(stage):
    """The pipeline workload's 96-row inputs through each post-join stage.

    ``factjoin_inputs`` yields 96 distinct certain keys with ~50% overlap,
    well past the few-tuple hypothesis draws above; the paired and flat
    chains must still agree with the Python operators bit for bit.
    (The name is kept from when this test also compared the removed sharded
    executor against the serial path.)
    """
    from repro.core.schema import Schema
    from repro.workloads.pipeline import factjoin_inputs

    left, right, _v, _w = factjoin_inputs(96, seed=3)

    # factjoin_inputs yields (k, o, v) / (k, w); reshape to the (k, a) / (k, b)
    # schemas the staged helpers above expect.
    def reshape(relation, names):
        reshaped = AURelation(Schema(names))
        for row, mult in relation._rows.items():
            reshaped.add_values(row[: len(names)], mult)
        return reshaped

    left = reshape(left, ("k", "a"))
    right = reshape(right, ("k", "b"))
    threshold = 20
    python_result = run_python(left, right, threshold, stage)
    for result in run_plans(left, right, threshold, stage):
        assert_same_relation(python_result, result)


#: Last stages of the two-join chain; its output schema is
#: ``(k, a, k_r, b, e, <third k>, c)``.
FINAL_STAGES = ("select", "sort", "window")
FINAL_WINDOW = WindowSpec(
    function="sum", attribute="c", output="w", order_by=("e",), frame=(-1, 0)
)


@st.composite
def keyed_relations(draw, *, attributes, certain_keys):
    """``(k, payload)``: 0-4 rows, bags up to ``ub == 3``, certain or range keys."""
    if certain_keys:
        return draw(certain_key_relations(attributes=attributes, max_tuples=4))
    return draw(au_relations(attributes=attributes, max_tuples=4, max_count=3))


def python_two_joins(left, right, third, threshold, stage):
    from repro.ranking.native import sort_native

    result = select(left, attr("a").ge(const(threshold)))
    result = extend(join(result, right, on=["k"]), "e", EXTEND)
    result = join(result, third, on=["k"])
    if stage == "select":
        return select(result, attr("c").le(attr("e")))
    if stage == "sort":
        return sort_native(result, ["e", "c"])
    return window_native(result, FINAL_WINDOW)


def plan_two_joins(left, right, third, threshold, stage, *, flatten):
    """The chain on :class:`ColumnarPlan`; ``flatten`` expands after each join."""

    def joined(plan, other):
        plan = plan.join(ColumnarPlan(other), on=["k"])
        return ColumnarPlan(plan.columnar()) if flatten else plan

    plan = ColumnarPlan(left).select(attr("a").ge(const(threshold)))
    plan = joined(joined(plan, right).extend("e", EXTEND), third)
    # Numeric keys always qualify for searchsorted or the sweep: no grid.
    assert plan.factorised().is_flat == flatten
    if stage == "select":
        return plan.select(attr("c").le(attr("e"))).to_rows()
    if stage == "sort":
        return plan.sort(["e", "c"]).to_rows()
    return plan.window(FINAL_WINDOW).to_rows()


@SETTINGS
@given(
    certain_keys=st.booleans(),
    data=st.data(),
    threshold=st.integers(-2, 2),
    stage=st.sampled_from(FINAL_STAGES),
)
def test_join_of_a_paired_input_three_way(certain_keys, data, threshold, stage):
    """A join whose left input is paired, with an extend fragment, three ways.

    The second join composes the first one's index vectors (``idx[rows]``)
    and the identity vector of the extend's fragment; paired, flat after
    each join and python must agree bit for bit.
    """
    left, right, third = (
        data.draw(keyed_relations(attributes=("k", name), certain_keys=certain_keys))
        for name in ("a", "b", "c")
    )
    python_result = python_two_joins(left, right, third, threshold, stage)
    for flatten in (False, True):
        assert_same_relation(
            python_result,
            plan_two_joins(left, right, third, threshold, stage, flatten=flatten),
        )


@SETTINGS
@given(
    left=object_au_relations(
        attributes=("k", "a"), max_tuples=4, max_count=3, pool=["p", "q", "r"]
    ),
    right=object_au_relations(
        attributes=("k", "b"), max_tuples=3, max_count=3, pool=["p", "q", "r"]
    ),
    stage=st.sampled_from(("project", "groupby")),
)
def test_factorised_chain_three_way_object_payload(left, right, stage):
    """Object-dtype payload columns ride the factorised chain unchanged.

    ``a``/``b`` are object (string) columns here, so the stage set avoids
    numeric predicates and windows; projection and grouping must still agree.
    """
    python_joined = join(left, right, on=["k"])
    columnar_joined = ColumnarPlan(ColumnarAURelation.from_relation(left)).join(
        ColumnarAURelation.from_relation(right), on=["k"]
    )
    for contender in (columnar_joined, ColumnarPlan(columnar_joined.columnar())):
        if stage == "project":
            python_result = project(python_joined, ["a", "b"])
            staged = contender.project(["a", "b"])
        else:
            aggregates = [("count", "*", "n"), ("max", "b", "hi")]
            python_result = groupby_aggregate(python_joined, ["a"], aggregates)
            staged = contender.groupby_aggregate(["a"], aggregates)
        assert_same_relation(python_result, staged.to_rows())


@SETTINGS
@given(
    left=object_au_relations(
        attributes=("a", "k"), max_tuples=4, max_count=3, pool=["p", "q", "r"]
    ),
    right=object_au_relations(
        attributes=("b", "k"), max_tuples=3, max_count=3, pool=["p", "q", "r"]
    ),
)
def test_factorised_object_join_keys_fall_back(left, right):
    """Object-dtype join keys: the automatic expand-and-join fallback is pinned."""
    python_result = join(left, right, on=["k"])
    plan_result = (
        ColumnarPlan(ColumnarAURelation.from_relation(left))
        .join(ColumnarAURelation.from_relation(right), on=["k"])
        .to_rows()
    )
    assert_same_relation(python_result, plan_result)


#: Payload pools, one per relation: strings, and bool / None / int / float
#: mixes (mutually comparable, so the python-side sort of the bounds works).
_PAYLOAD_POOLS = (
    ["p", "q", "r", "s"],
    [None, 0, 1, 2],
    [False, True, 1, 2],
    [0, 0.5, 1, 2.5],
    [None, False, 1, 1.5],
)


@st.composite
def payload_relations(draw, *, attributes, max_tuples, certain_keys):
    """``(key, value, payload)``: int keys, int ranges, an object-dtype payload."""
    from repro.relational.sort import sort_key_value

    pool = draw(st.sampled_from(_PAYLOAD_POOLS))
    relation = AURelation(Schema(attributes))
    for _ in range(draw(st.integers(min_value=0, max_value=max_tuples))):
        if certain_keys:
            key = draw(st.integers(min_value=-3, max_value=3))
        else:
            key = draw(range_values(min_value=-3, max_value=3))
        bounds = sorted(
            draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3)),
            key=sort_key_value,
        )
        relation.add_values(
            [key, draw(range_values()), RangeValue(*bounds)],
            draw(multiplicities(max_count=3)),
        )
    return relation


def without_objects(relation: ColumnarAURelation) -> ColumnarAURelation:
    """The same relation with every column's carried range values dropped."""
    columns = [AttributeColumn(c.name, c.lb, c.sg, c.ub) for c in relation.columns]
    return ColumnarAURelation(
        relation.schema, columns, relation.mult_lb, relation.mult_sg, relation.mult_ub
    )


def boundary_repr(relation: ColumnarAURelation) -> str:
    """The boundary rows, spelled out type for type (``1``, ``1.0``, ``True``)."""
    return repr(list(relation.to_relation()._rows.items()))


@pytest.mark.parametrize("stage", STAGES)
@SETTINGS
@given(certain_keys=st.booleans(), data=st.data(), threshold=st.integers(-2, 2))
def test_carried_objects_match_the_arrays(stage, certain_keys, data, threshold):
    """The boundary rows are the same with and without the carried ``objects``.

    A gather that forgot ``objects``, or a stage that kept them after changing
    a component, makes them disagree with the arrays.  The join runs
    paired, flat after the join, and through the eager searchsorted /
    sweep and grid kernels.
    """
    from repro.columnar import operators as ops

    left = data.draw(
        payload_relations(attributes=("k", "a", "p"), max_tuples=4, certain_keys=certain_keys)
    )
    right = data.draw(
        payload_relations(attributes=("k", "b", "q"), max_tuples=3, certain_keys=certain_keys)
    )
    selected = ColumnarPlan(left).select(attr("a").ge(const(threshold)))
    joined = selected.join(ColumnarPlan(right), on=["k"])
    eager = [
        ColumnarPlan(ops.join(selected.columnar(), as_columnar(right), on=["k"], method=method))
        for method in ("auto", "grid")
    ]
    for contender in [joined, ColumnarPlan(joined.columnar())] + eager:
        staged = run_stage(contender, stage, threshold, projected=("a", "p", "q"))
        result = staged.columnar()
        assert boundary_repr(result) == boundary_repr(without_objects(result))
