"""Differential properties: native / columnar windowed aggregation vs the rewrite.

The definitional rewrite (:func:`repro.window.semantics.window_rewrite`) is
the specification; the native sweep (:func:`repro.window.native.window_native`)
and the columnar kernels (:mod:`repro.columnar.window`) must agree with it
*bit for bit* — same hypercubes, same aggregate-bound triples, same
multiplicity annotations — on arbitrary AU-relations (including bag inputs
with multiplicity ``ub > 1``, which receive per-duplicate aggregate values)
across every dispatch path:

* the real one-pass sweep (``N PRECEDING AND CURRENT ROW`` frames, no
  partition-by),
* the mirrored-order reduction (``CURRENT ROW AND N FOLLOWING`` frames),
* the per-partition sweep (certain partition-by attributes),
* the fallback paths (two-sided frames, frames excluding the current row,
  uncertain partition-by attributes), which route to the rewrite and must do
  so transparently.

The two historical divergences — following-only frames (order-by-key vs
sort-position-interval membership) and ``ub > 1`` duplicate splitting
(shared hulls vs per-duplicate values) — are resolved; the properties below
pin the converged semantics.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.window.native import window_native
from repro.window.semantics import window_rewrite
from repro.window.spec import WindowSpec

from tests.property.strategies import au_relations, lifted_au_relations, window_frames

FUNCTIONS = ["sum", "count", "min", "max"]


def _spec(
    function: str,
    frame: tuple[int, int],
    partition_by: tuple[str, ...] = (),
    *,
    descending: bool = False,
) -> WindowSpec:
    return WindowSpec(
        function=function,
        attribute=None if function == "count" else "v",
        output="w",
        order_by=("o",),
        partition_by=partition_by,
        frame=frame,
        descending=descending,
    )


def assert_same_relation(left: AURelation, right: AURelation) -> None:
    assert left.schema == right.schema
    assert left._rows == right._rows


@settings(max_examples=100, deadline=None)
@given(
    relation=au_relations(attributes=("o", "v")),
    function=st.sampled_from(FUNCTIONS),
    preceding=st.integers(min_value=0, max_value=3),
    descending=st.booleans(),
)
def test_sweep_matches_rewrite_preceding_frames(relation, function, preceding, descending):
    spec = _spec(function, (-preceding, 0), descending=descending)
    assert_same_relation(window_native(relation, spec), window_rewrite(relation, spec))


@settings(max_examples=100, deadline=None)
@given(
    relation=au_relations(attributes=("o", "v")),
    function=st.sampled_from(FUNCTIONS),
    following=st.integers(min_value=0, max_value=3),
)
def test_following_frames_match_bit_for_bit(relation, function, following):
    """``CURRENT ROW AND N FOLLOWING``: the mirrored-order reduction converges.

    Historically pinned as a divergence (the sweep decided membership from
    order-by keys in mirrored coordinates, the rewrite from forward
    sort-position intervals); both now classify members through the mirrored
    order's position intervals.
    """
    spec = _spec(function, (0, following))
    assert_same_relation(window_native(relation, spec), window_rewrite(relation, spec))


@settings(max_examples=120, deadline=None)
@given(
    relation=au_relations(attributes=("o", "v")),
    function=st.sampled_from(FUNCTIONS + ["avg"]),
    frame=window_frames(),
)
def test_native_matches_rewrite_arbitrary_frames(relation, function, frame):
    """Every dispatch path (sweep, mirror, fallback) agrees with the rewrite."""
    spec = _spec(function, frame)
    assert_same_relation(window_native(relation, spec), window_rewrite(relation, spec))


@settings(max_examples=100, deadline=None)
@given(
    relation=au_relations(attributes=("o", "v")),
    function=st.sampled_from(FUNCTIONS + ["avg"]),
    frame=window_frames(),
    descending=st.booleans(),
)
def test_window_backends_agree(relation, function, frame, descending):
    """Three-way property: native == rewrite == columnar, bit for bit."""
    pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
    spec = _spec(function, frame, descending=descending)
    rewrite = window_rewrite(relation, spec)
    native = window_native(relation, spec)
    columnar = window_native(relation, spec, backend="columnar")
    assert_same_relation(native, rewrite)
    assert_same_relation(columnar, rewrite)


@st.composite
def float_valued_relations(draw) -> AURelation:
    """AU-relations whose aggregation column carries floats (order-sensitive sums)."""
    from repro.core.schema import Schema

    relation = AURelation(Schema(("o", "v")))
    floats = st.floats(min_value=-4, max_value=4, allow_nan=False, width=16)
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        o = sorted(draw(st.lists(st.integers(-4, 4), min_size=3, max_size=3)))
        v = sorted(draw(st.lists(floats, min_size=3, max_size=3)))
        lb = draw(st.integers(0, 1))
        sg = draw(st.integers(lb, 2))
        ub = draw(st.integers(max(1, sg), 2))
        relation.add_values([RangeValue(*o), RangeValue(*v)], (lb, sg, ub))
    return relation


@settings(max_examples=80, deadline=None)
@given(
    relation=float_valued_relations(),
    function=st.sampled_from(FUNCTIONS + ["avg"]),
    frame=window_frames(max_extent=2),
)
def test_float_columns_agree_bit_for_bit(relation, function, frame):
    """Float aggregation columns: sum bounds use exactly-rounded summation,
    so the member-collection order of the three implementations cannot leak
    into the results."""
    pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
    spec = _spec(function, frame)
    rewrite = window_rewrite(relation, spec)
    assert_same_relation(window_native(relation, spec), rewrite)
    assert_same_relation(window_native(relation, spec, backend="columnar"), rewrite)


@settings(max_examples=80, deadline=None)
@given(
    relation=au_relations(attributes=("o", "v", "g"), min_value=0, max_value=4),
    function=st.sampled_from(FUNCTIONS),
    frame=window_frames(max_extent=2),
)
def test_partitioned_sweep_matches_rewrite(relation, function, frame):
    """Partition-by attributes: certain values sweep per partition, uncertain fall back."""
    spec = _spec(function, frame, ("g",))
    assert_same_relation(window_native(relation, spec), window_rewrite(relation, spec))


@settings(max_examples=60, deadline=None)
@given(
    relation=au_relations(attributes=("o", "v", "g"), min_value=0, max_value=4),
    function=st.sampled_from(FUNCTIONS),
)
@example(
    relation=AURelation.from_rows(
        ["o", "v", "g"],
        [
            ((1, 10, RangeValue(0, 1, 2)), (1, 1, 1)),  # uncertain partition key
            ((2, 20, 1), (1, 1, 1)),
            ((3, 30, 1), (0, 1, 1)),
            ((4, 40, 2), (1, 1, 2)),
        ],
    ),
    function="sum",
)
def test_partitioned_backends_agree(relation, function):
    pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
    spec = _spec(function, (-2, 0), ("g",))
    assert_same_relation(
        window_native(relation, spec, backend="columnar"), window_rewrite(relation, spec)
    )


@settings(max_examples=80, deadline=None)
@given(
    relation=au_relations(attributes=("o", "v")),
    function=st.sampled_from(FUNCTIONS),
)
def test_two_sided_frame_falls_back_to_rewrite(relation, function):
    spec = _spec(function, (-1, 1))
    assert_same_relation(window_native(relation, spec), window_rewrite(relation, spec))


def test_empty_input_agrees_across_implementations():
    """n = 0 edge case: every implementation emits the widened empty schema."""
    from repro.core.schema import Schema

    empty = AURelation(Schema(("o", "v")))
    for frame in ((-1, 0), (0, 1), (-1, 1)):
        spec = _spec("sum", frame)
        rewrite = window_rewrite(empty, spec)
        assert len(rewrite) == 0
        assert_same_relation(rewrite, window_native(empty, spec))
        pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
        assert_same_relation(rewrite, window_native(empty, spec, backend="columnar"))


def test_certain_partitions_take_the_sweep_path():
    """Sanity: fully certain partition keys do *not* fall back to the rewrite."""
    relation = AURelation.from_rows(
        ["o", "v", "g"],
        [
            ((RangeValue(0, 1, 2), 4, 0), (1, 1, 1)),
            ((RangeValue(1, 1, 3), 5, 0), (0, 1, 1)),
            ((2, 6, 1), (1, 1, 1)),
        ],
    )
    spec = _spec("sum", (-1, 0), ("g",))
    assert_same_relation(window_native(relation, spec), window_rewrite(relation, spec))


def test_bag_duplicates_get_per_duplicate_aggregates():
    """Pinned bag semantics for ``ub > 1``: each duplicate aggregates separately.

    The i-th duplicate of a tuple occupies the tuple's position bounds
    shifted by ``i`` (Fig. 4 / Algorithm 2), so later duplicates certainly
    have predecessors and their windows tighten accordingly — the rewrite no
    longer reports one shared hull per tuple.
    """
    relation = AURelation.from_rows(["o", "v"], [((1, 5), (2, 2, 2)), ((2, 3), (1, 1, 1))])
    spec = _spec("sum", (-1, 0))
    for result in (window_rewrite(relation, spec), window_native(relation, spec)):
        values = sorted(
            (tup.value("w") for tup, _m in result if tup.value("o").sg == 1),
            key=lambda value: value.sg,
        )
        # First duplicate's window holds only itself; the second certainly
        # also contains the first.
        assert values == [RangeValue(5, 5, 5), RangeValue(10, 10, 10)]


def _assert_bounds_contain_sg_world(relation, spec, result) -> None:
    """Independent oracle: the bounds must contain the SG world's aggregates.

    Hulls the reported bounds per selected-guess row and checks that every
    deterministic window value of that row lies inside — a soundness check
    that does not depend on any of the three uncertain implementations.
    """
    from repro.baselines.det import det_window
    from repro.relational.relation import Relation
    from repro.relational.sort import sort_key_value  # domain order: None first

    sg_world = Relation(["o", "v"])
    for tup, mult in relation:
        if mult.sg:
            sg_world.add(tup.sg_row(), mult.sg)
    expected = det_window(sg_world, spec)

    hulls: dict[tuple, tuple[float, float]] = {}
    for tup, mult in result:
        if mult.sg == 0:
            continue
        row = tup.project(["o", "v"]).sg_row()
        value = tup.value("w")
        low, high = hulls.get(row, (value.lb, value.ub))
        hulls[row] = (
            min(low, value.lb, key=sort_key_value),
            max(high, value.ub, key=sort_key_value),
        )
    for row, _det_mult in expected:
        base, w_value = row[:2], row[2]
        if base not in hulls:
            continue  # duplicate splitting may hull several duplicates together
        if w_value is None:
            # Frames excluding the current row can be empty in the SG world;
            # min/max/avg are then SQL-NULL, which the RangeValue encoding
            # cannot express alongside numeric bounds (see the ROADMAP open
            # item).  The paper's frame class always includes the current
            # row, so its windows are never empty.
            continue
        low, high = hulls[base]
        assert sort_key_value(low) <= sort_key_value(w_value) <= sort_key_value(high)


@settings(max_examples=60, deadline=None)
@given(
    relation=lifted_au_relations(attributes=("o", "v")),
    function=st.sampled_from(FUNCTIONS),
)
def test_following_frame_bounds_contain_selected_guess_world(relation, function):
    """Soundness of the mirror reduction: bounds contain the SG-world result."""
    spec = _spec(function, (0, 2))
    _assert_bounds_contain_sg_world(relation, spec, window_native(relation, spec))


@settings(max_examples=80, deadline=None)
@given(
    relation=au_relations(attributes=("o", "v")),
    function=st.sampled_from(FUNCTIONS),
    frame=window_frames(),
)
def test_rewrite_bounds_contain_selected_guess_world(relation, function, frame):
    """Soundness of the rewrite on every frame class, against the det oracle.

    On two-sided and current-row-excluding frames the native operator (and
    the columnar backend) delegate to the rewrite, so the bit-for-bit
    properties compare it with itself there; this check pins the rewrite's
    per-duplicate membership logic against an independent deterministic
    oracle instead.
    """
    spec = _spec(function, frame)
    _assert_bounds_contain_sg_world(relation, spec, window_rewrite(relation, spec))


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.tuples(
                st.integers(min_value=-5, max_value=5),
                st.integers(min_value=0, max_value=2),
                st.one_of(st.none(), st.integers(min_value=-3, max_value=3)),
            ),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=10,
    ),
    function=st.sampled_from(FUNCTIONS + ["avg"]),
    frame=window_frames(),
    descending=st.booleans(),
    partition_by=st.sampled_from([(), ("g",)]),
)
def test_deterministic_window_backends_agree(rows, function, frame, descending, partition_by):
    """The deterministic window operator's columnar backend matches the Python one."""
    pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
    from repro.relational.relation import Relation
    from repro.relational.window import window_aggregate

    relation = Relation(["a", "g", "b"], rows)
    kwargs = dict(
        function=function,
        attribute=None if function == "count" else "a",
        output="w",
        order_by=["a", "b"],
        partition_by=partition_by,
        frame=frame,
        descending=descending,
    )
    python = window_aggregate(relation, **kwargs)
    columnar = window_aggregate(relation, backend="columnar", **kwargs)
    assert python.schema == columnar.schema
    assert python._rows == columnar._rows


#: Aggregation-column pools of one dispatch class each: numbers (int/float
#: and bool/int/float mixes, stored as ``object`` columns) sweep on both
#: backends; a pool holding strings or ``None`` goes to the rewrite, where
#: ``min``/``max``/``sum``/``avg`` over ``None`` next to a number or a string
#: fail with an ``OperatorError``.
_VALUE_POOLS = (
    [-1, 0, 2, 0.5, 1.5],
    [False, True, 2, 0.5],
    ["p", "q", "r"],
    [None, 0, 1],
    [None, "p", "q"],
)


@st.composite
def mixed_value_relations(draw) -> AURelation:
    """``(o, v, g)`` relations whose ``v`` draws from one of :data:`_VALUE_POOLS`."""
    from repro.core.schema import Schema
    from repro.relational.sort import sort_key_value

    from tests.property.strategies import multiplicities, range_values

    pool = draw(st.sampled_from(_VALUE_POOLS))
    relation = AURelation(Schema(("o", "v", "g")))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        bounds = sorted(
            draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3)),
            key=sort_key_value,
        )
        relation.add_values(
            [
                draw(range_values(min_value=0, max_value=4)),
                RangeValue(*bounds),
                draw(st.integers(min_value=0, max_value=1)),
            ],
            draw(multiplicities(max_count=2)),
        )
    return relation


def _outcome(call):
    """A window call's ordered rows, or the type and message of its ``OperatorError``."""
    from repro.errors import OperatorError

    try:
        result = call()
    except OperatorError as exc:
        return type(exc), str(exc)
    return result.schema, list(result._rows.items())


@settings(max_examples=150, deadline=None)
@given(
    relation=mixed_value_relations(),
    function=st.sampled_from(FUNCTIONS + ["avg"]),
    frame=window_frames(max_extent=2),
    partition_by=st.sampled_from([(), ("g",)]),
)
def test_one_dispatch_rule_for_mixed_value_columns(relation, function, frame, partition_by):
    """Both backends route an aggregation column by its values alone.

    Numbers sweep (the columnar backend hands an ``object`` column to the
    Python sweep), strings and ``None`` take the rewrite, ``count`` ignores
    values: the results agree in row order, and a failing call raises the
    same ``OperatorError`` on both.
    """
    pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
    spec = WindowSpec(
        function=function, attribute="v", output="w", order_by=("o",),
        partition_by=partition_by, frame=frame,
    )
    python = _outcome(lambda: window_native(relation, spec))
    columnar = _outcome(lambda: window_native(relation, spec, backend="columnar"))
    assert python == columnar


# ---------------------------------------------------------------------------
# Chained multi-window plans: the columnar-native window stages must feed the
# next stage exactly what the Python backend's row-major path would.
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    relation=au_relations(attributes=("o", "v")),
    first=st.sampled_from(FUNCTIONS + ["avg"]),
    second=st.sampled_from(FUNCTIONS + ["avg"]),
    frame1=window_frames(max_extent=2),
    frame2=window_frames(max_extent=2),
    cut=st.integers(min_value=-6, max_value=6),
    descending=st.booleans(),
)
def test_multiwindow_chained_plan_matches_python_per_stage(
    relation, first, second, frame1, frame2, cut, descending
):
    """``window -> select-on-aggregate -> window`` as one columnar chain.

    The Python path materialises a row-major relation after every stage; the
    chained plan stays columnar throughout (its window stages emit columnar
    output in the native sweep's emission order, so downstream ``<total_O``
    sequence-number tiebreakers agree).  Covers ub > 1 bag inputs, every
    frame class of ``window_frames`` (preceding, following-only via the
    mirrored reduction, two-sided / current-row-excluding fallbacks), and
    float aggregate columns from a first-stage ``avg``.
    """
    pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
    from repro.columnar.plan import ColumnarPlan
    from repro.core.expressions import attr, const
    from repro.core.operators import select as row_select

    spec1 = WindowSpec(
        function=first,
        attribute=None if first == "count" else "v",
        output="w1",
        order_by=("o",),
        frame=frame1,
        descending=descending,
    )
    spec2 = WindowSpec(
        function=second,
        attribute=None if second == "count" else "w1",
        output="w2",
        order_by=("o",),
        frame=frame2,
    )
    predicate = attr("w1").ge(const(cut))

    mid = row_select(window_native(relation, spec1), predicate)
    expected = window_native(mid, spec2)
    chained = (
        ColumnarPlan(relation).window(spec1).select(predicate).window(spec2).to_rows()
    )
    assert_same_relation(expected, chained)


@settings(max_examples=60, deadline=None)
@given(
    relation=au_relations(attributes=("o", "v")),
    function=st.sampled_from(FUNCTIONS),
    k=st.integers(min_value=0, max_value=4),
    following=st.integers(min_value=0, max_value=2),
    descending=st.booleans(),
)
def test_sort_then_window_chained_plan_matches_python_per_stage(
    relation, function, k, following, descending
):
    """``topk -> window-over-the-position`` as one columnar chain.

    The sort stage's columnar output (position column appended columnar-side,
    per-duplicate split expanded in bulk) must be a drop-in input for a
    following-only window over the position attribute.
    """
    pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
    from repro.columnar.plan import ColumnarPlan
    from repro.core.expressions import attr
    from repro.core.operators import select as row_select
    from repro.ranking.native import sort_native

    spec = WindowSpec(
        function=function,
        attribute=None if function == "count" else "v",
        output="w",
        order_by=("pos",),
        frame=(0, following),
    )
    ranked = sort_native(relation, ["o"], k=k, descending=descending)
    expected = window_native(row_select(ranked, attr("pos").lt(k)), spec)
    chained = (
        ColumnarPlan(relation).topk(["o"], k, descending=descending).window(spec).to_rows()
    )
    assert_same_relation(expected, chained)
