"""Differential properties: native / columnar sorting vs the definitional rewrite.

The rewrite implementation (:func:`repro.ranking.semantics.sort_rewrite`)
evaluates Equations 1-3 literally and is the specification; the native sweep
and the columnar kernels must reproduce its output *bit for bit* — same
hypercubes, same position triples, same multiplicity annotations — on
arbitrary AU-relations.  Top-k additionally pins that both backends prune
exactly the duplicates a position selection would filter to zero.

The native sweep and the columnar stage must also agree on *row order*:
chained plans feed it to the next stage's ``<ᵗᵒᵗᵃˡ_O`` sequence-number
tiebreakers.  The rewrite emits rows in another order, so it is compared on
content only.  The last properties draw relations large enough that the
columnar top-k prefilter keeps a strict, non-empty subset of the rows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy", reason="the columnar backend requires NumPy")

from repro.columnar.kernels import (
    certainly_precedes_counts,
    lex_rank_pairs,
    order_code_matrices,
    possibly_precedes_counts,
)
from repro.columnar.plan import ColumnarPlan
from repro.columnar.relation import ColumnarAURelation
from repro.columnar.sort import sort_stage
from repro.core.multiplicity import Multiplicity
from repro.core.operators import join
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.core.schema import Schema
from repro.errors import OperatorError
from repro.ranking.native import sort_native
from repro.ranking.semantics import sort_rewrite
from repro.ranking.topk import topk
from repro.relational.relation import Relation
from repro.relational.sort import sort_operator

from tests.property.strategies import au_relations


def assert_same_relation(left: AURelation, right: AURelation) -> None:
    """Bit-for-bit equality: same schema, same hypercube -> annotation map."""
    assert left.schema == right.schema
    assert left._rows == right._rows


def assert_same_rows_in_order(left: AURelation, right: AURelation) -> None:
    """:func:`assert_same_relation`, plus the same row order."""
    assert left.schema == right.schema
    assert list(left._rows.items()) == list(right._rows.items())


@settings(max_examples=120, deadline=None)
@given(relation=au_relations(), descending=st.booleans())
def test_sort_native_matches_rewrite(relation, descending):
    native = sort_native(relation, ["a"], descending=descending)
    rewrite = sort_rewrite(relation, ["a"], descending=descending)
    assert_same_relation(native, rewrite)


@settings(max_examples=120, deadline=None)
@given(relation=au_relations(), descending=st.booleans())
def test_sort_columnar_matches_rewrite(relation, descending):
    columnar = sort_native(relation, ["a"], descending=descending, backend="columnar")
    rewrite = sort_rewrite(relation, ["a"], descending=descending)
    assert_same_relation(columnar, rewrite)


@settings(max_examples=80, deadline=None)
@given(relation=au_relations(), descending=st.booleans())
def test_sort_multi_attribute_backends_agree(relation, descending):
    order_by = ["a", "b"]
    native = sort_native(relation, order_by, descending=descending)
    columnar = sort_native(relation, order_by, descending=descending, backend="columnar")
    rewrite = sort_rewrite(relation, order_by, descending=descending)
    assert_same_relation(native, rewrite)
    assert_same_rows_in_order(native, columnar)


@settings(max_examples=120, deadline=None)
@given(
    relation=au_relations(),
    k=st.integers(min_value=0, max_value=8),
    descending=st.booleans(),
)
def test_topk_backends_and_methods_agree(relation, k, descending):
    reference = topk(relation, ["a"], k, method="rewrite", descending=descending)
    native = topk(relation, ["a"], k, descending=descending)
    assert_same_relation(native, reference)
    for method in ("native", "rewrite"):
        result = topk(relation, ["a"], k, method=method, backend="columnar", descending=descending)
        assert_same_rows_in_order(native, result)


@settings(max_examples=80, deadline=None)
@given(
    relation=au_relations(),
    k=st.integers(min_value=0, max_value=8),
    descending=st.booleans(),
)
def test_pruned_sort_backends_agree(relation, k, descending):
    """With ``k`` given both backends keep exactly the duplicates with lb < k."""
    native = sort_native(relation, ["a"], k=k, descending=descending)
    columnar = sort_native(relation, ["a"], k=k, descending=descending, backend="columnar")
    assert_same_rows_in_order(native, columnar)
    full = sort_rewrite(relation, ["a"], descending=descending)
    pos_idx = full.schema.index_of("pos")
    expected = {
        values: mult for values, mult in full._rows.items() if values[pos_idx].lb < k
    }
    assert native._rows == expected


def certainly_precedes_matrix(earliest_rank, latest_rank):
    """Boolean matrix ``M[i, j]``: tuple ``i`` certainly precedes tuple ``j``."""
    return latest_rank[:, None] < earliest_rank[None, :]


def possibly_precedes_matrix(earliest_rank, latest_rank):
    """Boolean matrix ``M[i, j]``: tuple ``i`` possibly precedes tuple ``j``."""
    return earliest_rank[:, None] <= latest_rank[None, :]


@settings(max_examples=100, deadline=None)
@given(relation=au_relations(max_tuples=5))
def test_precede_kernels_match_pairwise_matrices(relation):
    """Prefix-sum kernels agree with the quadratic pairwise comparison matrices."""
    import numpy as np

    columnar = ColumnarAURelation.from_relation(relation)
    earliest, _sg, latest = order_code_matrices(columnar, ["a", "b"])
    earliest_rank, latest_rank = lex_rank_pairs(earliest, latest)

    certain_matrix = certainly_precedes_matrix(earliest_rank, latest_rank)
    possible_matrix = possibly_precedes_matrix(earliest_rank, latest_rank)
    lower = certainly_precedes_counts(earliest_rank, latest_rank, columnar.mult_lb)
    upper = possibly_precedes_counts(earliest_rank, latest_rank, columnar.mult_ub)

    assert np.array_equal(lower, columnar.mult_lb @ certain_matrix)
    assert np.array_equal(upper, columnar.mult_ub @ possible_matrix)


def test_empty_input_agrees_across_implementations():
    """n = 0 edge case: sort and top-k on an empty relation, every path."""
    from repro.core.schema import Schema

    empty = AURelation(Schema(("a", "b")))
    rewrite = sort_rewrite(empty, ["a"])
    assert len(rewrite) == 0
    assert_same_relation(rewrite, sort_native(empty, ["a"]))
    assert_same_relation(rewrite, sort_native(empty, ["a"], backend="columnar"))
    for backend in ("python", "columnar"):
        assert len(topk(empty, ["a"], 3, backend=backend)) == 0


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.tuples(
                st.integers(min_value=-5, max_value=5),
                st.one_of(st.none(), st.integers(min_value=-3, max_value=3)),
            ),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=10,
    ),
    descending=st.booleans(),
    order_by=st.sampled_from([["a"], ["b"], ["b", "a"]]),
)
def test_deterministic_sort_backends_agree(rows, descending, order_by):
    relation = Relation(["a", "b"], rows)
    python = sort_operator(relation, order_by, descending=descending)
    columnar = sort_operator(relation, order_by, descending=descending, backend="columnar")
    assert python.schema == columnar.schema
    assert python._rows == columnar._rows


# ---------------------------------------------------------------------------
# Top-k prefilter: relations large enough to prune
# ---------------------------------------------------------------------------

NAN = float("nan")

#: Object pool for the first order-by column: ``None`` sorts first, and the
#: zero-padded strings order like their numbers.
OBJECT_POOL = (None,) + tuple(f"s{i:03d}" for i in range(100))

#: Range widths, weighted so most rows are points or narrow ranges and a few
#: are wide: the prefilter then keeps a strict, non-empty subset.
WIDTHS = (0,) * 6 + (3,) * 3 + (60,)

#: NaN inside otherwise ordinary float ranges: a selected guess, or a lower
#: bound with its selected guess.
NAN_RANGES = (
    lambda lo, hi: RangeValue(lo, NAN, hi + 1.0),
    lambda lo, hi: RangeValue(NAN, NAN, hi),
)

#: The second order-by column: small points and unit ranges, so it breaks
#: some ties of the first.
SECOND_VALUES = tuple(RangeValue(i, i, i + w) for i in range(6) for w in (0, 0, 1))

BAG_MULTIPLICITIES = tuple(
    Multiplicity(*triple)
    for triple in ((1, 1, 1),) * 6 + ((0, 0, 1), (0, 1, 1), (1, 1, 2), (0, 1, 3), (2, 2, 2))
)


@st.composite
def first_column_values(draw, kind: str, nan_range) -> RangeValue:
    """A point, narrow or wide range of the ``int``, ``float`` or ``object`` kind.

    The ``nan`` kind is ``float`` with ``nan_range`` in about one row in five.
    """
    lo = draw(st.integers(0, 99))
    width = draw(st.sampled_from(WIDTHS))
    hi = min(99, lo + draw(st.integers(0, width))) if width else lo
    mid = draw(st.integers(lo, hi)) if hi > lo else lo
    if kind == "int":
        return RangeValue(lo, mid, hi)
    if kind == "object":
        return RangeValue(OBJECT_POOL[lo], OBJECT_POOL[mid], OBJECT_POOL[hi])
    if kind == "nan" and draw(st.integers(0, 4)) == 0:
        return nan_range(float(lo), float(hi))
    return RangeValue(float(lo), float(mid), float(hi))


@st.composite
def pruning_relations(draw, *, kinds=("int", "float", "object", "nan")):
    """``(relation, holds_nan)``: 20-150 rows over ``(a, b, c)``, bags included.

    ``a`` is the first order-by column, ``b`` the second when there is one,
    and ``c`` a certain integer that doubles as a join key.  A relation
    holds one NaN shape, so that no shape hides another's effect.
    """
    kind = draw(st.sampled_from(kinds))
    nan_range = draw(st.sampled_from(NAN_RANGES))
    relation = AURelation(Schema(("a", "b", "c")))
    for _ in range(draw(st.integers(20, 150))):
        relation.add_values(
            [
                draw(first_column_values(kind, nan_range)),
                draw(st.sampled_from(SECOND_VALUES)),
                draw(st.integers(0, 3)),
            ],
            draw(st.sampled_from(BAG_MULTIPLICITIES)),
        )
    holds_nan = any(
        component != component
        for tup, _mult in relation
        for component in (tup.value("a").lb, tup.value("a").sg, tup.value("a").ub)
    )
    return relation, holds_nan


def stage_rows(relation: ColumnarAURelation) -> list[str]:
    """A stage result's rows in order, read off its arrays (no :class:`RangeValue`)."""
    columns = [zip(c.lb.tolist(), c.sg.tolist(), c.ub.tolist()) for c in relation.columns]
    mults = zip(relation.mult_lb.tolist(), relation.mult_sg.tolist(), relation.mult_ub.tolist())
    return [repr(row) for row in zip(*columns, mults)]


@settings(max_examples=150, deadline=None)
@given(
    drawn=pruning_relations(),
    order_by=st.sampled_from([["a"], ["a", "b"]]),
    k=st.integers(0, 40),
    descending=st.booleans(),
)
def test_topk_prefilter_matches_the_full_stage(drawn, order_by, k, descending):
    """``sort_stage(k=…)`` is the full stage filtered to ``pos.lb < k``, in order.

    It is also the native sweep's top-k, row for row.  A NaN bound in ``a``
    raises the same :class:`OperatorError` from all three.
    """
    import numpy as np

    relation, holds_nan = drawn
    columnar = ColumnarAURelation.from_relation(relation)
    if holds_nan:
        errors = []
        for run in (
            lambda: sort_stage(columnar, order_by, k=k, descending=descending),
            lambda: sort_stage(columnar, order_by, descending=descending),
            lambda: sort_native(relation, order_by, k=k, descending=descending),
        ):
            with pytest.raises(OperatorError, match="NaN") as caught:
                run()
            errors.append(str(caught.value))
        assert errors == [errors[0]] * 3
        assert "'a'" in errors[0]
        return
    pruned = sort_stage(columnar, order_by, k=k, descending=descending)
    full = sort_stage(columnar, order_by, descending=descending)
    assert pruned.schema == full.schema
    kept = np.flatnonzero(full.column("pos").lb < k)
    assert stage_rows(pruned) == stage_rows(full.take(kept))
    native = sort_native(relation, order_by, k=k, descending=descending)
    assert_same_rows_in_order(native, pruned.to_relation())


@settings(max_examples=60, deadline=None)
@given(
    drawn=pruning_relations(kinds=("int", "float", "object")),
    order_by=st.sampled_from([["a"], ["a", "b"]]),
    k=st.integers(0, 40),
    descending=st.booleans(),
)
def test_joined_topk_plan_matches_python(drawn, order_by, k, descending):
    """A join → top-k plan (the slim path, ``strict_tiebreak``) equals python."""
    left, _holds_nan = drawn
    right = AURelation.from_rows(
        ["c", "d"], [((key, tag), 1) for key in range(4) for tag in range(key % 3)]
    )
    plan = ColumnarPlan(left).join(ColumnarPlan(right), on=["c"])
    assert not plan.factorised().is_flat
    result = plan.topk(order_by, k, descending=descending).to_rows()
    expected = topk(join(left, right, on=["c"]), order_by, k, descending=descending)
    assert_same_rows_in_order(expected, result)
