"""Differential properties of the output-sensitive join kernels.

Three-way agreement (``grid == kernel == python``) over randomized inputs
for every member of the kernel family PR 8 added to
:mod:`repro.columnar.operators`:

* **multi-key searchsorted** — several ``on`` columns where *any* key has a
  certain side anchors the enumeration; the remaining keys refine pairwise;
* **range×range sweep** — both sides' keys are uncertain ``[lb, ub]``
  intervals, candidates are exactly the possibly-overlapping pairs;
* **band / theta** — key-less predicate joins whose AND-tree compares a
  left attribute against a (constant-shifted) right attribute.

Each class also pins the ``method="auto"`` dispatch
(:func:`~repro.columnar.operators.planned_join_kernel` must select the
non-grid kernel), the ``n == 0`` short-circuit, object-dtype keys degrading
to the grid, and bag multiplicities with ``ub > 1``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expressions import attr, const
from repro.core.operators import join
from repro.core.relation import AURelation
from repro.core.schema import Schema

from tests.property.strategies import (
    au_relations,
    multiplicities,
    object_au_relations,
    range_values,
)

pytest.importorskip("numpy", reason="the columnar backend requires NumPy")

SETTINGS = settings(max_examples=60, deadline=None)


def assert_same_relation(python_result, columnar_result) -> None:
    assert python_result.schema == columnar_result.schema
    assert python_result._rows == columnar_result._rows


def assert_bit_identical(reference, other) -> None:
    """Columnar-layout bit-identity: columns, components, multiplicities."""
    import numpy as np

    assert reference.schema == other.schema
    assert len(reference) == len(other)
    for ref_col, other_col in zip(reference.columns, other.columns):
        for component in ("lb", "sg", "ub"):
            assert np.array_equal(
                getattr(ref_col, component), getattr(other_col, component)
            )
    for component in ("mult_lb", "mult_sg", "mult_ub"):
        assert np.array_equal(getattr(reference, component), getattr(other, component))


@st.composite
def multi_key_relations(draw, *, attributes=("k", "o", "v"), certain_second=False):
    """Relations with two key columns; the second is certain when asked.

    The first key is always an uncertain range on some rows, so the
    searchsorted anchor must come from the *second* key — exactly the case
    the single-key kernel of PR 4 could not handle.
    """
    relation = AURelation(Schema(attributes))
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        first = draw(range_values(min_value=-4, max_value=4))
        second = (
            draw(st.integers(min_value=-2, max_value=2))
            if certain_second
            else draw(range_values(min_value=-2, max_value=2))
        )
        rest = [draw(range_values()) for _ in attributes[2:]]
        relation.add_values([first, second, *rest], draw(multiplicities(max_count=2)))
    return relation


@SETTINGS
@given(
    left=multi_key_relations(attributes=("k", "o", "a")),
    right=multi_key_relations(attributes=("k", "o", "b"), certain_second=True),
)
def test_multi_key_searchsorted_three_way_agreement(left, right):
    """Any-key anchor: grid == searchsorted == python on two ``on`` columns."""
    from repro.columnar import operators as col_ops
    from repro.columnar.relation import ColumnarAURelation

    columnar_left = ColumnarAURelation.from_relation(left)
    columnar_right = ColumnarAURelation.from_relation(right)
    for pair in ((columnar_left, columnar_right), (columnar_right, columnar_left)):
        assert col_ops.planned_join_kernel(*pair, on=["k", "o"]) == "searchsorted"
        grid = col_ops.join(*pair, on=["k", "o"], method="grid")
        fast = col_ops.join(*pair, on=["k", "o"], method="searchsorted")
        auto = col_ops.join(*pair, on=["k", "o"], method="auto")
        assert_bit_identical(grid, fast)
        assert_bit_identical(grid, auto)
        assert_same_relation(
            join(*[p.to_relation() for p in pair], on=["k", "o"]), fast.to_relation()
        )


@SETTINGS
@given(
    left=au_relations(attributes=("k", "a"), max_tuples=5, max_count=2),
    right=au_relations(attributes=("k", "b"), max_tuples=5, max_count=2),
)
def test_range_range_sweep_three_way_agreement(left, right):
    """Both-sides-uncertain keys: grid == sweep == python, grid never needed."""
    from repro.columnar import operators as col_ops
    from repro.columnar.relation import ColumnarAURelation

    columnar_left = ColumnarAURelation.from_relation(left)
    columnar_right = ColumnarAURelation.from_relation(right)
    assert col_ops.planned_join_kernel(columnar_left, columnar_right, on=["k"]) in (
        "searchsorted",  # hypothesis may generate an all-certain key column
        "sweep",
    )
    grid = col_ops.join(columnar_left, columnar_right, on=["k"], method="grid")
    sweep = col_ops.join(columnar_left, columnar_right, on=["k"], method="sweep")
    auto = col_ops.join(columnar_left, columnar_right, on=["k"], method="auto")
    assert_bit_identical(grid, sweep)
    assert_bit_identical(grid, auto)
    assert_same_relation(join(left, right, on=["k"]), sweep.to_relation())


BAND_PREDICATES = [
    attr("a").le(attr("b") + const(2)).and_(attr("a").ge(attr("b") - const(1))),
    attr("a").lt(attr("b")),
    (attr("a") + const(1)).le(attr("b") + const(3)),
    attr("a").eq(attr("b")),
]


@SETTINGS
@given(
    left=au_relations(attributes=("a",), max_tuples=5, max_count=2),
    right=au_relations(attributes=("b",), max_tuples=5, max_count=2),
    index=st.integers(min_value=0, max_value=len(BAND_PREDICATES) - 1),
)
def test_band_predicate_three_way_agreement(left, right, index):
    """Band/theta predicates: grid == band == python, auto picks the band."""
    from repro.columnar import operators as col_ops
    from repro.columnar.relation import ColumnarAURelation

    predicate = BAND_PREDICATES[index]
    columnar_left = ColumnarAURelation.from_relation(left)
    columnar_right = ColumnarAURelation.from_relation(right)
    assert col_ops.planned_join_kernel(columnar_left, columnar_right, predicate) == "band"
    grid = col_ops.join(columnar_left, columnar_right, predicate, method="grid")
    band = col_ops.join(columnar_left, columnar_right, predicate, method="band")
    auto = col_ops.join(columnar_left, columnar_right, predicate, method="auto")
    assert_bit_identical(grid, band)
    assert_bit_identical(grid, auto)
    assert_same_relation(join(left, right, predicate), band.to_relation())


@SETTINGS
@given(
    left=object_au_relations(
        attributes=("a", "k"), max_tuples=4, max_count=2, pool=["p", "q", "r", "s"]
    ),
    right=object_au_relations(
        attributes=("b", "k"), max_tuples=4, max_count=2, pool=["p", "q", "r", "s"]
    ),
)
def test_object_keys_fall_back_to_grid(left, right):
    """Object-dtype keys are never vectorizable: auto plans the grid, agrees."""
    from repro.columnar import operators as col_ops
    from repro.columnar.relation import ColumnarAURelation

    columnar_left = ColumnarAURelation.from_relation(left)
    columnar_right = ColumnarAURelation.from_relation(right)
    if len(left) and len(right):  # empty sides short-circuit before dispatch
        assert (
            col_ops.planned_join_kernel(columnar_left, columnar_right, on=["k"])
            == "grid"
        )
    auto = col_ops.join(columnar_left, columnar_right, on=["k"], method="auto")
    assert_same_relation(join(left, right, on=["k"]), auto.to_relation())


def test_empty_sides_every_kernel():
    """``n == 0`` on either side returns the empty result for every kernel."""
    from repro.columnar import operators as col_ops
    from repro.columnar.relation import ColumnarAURelation
    from repro.core.ranges import RangeValue

    filled = AURelation.from_rows(
        ["k", "a"], [((RangeValue(0, 1, 2), 3), (1, 1, 1)), ((2, 5), (0, 1, 2))]
    )
    empty = AURelation.from_rows(["k", "b"], [])
    columnar_filled = ColumnarAURelation.from_relation(filled)
    columnar_empty = ColumnarAURelation.from_relation(empty)
    for pair in ((columnar_filled, columnar_empty), (columnar_empty, columnar_filled)):
        for method in ("auto", "grid", "searchsorted", "sweep"):
            assert len(col_ops.join(*pair, on=["k"], method=method)) == 0
        for method in ("auto", "grid", "band"):
            predicate = attr(list(pair[0].schema)[1]).lt(attr(list(pair[1].schema)[1]))
            assert len(col_ops.join(*pair, predicate, method=method)) == 0


def test_fact_join_kernels_agree_with_eager():
    """The factorised sweep and band joins agree with the grid and with python.

    ``operators.join`` delegates to ``fact_join``, so only ``method="grid"``
    and the python join stay independent references here.
    """
    import random

    from repro.columnar import operators as col_ops
    from repro.columnar.factorised import FactorisedAURelation, fact_join
    from repro.columnar.relation import ColumnarAURelation
    from repro.core.ranges import RangeValue

    rng = random.Random(5)
    left = AURelation.from_rows(["k", "a"], [])
    right = AURelation.from_rows(["k", "b"], [])
    for i in range(24):
        v = rng.randint(0, 8)
        left.add_values(
            [RangeValue(v, v + 1, v + 2), i],
            (1, 1, 1) if rng.random() < 0.8 else (0, 1, 2),
        )
        w = rng.randint(0, 8)
        right.add_values([RangeValue(w, w, w + 2), i * 3], 1)
    columnar_left = ColumnarAURelation.from_relation(left)
    columnar_right = ColumnarAURelation.from_relation(right)
    fact_left = FactorisedAURelation.from_columnar(columnar_left)
    fact_right = FactorisedAURelation.from_columnar(columnar_right)

    grid_keyed = col_ops.join(columnar_left, columnar_right, on=["k"], method="grid")
    fact_sweep = fact_join(fact_left, fact_right, on=["k"], method="sweep")
    assert isinstance(fact_sweep, FactorisedAURelation)
    assert_same_relation(grid_keyed.to_relation(), fact_sweep.to_relation())
    assert_same_relation(join(left, right, on=["k"]), fact_sweep.to_relation())

    predicate = attr("a").lt(attr("b"))
    grid_band = col_ops.join(columnar_left, columnar_right, predicate, method="grid")
    fact_band = fact_join(fact_left, fact_right, predicate, method="band")
    assert isinstance(fact_band, FactorisedAURelation)
    assert_same_relation(grid_band.to_relation(), fact_band.to_relation())
    assert_same_relation(join(left, right, predicate), fact_band.to_relation())
