"""Unit tests for the factorised AU-relation layer.

Structural checks the differential property suites cannot express: the
flat / paired layout after each pushdown operator, the pair-row allocation counter, error
parity with the eager kernels, and the plan-level guarantee that a
``select -> join -> select -> window`` chain never expands mid-chain.
"""

import pytest

pytest.importorskip("numpy", reason="the columnar backend requires NumPy")

import numpy as np

from repro.columnar import factorised as fx
from repro.columnar import operators as col_ops
from repro.columnar.factorised import (
    FactorisedAURelation,
    as_factorised,
    pair_rows_materialised,
    reset_pair_rows,
)
from repro.columnar.plan import ColumnarPlan
from repro.columnar.relation import ColumnarAURelation
from repro.columnar.sort import sort_stage
from repro.columnar.window import window_stage
from repro.core.expressions import attr, const
from repro.core.operators import cross, join, select
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.errors import OperatorError, SchemaError, WindowSpecError
from repro.window.spec import WindowSpec


def left_table():
    """Certain integer keys, uncertain payload — qualifies for searchsorted."""
    return AURelation.from_rows(
        ["k", "a"],
        [
            ((0, 10), (1, 1, 1)),
            ((1, RangeValue(1, 2, 5)), (0, 1, 2)),
            ((1, 30), (1, 1, 2)),
            ((2, RangeValue(-3, 0, 0)), (1, 2, 2)),
        ],
    )


def right_table():
    return AURelation.from_rows(
        ["k", "b"],
        [
            ((1, 7), (1, 1, 1)),
            ((1, RangeValue(0, 4, 4)), (1, 1, 3)),
            ((2, -2), (0, 0, 1)),
            ((5, 9), (1, 1, 1)),
        ],
    )


def factorise(relation):
    return as_factorised(ColumnarAURelation.from_relation(relation))


def assert_same(expected: AURelation, actual: AURelation) -> None:
    assert expected.schema == actual.schema
    assert expected._rows == actual._rows


class TestRepresentation:
    def test_wrap_and_expand_roundtrip(self):
        fact = factorise(left_table())
        assert fact.is_flat
        assert len(fact.fragments) == 1
        assert len(fact) == 4
        assert_same(left_table(), fact.to_relation())

    def test_as_factorised_is_idempotent(self):
        fact = factorise(left_table())
        assert as_factorised(fact) is fact

    def test_expand_of_simple_group_is_zero_copy(self):
        columnar = ColumnarAURelation.from_relation(left_table())
        fact = FactorisedAURelation.from_columnar(columnar)
        assert fact.expand() is columnar

    def test_pair_rows_counter_resets_and_accumulates(self):
        reset_pair_rows()
        assert pair_rows_materialised() == 0
        fact = fx.fact_join(factorise(left_table()), factorise(right_table()), on=["k"])
        assert isinstance(fact, FactorisedAURelation)
        after_join = pair_rows_materialised()
        assert after_join > 0
        fact.expand()
        assert pair_rows_materialised() > after_join


class TestJoinLayout:
    def test_join_keeps_pair_index_layout(self):
        fact = fx.fact_join(factorise(left_table()), factorise(right_table()), on=["k"])
        assert isinstance(fact, FactorisedAURelation)
        assert not fact.is_flat
        # Both sides' fragments survive unexpanded behind int64 pair indices.
        assert len(fact.fragments) == 2
        assert all(index.dtype == np.int64 for index in fact.indices)
        assert_same(
            join(left_table(), right_table(), on=["k"]), fact.to_relation()
        )

    def test_join_uncertain_keys_stays_factorised_via_sweep(self):
        """Neither side certain on the key: the range×range sweep keeps pairs."""
        uncertain_left = AURelation.from_rows(
            ["k", "a"], [((RangeValue(0, 1, 2), 10), (1, 1, 1))]
        )
        uncertain_right = AURelation.from_rows(
            ["k", "b"], [((RangeValue(1, 1, 3), 7), (1, 1, 1))]
        )
        result = fx.fact_join(
            factorise(uncertain_left), factorise(uncertain_right), on=["k"]
        )
        assert isinstance(result, FactorisedAURelation)
        assert_same(
            join(uncertain_left, uncertain_right, on=["k"]), result.to_relation()
        )

    def test_join_object_keys_fall_back_to_columnar(self):
        """Non-vectorizable (object-dtype) keys: automatic expand-and-join."""
        obj_left = AURelation.from_rows(["k", "a"], [(("x", 10), (1, 1, 1))])
        obj_right = AURelation.from_rows(["k", "b"], [(("x", 7), (1, 1, 1))])
        result = fx.fact_join(factorise(obj_left), factorise(obj_right), on=["k"])
        assert isinstance(result, ColumnarAURelation)
        assert_same(join(obj_left, obj_right, on=["k"]), result.to_relation())

    def test_plan_cross_is_the_eager_product(self):
        plan = ColumnarPlan(left_table()).cross(right_table())
        assert plan.factorised().is_flat
        assert_same(cross(left_table(), right_table()), plan.to_rows())


class TestPushdown:
    def test_select_on_simple_group_filters_the_fragment(self):
        fact = fx.fact_select(factorise(left_table()), attr("a").ge(const(5)))
        assert isinstance(fact, FactorisedAURelation)
        assert fact.is_flat
        assert len(fact.fragments[0]) < len(left_table())
        assert_same(select(left_table(), attr("a").ge(const(5))), fact.to_relation())

    def test_select_after_join_keeps_pair_layout(self):
        joined = fx.fact_join(
            factorise(left_table()), factorise(right_table()), on=["k"]
        )
        fact = fx.fact_select(joined, attr("b").ge(const(0)))
        assert isinstance(fact, FactorisedAURelation)
        assert not fact.is_flat
        eager = select(
            join(left_table(), right_table(), on=["k"]), attr("b").ge(const(0))
        )
        assert_same(eager, fact.to_relation())

    def test_project_gathers_only_kept_columns(self):
        joined = fx.fact_join(
            factorise(left_table()), factorise(right_table()), on=["k"]
        )
        reset_pair_rows()
        projected = fx.fact_project(joined, ["a", "b"])
        # Two kept columns (three arrays each) plus the multiplicity triple:
        # the dropped key columns never materialise at pair length.
        assert pair_rows_materialised() <= 9 * len(joined)
        assert isinstance(projected, ColumnarAURelation)

    def test_sort_and_window_reattach_untouched_fragments(self):
        joined = fx.fact_join(
            factorise(left_table()), factorise(right_table()), on=["k"]
        )
        expanded = joined.expand()
        sorted_fact = fx.fact_sort(joined, ["a"])
        assert isinstance(sorted_fact, FactorisedAURelation)
        assert_same(
            sort_stage(expanded, ["a"]).to_relation(), sorted_fact.to_relation()
        )
        spec = WindowSpec(
            function="sum", attribute="b", output="w", order_by=("a",), frame=(-1, 0)
        )
        windowed = fx.fact_window(joined, spec)
        assert_same(
            window_stage(expanded, spec).to_relation(), windowed.to_relation()
        )


class TestErrorParity:
    def test_join_requires_predicate_or_on(self):
        fact = factorise(left_table())
        with pytest.raises(OperatorError, match="predicate or an `on`"):
            fx.fact_join(fact, factorise(right_table()))
        with pytest.raises(OperatorError, match="predicate or an `on`"):
            col_ops.join(
                ColumnarAURelation.from_relation(left_table()),
                ColumnarAURelation.from_relation(right_table()),
            )

    def test_join_rejects_unknown_method(self):
        with pytest.raises(OperatorError, match="unknown join method"):
            fx.fact_join(
                factorise(left_table()),
                factorise(right_table()),
                on=["k"],
                method="hash",
            )

    def test_searchsorted_requires_on(self):
        with pytest.raises(OperatorError, match="requires an `on`"):
            fx.fact_join(
                factorise(left_table()),
                factorise(right_table()),
                attr("a").lt(attr("b")),
                method="searchsorted",
            )

    def test_sort_requires_order_by(self):
        with pytest.raises(OperatorError, match="at least one order-by"):
            fx.fact_sort(factorise(left_table()), [])

    def test_narrow_rejects_unknown_attribute(self):
        flat = ColumnarPlan(left_table())
        paired = flat.join(ColumnarPlan(right_table()), on=["k"])
        for plan in (flat, paired):
            with pytest.raises(SchemaError, match="'zz'"):
                plan.narrow(["zz"])

    def test_window_rejects_output_collision(self):
        spec = WindowSpec(
            function="sum", attribute="a", output="a", order_by=("a",), frame=(-1, 0)
        )
        with pytest.raises(WindowSpecError, match="already exists"):
            fx.fact_window(factorise(left_table()), spec)


class TestPlanIntegration:
    def chain(self, plan, right):
        return (
            plan.select(attr("a").ge(const(0)))
            .join(right, on=["k"])
            .select(attr("b").ge(const(0)))
        )

    def test_factorised_accessor_and_no_midchain_expansion(self):
        left = ColumnarAURelation.from_relation(left_table())
        right = ColumnarAURelation.from_relation(right_table())
        plan = self.chain(ColumnarPlan(left), right)
        fact = plan.factorised()
        assert isinstance(fact, FactorisedAURelation)
        assert not fact.is_flat  # still pairs, not an expanded table

    def test_chain_matches_python_backend(self):
        spec = WindowSpec(
            function="sum", attribute="b", output="w", order_by=("a",), frame=(-1, 0)
        )
        from repro.window.native import window_native

        python_result = window_native(
            select(
                join(
                    select(left_table(), attr("a").ge(const(0))),
                    right_table(),
                    on=["k"],
                ),
                attr("b").ge(const(0)),
            ),
            spec,
        )
        right = ColumnarAURelation.from_relation(right_table())
        plan = self.chain(
            ColumnarPlan(ColumnarAURelation.from_relation(left_table())), right
        ).window(spec)
        assert_same(python_result, plan.to_rows())

    def test_stage_guard_names_factorised_layout(self):
        from repro.columnar.plan import _STAGE_NAMES

        assert "factorised" in _STAGE_NAMES
