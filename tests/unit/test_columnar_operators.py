"""Unit tests for the columnar RA⁺ kernels and the plan-composition helper."""

import pytest

pytest.importorskip("numpy", reason="the columnar backend requires NumPy")

from repro.columnar.operators import select as col_select
from repro.columnar.plan import ColumnarPlan
from repro.columnar.relation import ColumnarAURelation
from repro.core.booleans import RangeBool
from repro.core.expressions import attr, const
from repro.core.multiplicity import Multiplicity
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
from repro.errors import ExpressionError, OperatorError, SchemaError
from repro.window.spec import WindowSpec


def people():
    return AURelation.from_rows(
        ["name", "age"],
        [
            (("ann", 30), (1, 1, 1)),
            (("bob", RangeValue(20, 25, 40)), (0, 1, 2)),
            (("cyd", RangeValue(10, 15, 20)), (1, 2, 2)),
        ],
    )


def assert_same(left: AURelation, right: AURelation) -> None:
    assert left.schema == right.schema
    assert left._rows == right._rows


class TestBackendDispatch:
    def test_unknown_backend_raises(self):
        relation = people()
        with pytest.raises(OperatorError, match="unknown operator backend"):
            select(relation, attr("age").lt(30), backend="vectorised")
        with pytest.raises(OperatorError, match="unknown operator backend"):
            project(relation, ["age"], backend="")

    def test_columnar_backend_accepts_either_layout(self):
        relation = people()
        columnar = ColumnarAURelation.from_relation(relation)
        predicate = attr("age").ge(const(25))
        assert_same(
            select(relation, predicate, backend="columnar"),
            select(columnar, predicate, backend="columnar"),
        )

    def test_callable_predicates_take_the_scalar_fallback(self):
        relation = people()

        def young(tup) -> RangeBool:
            return tup.value("age").lt(RangeValue.certain(26))

        assert_same(select(relation, young), select(relation, young, backend="columnar"))

    def test_select_rejects_scalar_expression_shaped_like_python_backend(self):
        relation = people()
        # A bare attribute is not a predicate; both backends filter on
        # component truthiness (Multiplicity.filter reads .lb/.sg/.ub).
        assert_same(
            select(relation, attr("age")), select(relation, attr("age"), backend="columnar")
        )


class TestColumnarKernels:
    def test_select_filters_multiplicity_components(self):
        columnar = ColumnarAURelation.from_relation(people())
        result = col_select(columnar, attr("age").le(const(25)))
        assert isinstance(result, ColumnarAURelation)
        rows = result.to_relation()
        bob = next(tup for tup, _m in rows if tup.value("name").sg == "bob")
        # bob's age range [20/25/40] is possibly and sg-true but not certain.
        assert rows.multiplicity(bob).lb == 0
        assert rows.multiplicity(bob).sg == 1

    def test_project_merges_equal_hypercubes(self):
        relation = AURelation.from_rows(
            ["a", "b"], [((1, 1), (1, 1, 1)), ((1, 2), (0, 1, 2)), ((2, 3), 1)]
        )
        assert_same(project(relation, ["a"]), project(relation, ["a"], backend="columnar"))
        merged = project(relation, ["a"], backend="columnar")
        assert len(merged) == 2

    def test_project_to_empty_schema_merges_everything(self):
        relation = people()
        assert_same(project(relation, []), project(relation, [], backend="columnar"))

    def test_extend_rejects_existing_attribute(self):
        relation = people()
        with pytest.raises(SchemaError):
            extend(relation, "age", attr("age") + const(1), backend="columnar")

    def test_extend_rejects_predicate_expressions(self):
        with pytest.raises(ExpressionError):
            extend(people(), "x", attr("age").lt(30), backend="columnar")

    def test_union_requires_identical_schemas(self):
        with pytest.raises(SchemaError):
            union(people(), AURelation.from_rows(["x"], []), backend="columnar")

    def test_distinct_caps_triples(self):
        relation = AURelation.from_rows(["a"], [((1,), (2, 3, 4)), ((2,), (0, 0, 2))])
        assert_same(distinct(relation), distinct(relation, backend="columnar"))

    def test_join_requires_condition(self):
        with pytest.raises(OperatorError):
            join(people(), people(), backend="columnar")

    def test_join_on_missing_attribute_raises(self):
        with pytest.raises(SchemaError):
            join(people(), people(), on=["salary"], backend="columnar")

    def test_cross_disambiguates_without_capturing(self):
        left = AURelation.from_rows(["a"], [((1,), 1)])
        right = AURelation.from_rows(["a", "a_r"], [((2, 3), 1)])
        result = cross(left, right, backend="columnar")
        assert result.schema.attributes == ("a", "a_r_r", "a_r")
        assert_same(cross(left, right), result)

    def test_huge_integers_stay_exact_via_the_scalar_fallback(self):
        """Components beyond float64's exact range must not round anywhere."""
        big = 2**60
        relation = AURelation.from_rows(
            ["a", "b"],
            [((big, 1.5), 1), ((RangeValue(-big, 0, big), 2.0), (0, 1, 1))],
        )
        expression = attr("a") * const(3)
        assert_same(
            extend(relation, "x", expression),
            extend(relation, "x", expression, backend="columnar"),
        )
        predicate = attr("a").gt(attr("b"))
        assert_same(
            select(relation, predicate), select(relation, predicate, backend="columnar")
        )
        assert_same(
            join(relation, relation, on=["a"]),
            join(relation, relation, on=["a"], backend="columnar"),
        )

    def test_nan_rows_never_merge(self):
        """NaN equals nothing (itself included), so NaN rows stay distinct.

        Bit-for-bit dict comparison is impossible for NaN hypercubes (their
        hashes are identity-based), so this checks the structural agreement:
        both backends keep the same row count and annotation totals.
        """
        nan = float("nan")
        relation = AURelation(people().schema.project(["age"]).rename({"age": "v"}))
        relation.add_values([RangeValue(nan, nan, nan)], 1)
        relation.add_values([1.0], 2)
        python_result = project(relation, ["v"])
        columnar_result = project(relation, ["v"], backend="columnar")
        assert python_result.schema == columnar_result.schema
        assert len(python_result) == len(columnar_result) == 2
        assert python_result.total_possible == columnar_result.total_possible == 3


class TestColumnarPlan:
    def test_stages_stay_columnar_until_the_boundary(self):
        plan = ColumnarPlan(people()).select(attr("age").ge(const(20))).project(["age"])
        assert isinstance(plan.columnar(), ColumnarAURelation)
        result = plan.to_rows()
        assert isinstance(result, AURelation)
        assert_same(project(select(people(), attr("age").ge(const(20))), ["age"]), result)

    def test_full_chain_matches_python_operator_chain(self):
        orders = AURelation.from_rows(
            ["o", "g", "v"],
            [
                ((1, 0, 10), (1, 1, 1)),
                ((RangeValue(2, 2, 3), RangeValue(0, 0, 1), 20), (0, 1, 1)),
                ((3, 1, 30), (1, 1, 2)),
                ((4, 2, 40), (1, 1, 1)),
            ],
        )
        dims = AURelation.from_rows(["g", "w"], [((0, 5), 1), ((1, 7), 1)])
        spec = WindowSpec(
            function="sum", attribute="v", output="s", order_by=("o",), frame=(-1, 0)
        )
        predicate = attr("v").ge(const(15))

        from repro.window.native import window_native

        expected = window_native(
            project(join(select(orders, predicate), dims, on=["g"]), ["o", "v"]), spec
        )
        result = (
            ColumnarPlan(orders)
            .select(predicate)
            .join(ColumnarPlan(dims), on=["g"])
            .project(["o", "v"])
            .window(spec)
            .to_rows()
        )
        assert_same(expected, result)

    def test_plan_sort_and_topk_stay_columnar(self):
        from repro.ranking.topk import sort as au_sort, topk as au_topk

        relation = people()
        plan = ColumnarPlan(relation)
        sorted_plan = plan.sort(["age"])
        assert isinstance(sorted_plan, ColumnarPlan)
        assert isinstance(sorted_plan.columnar(), ColumnarAURelation)
        assert_same(au_sort(relation, ["age"], method="native"), sorted_plan.to_rows())
        assert_same(
            au_topk(relation, ["age"], 2, method="native"), plan.topk(["age"], 2).to_rows()
        )

    def test_plan_continues_past_sort_and_window(self):
        """Sort / window output feeds further stages without leaving columnar."""
        from repro.core.operators import select as row_select
        from repro.ranking.topk import sort as au_sort
        from repro.window.native import window_native

        relation = people()
        spec = WindowSpec(
            function="sum", attribute="age", output="s", order_by=("age",), frame=(-1, 0)
        )
        expected = window_native(
            row_select(au_sort(relation, ["age"], method="native"), attr("pos").lt(2)),
            spec,
        )
        result = (
            ColumnarPlan(relation)
            .sort(["age"])
            .select(attr("pos").lt(2))
            .window(spec)
            .to_rows()
        )
        assert_same(expected, result)

    def test_chained_plan_never_materialises_rows_mid_plan(self, monkeypatch):
        """Sort / window / topk stages must not touch the row-major layout.

        Spies on both conversion directions; a chained plan over a
        pre-converted columnar input may convert exactly once — at the
        explicit ``.to_rows()`` boundary.
        """
        relation = AURelation.from_rows(
            ["o", "v"],
            [
                ((1, 10), (1, 1, 1)),
                ((RangeValue(2, 2, 4), 20), (0, 1, 2)),
                ((3, RangeValue(5, 6, 9)), (1, 1, 1)),
            ],
        )
        columnar = ColumnarAURelation.from_relation(relation)
        calls = {"to_relation": 0, "from_relation": 0}
        original_to = ColumnarAURelation.to_relation
        original_from = ColumnarAURelation.from_relation

        def spy_to(self):
            calls["to_relation"] += 1
            return original_to(self)

        def spy_from(rows):
            calls["from_relation"] += 1
            return original_from(rows)

        monkeypatch.setattr(ColumnarAURelation, "to_relation", spy_to)
        monkeypatch.setattr(ColumnarAURelation, "from_relation", staticmethod(spy_from))

        spec = WindowSpec(
            function="sum", attribute="v", output="w", order_by=("o",), frame=(-1, 0)
        )
        second = WindowSpec(
            function="max", attribute="w", output="w2", order_by=("pos",), frame=(-2, 0)
        )
        plan = (
            ColumnarPlan(columnar)
            .select(attr("v").ge(const(5)))
            .window(spec)
            .topk(["o"], 3)
            .window(second)
            .groupby_aggregate(["o"], [("sum", "w2", "s")])
        )
        assert calls == {"to_relation": 0, "from_relation": 0}
        plan.to_rows()
        assert calls == {"to_relation": 1, "from_relation": 0}

    def test_stage_after_to_rows_raises_plan_error(self):
        from repro.errors import PlanError

        rows = ColumnarPlan(people()).select(attr("age").ge(const(20))).to_rows()
        assert isinstance(rows, AURelation)
        with pytest.raises(PlanError, match="after .to_rows"):
            rows.window(None)
        with pytest.raises(PlanError, match="wrap the result in ColumnarPlan"):
            rows.select(attr("age").ge(const(20)))
        with pytest.raises(PlanError, match="to_rows"):
            rows.to_rows()
        # Wrapping the boundary result explicitly re-opens the chain.
        reopened = ColumnarPlan(rows).project(["age"]).to_rows()
        assert reopened.schema.attributes == ("age",)

    @pytest.mark.parametrize("bad", [5, None, "t", [1, 2]])
    def test_non_relation_input_raises_plan_error(self, bad):
        from repro.errors import PlanError

        with pytest.raises(PlanError, match="a plan starts from an AURelation"):
            ColumnarPlan(bad)
        with pytest.raises(PlanError, match="a plan starts from an AURelation"):
            ColumnarPlan(people()).union(bad)

    def test_plan_topk_rejects_negative_k(self):
        with pytest.raises(OperatorError, match="non-negative"):
            ColumnarPlan(people()).topk(["age"], -1)

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "2", None])
    def test_eager_and_deferred_topk_reject_non_integer_k(self, bad):
        from repro.columnar.plan import PlanSpec

        with pytest.raises(OperatorError, match="non-negative int"):
            ColumnarPlan(people()).topk(["age"], bad)
        with pytest.raises(OperatorError, match="non-negative int"):
            PlanSpec().topk(["age"], bad)

    @pytest.mark.parametrize("workers", [2, 0, None, True, 1.0])
    def test_workers_other_than_one_raise_plan_error(self, workers):
        from repro.errors import PlanError
        from repro.serving import QueryServer
        from repro.sql import compile_sql

        relation = people()
        with pytest.raises(PlanError, match="parallel executor was removed"):
            ColumnarPlan(relation, workers=workers)
        with pytest.raises(PlanError, match="parallel executor was removed"):
            compile_sql("SELECT name AS name FROM t", {"t": relation}, workers=workers)
        with pytest.raises(PlanError, match="parallel executor was removed"):
            QueryServer(relation, workers=workers)
        # The serial value stays accepted at all three entry points.
        assert_same(relation, ColumnarPlan(relation, workers=1).to_rows())
        compile_sql("SELECT name AS name FROM t", {"t": relation}, workers=1)
        QueryServer(relation, workers=1)

    def test_union_cross_accept_plans_and_relations(self):
        relation = people()
        by_plan = ColumnarPlan(relation).union(ColumnarPlan(relation)).to_rows()
        by_relation = ColumnarPlan(relation).union(relation).to_rows()
        assert_same(by_plan, by_relation)
        assert_same(union(relation, relation), by_plan)
        assert_same(
            cross(relation, relation), ColumnarPlan(relation).cross(relation).to_rows()
        )

    def test_rename_and_extend_stages(self):
        relation = people()
        result = (
            ColumnarPlan(relation)
            .extend("age2", attr("age") * const(2))
            .rename({"age2": "double_age"})
            .to_rows()
        )
        from repro.core.operators import rename as row_rename

        expected = row_rename(
            extend(relation, "age2", attr("age") * const(2)), {"age2": "double_age"}
        )
        assert_same(expected, result)


class TestColumnarGroupby:
    def sales(self):
        return AURelation.from_rows(
            ["g", "v"],
            [
                ((0, 10), (1, 1, 1)),
                ((RangeValue(0, 1, 1), 20), (0, 1, 2)),
                ((1, RangeValue(2, 5, 9)), (1, 2, 2)),
            ],
        )

    def test_groupby_backend_dispatch_agrees(self):
        aggregates = [("count", "*", "n"), ("sum", "v", "s"), ("avg", "v", "m")]
        assert_same(
            groupby_aggregate(self.sales(), ["g"], aggregates),
            groupby_aggregate(self.sales(), ["g"], aggregates, backend="columnar"),
        )

    def test_groupby_kernel_returns_columnar(self):
        from repro.columnar.operators import groupby_aggregate as col_groupby

        columnar = ColumnarAURelation.from_relation(self.sales())
        result = col_groupby(columnar, ["g"], [("count", "*", "n")])
        assert isinstance(result, ColumnarAURelation)
        assert result.schema.attributes == ("g", "n")

    def test_uncertain_membership_widens_group_hull(self):
        """A row whose key straddles both groups contributes possibly to each."""
        result = groupby_aggregate(
            self.sales(), ["g"], [("count", "*", "n")], backend="columnar"
        )
        rows = {tup.value("g").sg: tup.value("n") for tup, _m in result}
        assert rows[0] == RangeValue(1, 1, 3)  # straddler adds up to 2 copies
        assert rows[1] == RangeValue(1, 3, 4)

    def test_global_aggregate_over_empty_relation(self):
        empty = AURelation.from_rows(["v"], [])
        for backend in ("python", "columnar"):
            result = groupby_aggregate(
                empty, [], [("count", "*", "n"), ("min", "v", "lo")], backend=backend
            )
            (tup, mult), = list(result)
            assert tup.value("n") == RangeValue(0, 0, 0)
            assert tup.value("lo") == RangeValue(None, None, None)
            assert mult.ub == 1 and mult.lb == 0

    def test_empty_relation_with_group_by_is_empty(self):
        empty = AURelation.from_rows(["g", "v"], [])
        for backend in ("python", "columnar"):
            assert groupby_aggregate(
                empty, ["g"], [("sum", "v", "s")], backend=backend
            ).is_empty()

    def test_string_group_keys(self):
        relation = AURelation.from_rows(
            ["g", "v"], [(("x", 1), 1), (("y", 2), (0, 1, 1)), (("x", 3), (1, 2, 2))]
        )
        aggregates = [("count", "*", "n"), ("sum", "v", "s")]
        assert_same(
            groupby_aggregate(relation, ["g"], aggregates),
            groupby_aggregate(relation, ["g"], aggregates, backend="columnar"),
        )

    def test_bool_int_keys_share_groups(self):
        """`True` and `1` are the same group key on both backends."""
        relation = AURelation.from_rows(
            ["g", "v"], [((True, 1), 1), ((1, 2), 1), ((0, 3), 1)]
        )
        for backend in ("python", "columnar"):
            assert len(groupby_aggregate(relation, ["g"], [("count", "*", "n")], backend=backend)) == 2
        assert_same(
            groupby_aggregate(relation, ["g"], [("count", "*", "n")]),
            groupby_aggregate(relation, ["g"], [("count", "*", "n")], backend="columnar"),
        )

    def test_huge_integer_values_take_the_scalar_fallback(self):
        big = 2**60
        relation = AURelation.from_rows(
            ["g", "v"], [((0, big), (1, 1, 2)), ((0, RangeValue(-big, 0, big)), (0, 1, 1))]
        )
        aggregates = [("sum", "v", "s"), ("min", "v", "lo"), ("max", "v", "hi")]
        assert_same(
            groupby_aggregate(relation, ["g"], aggregates),
            groupby_aggregate(relation, ["g"], aggregates, backend="columnar"),
        )

    def test_unsupported_aggregate_raises_on_both_backends(self):
        for backend in ("python", "columnar"):
            with pytest.raises(OperatorError, match="unsupported aggregate"):
                groupby_aggregate(self.sales(), ["g"], [("median", "v", "m")], backend=backend)
            with pytest.raises(OperatorError, match="requires an attribute"):
                groupby_aggregate(self.sales(), ["g"], [("sum", "*", "s")], backend=backend)

    def test_plan_groupby_stage_stays_columnar(self):
        plan = ColumnarPlan(self.sales()).groupby_aggregate(
            ["g"], [("sum", "v", "s"), ("count", "*", "n")]
        )
        assert isinstance(plan.columnar(), ColumnarAURelation)
        assert_same(
            groupby_aggregate(self.sales(), ["g"], [("sum", "v", "s"), ("count", "*", "n")]),
            plan.to_rows(),
        )

    def test_plan_select_join_groupby_window_chain(self):
        """The acceptance chain: no row-major conversion before the window stage."""
        from repro.core.operators import select as row_select, join as row_join
        from repro.window.native import window_native

        orders = AURelation.from_rows(
            ["o", "g", "v"],
            [
                ((1, 0, 10), (1, 1, 1)),
                ((RangeValue(2, 2, 3), RangeValue(0, 0, 1), 20), (0, 1, 1)),
                ((3, 1, 30), (1, 1, 2)),
                ((4, 2, 40), (1, 1, 1)),
            ],
        )
        dims = AURelation.from_rows(["g", "w"], [((0, 5), 1), ((1, 7), 1)])
        predicate = attr("v").ge(const(15))
        spec = WindowSpec(
            function="sum", attribute="s", output="rolling", order_by=("g",), frame=(-1, 0)
        )
        aggregates = [("sum", "v", "s")]

        expected = window_native(
            groupby_aggregate(row_join(row_select(orders, predicate), dims, on=["g"]), ["g"], aggregates),
            spec,
        )
        result = (
            ColumnarPlan(orders)
            .select(predicate)
            .join(ColumnarPlan(dims), on=["g"])
            .groupby_aggregate(["g"], aggregates)
            .window(spec)
            .to_rows()
        )
        assert_same(expected, result)


class TestSearchsortedEquiJoin:
    def orders(self):
        return AURelation.from_rows(
            ["k", "a"],
            [
                ((1, 10), (1, 1, 1)),
                ((RangeValue(1, 2, 3), 11), (0, 1, 2)),
                ((5, 12), (1, 1, 1)),
            ],
        )

    def dims(self):
        return AURelation.from_rows(
            ["k", "b"], [((2, 100), 1), ((1, 200), (1, 2, 2)), ((3, 300), 1)]
        )

    def test_methods_are_bit_identical(self):
        from repro.columnar import operators as col_ops

        left = ColumnarAURelation.from_relation(self.orders())
        right = ColumnarAURelation.from_relation(self.dims())
        grid = col_ops.join(left, right, on=["k"], method="grid")
        fast = col_ops.join(left, right, on=["k"], method="searchsorted")
        import numpy as np

        assert grid.schema == fast.schema
        for grid_col, fast_col in zip(grid.columns, fast.columns):
            for component in ("lb", "sg", "ub"):
                assert np.array_equal(getattr(grid_col, component), getattr(fast_col, component))
        for component in ("mult_lb", "mult_sg", "mult_ub"):
            assert np.array_equal(getattr(grid, component), getattr(fast, component))

    def test_searchsorted_requires_a_certain_side(self):
        from repro.columnar import operators as col_ops

        uncertain = AURelation.from_rows(
            ["k", "a"], [((RangeValue(0, 1, 2), 1), 1)]
        )
        left = ColumnarAURelation.from_relation(uncertain)
        with pytest.raises(OperatorError, match="searchsorted equi-join requires"):
            col_ops.join(left, left, on=["k"], method="searchsorted")

    def test_searchsorted_rejects_object_keys(self):
        from repro.columnar import operators as col_ops

        strings = ColumnarAURelation.from_relation(
            AURelation.from_rows(["k"], [(("x",), 1), (("y",), 1)])
        )
        with pytest.raises(OperatorError, match="searchsorted equi-join requires"):
            col_ops.join(strings, strings, on=["k"], method="searchsorted")
        # auto silently falls back to the grid and still agrees with python.
        auto = col_ops.join(strings, strings, on=["k"]).to_relation()
        assert_same(join(strings.to_relation(), strings.to_relation(), on=["k"]), auto)

    def test_searchsorted_requires_on(self):
        from repro.columnar import operators as col_ops

        left = ColumnarAURelation.from_relation(self.orders())
        with pytest.raises(OperatorError, match="requires an `on`"):
            col_ops.join(left, left, attr("a").lt(attr("a_r")), method="searchsorted")

    def test_unknown_method_raises(self):
        from repro.columnar import operators as col_ops

        left = ColumnarAURelation.from_relation(self.orders())
        with pytest.raises(OperatorError, match="unknown join method"):
            col_ops.join(left, left, on=["k"], method="hash")

    def test_multi_key_join_filters_remaining_keys(self):
        left = AURelation.from_rows(
            ["k", "h", "a"],
            [((1, 1, 10), 1), ((1, RangeValue(1, 2, 3), 11), 1), ((2, 1, 12), 1)],
        )
        right = AURelation.from_rows(
            ["k", "h", "b"], [((1, 1, 100), 1), ((1, 2, 200), 1), ((2, 9, 300), 1)]
        )
        from repro.columnar import operators as col_ops

        columnar_left = ColumnarAURelation.from_relation(left)
        columnar_right = ColumnarAURelation.from_relation(right)
        fast = col_ops.join(columnar_left, columnar_right, on=["k", "h"], method="searchsorted")
        assert_same(join(left, right, on=["k", "h"]), fast.to_relation())

    def test_empty_sides_qualify(self):
        from repro.columnar import operators as col_ops

        empty = ColumnarAURelation.from_relation(AURelation.from_rows(["k", "a"], []))
        right = ColumnarAURelation.from_relation(self.dims())
        result = col_ops.join(empty, right, on=["k"], method="searchsorted")
        assert len(result) == 0
        assert result.schema.attributes == ("k", "a", "k_r", "b")

    def test_interval_point_match_pairs_kernel(self):
        import numpy as np

        from repro.columnar.kernels import interval_point_match_pairs

        lb = np.array([0, 5, 2], dtype=np.int64)
        ub = np.array([3, 5, 2], dtype=np.int64)
        points = np.array([2, 0, 5, 9], dtype=np.int64)
        intervals, matched = interval_point_match_pairs(lb, ub, points)
        pairs = sorted(zip(intervals.tolist(), matched.tolist()))
        assert pairs == [(0, 0), (0, 1), (1, 2), (2, 0)]


class TestDistinctSemantics:
    def test_disjoint_certain_tuples_keep_certainty(self):
        relation = AURelation.from_rows(["a"], [((1,), (2, 3, 4)), ((7,), (1, 1, 1))])
        for backend in ("python", "columnar"):
            result = distinct(relation, backend=backend)
            assert [m for _t, m in result] == [Multiplicity(1, 1, 1), Multiplicity(1, 1, 1)]

    def test_overlapping_tuples_lose_certainty_but_not_possibility(self):
        relation = AURelation.from_rows(
            ["a"], [((RangeValue(0, 0, 2),), (1, 1, 3)), ((1,), (1, 1, 1))]
        )
        for backend in ("python", "columnar"):
            result = distinct(relation, backend=backend)
            mults = list(result._rows.values())
            # The range tuple's 3 duplicates may hold 3 distinct values.
            assert mults[0] == Multiplicity(0, 1, 3)
            assert mults[1] == Multiplicity(0, 1, 1)

    def test_sg_world_deduplicates_to_first_producer(self):
        relation = AURelation.from_rows(
            ["a"], [((RangeValue(0, 1, 2),), (0, 1, 1)), ((1,), (1, 1, 1))]
        )
        for backend in ("python", "columnar"):
            result = distinct(relation, backend=backend)
            mults = list(result._rows.values())
            assert [m.sg for m in mults] == [1, 0]

    def test_zeroed_multiplicity_rows_do_not_block_certainty(self):
        """Regression: a (0,0,0) row built via with_multiplicities is the
        semiring zero — it must neither survive distinct nor strip an
        overlapping neighbour's certain copy (the row-major layout cannot
        hold it, so the Python reference never sees it)."""
        import numpy as np

        base = AURelation.from_rows(
            ["a"], [((5,), (1, 1, 1)), ((RangeValue(4, 5, 6),), (1, 1, 1))]
        )
        columnar = ColumnarAURelation.from_relation(base)
        zeroed = columnar.with_multiplicities(
            np.array([1, 0], dtype=np.int64),
            np.array([1, 0], dtype=np.int64),
            np.array([1, 0], dtype=np.int64),
        )
        from repro.columnar.operators import distinct as col_distinct
        from repro.columnar.operators import groupby_aggregate as col_groupby

        result = col_distinct(zeroed).to_relation()
        assert_same(distinct(zeroed.to_relation()), result)
        assert list(result._rows.values()) == [Multiplicity(1, 1, 1)]
        grouped = col_groupby(zeroed, [], [("count", "*", "n")]).to_relation()
        assert_same(groupby_aggregate(zeroed.to_relation(), [], [("count", "*", "n")]), grouped)

    def test_integer_sum_selected_guess_stays_integral(self):
        """Regression: clamping must not float-promote an unclamped int sg."""
        relation = AURelation.from_rows(["g", "v"], [((1, 10), 1), ((1, 5), 1)])
        py = next(iter(groupby_aggregate(relation, ["g"], [("sum", "v", "s")])))[0]
        col = next(
            iter(groupby_aggregate(relation, ["g"], [("sum", "v", "s")], backend="columnar"))
        )[0]
        assert repr(py.value("s")) == repr(col.value("s"))
