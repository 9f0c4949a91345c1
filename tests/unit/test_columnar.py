"""Unit tests for the columnar backend (repro.columnar)."""

import pytest

np = pytest.importorskip("numpy", reason="the columnar backend requires NumPy")

from repro.columnar.kernels import (
    dense_rank_codes,
    lex_rank_pairs,
    order_code_matrices,
    sort_position_bounds_ranked,
)
from repro.columnar.relation import ColumnarAURelation, as_columnar, column_array
from repro.columnar.sort import sort_columnar
from repro.core.multiplicity import Multiplicity
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.errors import OperatorError
from repro.ranking.positions import position_bounds
from repro.ranking.semantics import sort_rewrite
from repro.workloads.examples import sales_audb


def emission_schedule(earliest_rank, latest_rank):
    """Batched heap feeding: the close index of every tuple's uncertainty window.

    The native sweep feeds tuples into a min-heap in earliest-key order and
    emits a tuple once an incoming tuple certainly follows it.  Vectorized,
    tuple ``i`` closes after exactly ``count(j : earliest[j] <= latest[i])``
    tuples of the earliest-ordered stream have been fed — which is also the
    prefix of that stream contributing to ``i``'s position upper bound.
    """
    order = np.argsort(earliest_rank, kind="stable")
    return np.searchsorted(earliest_rank[order], latest_rank, side="right")


def certain_frame_members(defining_lb, defining_ub, pos_lb, pos_ub, certain, preceding):
    """Mask ``M[d, e]``: duplicate ``e`` is certainly in ``d``'s frame.

    The quadratic reference for :class:`~repro.columnar.kernels.FrameMemberIndex`.
    A certain duplicate is certainly inside an ``N PRECEDING AND CURRENT
    ROW`` window when its position interval is contained in the positions the
    window certainly covers — it starts no earlier than the latest possible
    window start and ends no later than the earliest possible window end
    (the containment condition of Fig. 6).  The self pair is not masked out.
    """
    low = (defining_ub - preceding)[:, None]
    return (
        certain[None, :]
        & (pos_lb[None, :] >= low)
        & (pos_ub[None, :] <= defining_lb[:, None])
    )


def possible_frame_members(defining_lb, defining_ub, pos_lb, pos_ub, preceding):
    """Mask ``M[d, e]``: duplicate ``e`` possibly falls into ``d``'s frame.

    The quadratic reference for :class:`~repro.columnar.kernels.FrameMemberIndex`:
    the overlap condition of Fig. 6, where the candidate's position interval
    intersects the positions the window possibly covers.  Certain members
    also satisfy it.
    """
    return (pos_lb[None, :] <= defining_ub[:, None]) & (
        pos_ub[None, :] >= (defining_lb[:, None] - preceding)
    )


def mixed_relation() -> AURelation:
    """A relation exercising every column dtype path: int, float, str, None, bool."""
    return AURelation.from_rows(
        ["i", "f", "s", "n", "flag"],
        [
            ((1, 1.5, "x", None, True), (1, 1, 1)),
            ((RangeValue(0, 2, 5), RangeValue(0.25, 0.5, 0.75), RangeValue("a", "b", "c"), 3, False), (0, 1, 2)),
            ((-7, 2.0, "", RangeValue(None, None, 4), True), (2, 2, 3)),
        ],
    )


def without_objects(columnar: ColumnarAURelation) -> ColumnarAURelation:
    """Drop every column's carried range values: rows rebuild from the arrays."""
    for column in columnar.columns:
        column.objects = None
    return columnar


class TestColumnArray:
    def test_int_columns_use_int64(self):
        assert column_array([1, 2, 3]).dtype == np.int64

    def test_float_columns_use_float64(self):
        assert column_array([1.0, 2.5]).dtype == np.float64

    def test_mixed_and_string_columns_fall_back_to_object(self):
        for values in ([1, 2.5], ["a", "b"], [None, 1], [True, False], []):
            assert column_array(values).dtype == object

    def test_huge_ints_fall_back_to_object(self):
        arr = column_array([2**70, 1])
        assert arr.dtype == object
        assert arr[0] == 2**70


class TestConversionRoundTrip:
    def test_round_trip_is_lossless(self):
        relation = mixed_relation()
        columnar = ColumnarAURelation.from_relation(relation)
        back = columnar.to_relation()
        assert back.schema == relation.schema
        assert back._rows == relation._rows

    def test_round_trip_preserves_scalar_types(self):
        relation = mixed_relation()
        back = ColumnarAURelation.from_relation(relation).to_relation()
        for (values, _), (expected, _) in zip(back, relation):
            for got, want in zip(values.values, expected.values):
                assert type(got.lb) is type(want.lb)
                assert type(got.ub) is type(want.ub)

    def test_round_trip_without_value_cache(self):
        columnar = without_objects(ColumnarAURelation.from_relation(mixed_relation()))
        assert columnar.to_relation()._rows == mixed_relation()._rows

    def test_empty_relation(self):
        columnar = ColumnarAURelation.from_relation(AURelation.from_rows(["a"], []))
        assert len(columnar) == 0
        assert columnar.to_relation().is_empty()
        assert columnar.total_possible == columnar.total_certain == columnar.total_sg == 0

    def test_totals_match_row_major(self):
        relation = mixed_relation()
        columnar = ColumnarAURelation.from_relation(relation)
        assert columnar.total_possible == relation.total_possible
        assert columnar.total_certain == relation.total_certain
        assert columnar.total_sg == relation.total_sg

    def test_as_columnar_passthrough(self):
        columnar = ColumnarAURelation.from_relation(mixed_relation())
        assert as_columnar(columnar) is columnar


class TestKernels:
    def test_dense_rank_codes_order_none_first(self):
        codes = dense_rank_codes([3, None, 1, 3], "a")
        assert codes.tolist() == [2, 0, 1, 2]

    def test_dense_rank_codes_mixed_numeric(self):
        codes = dense_rank_codes([1, 0.5, 2], "a")
        assert codes.tolist() == [1, 0, 2]

    def test_dense_rank_codes_incomparable_raises(self):
        with pytest.raises(OperatorError, match="'a'"):
            dense_rank_codes([1, "x"], "a")

    def test_sort_position_bounds_match_definitional(self):
        relation = sales_audb()
        columnar = ColumnarAURelation.from_relation(relation)
        lower, sg, upper, _latest_rank = sort_position_bounds_ranked(columnar, ["sales"])
        for i, (tup, _mult) in enumerate(relation):
            expected = position_bounds(relation, ["sales"], tup)
            assert (int(lower[i]), int(sg[i]), int(upper[i])) == (
                expected.lb,
                expected.sg,
                expected.ub,
            )

    def test_emission_schedule_counts_possible_predecessors(self):
        relation = AURelation.from_rows(
            ["a"],
            [((RangeValue(0, 1, 5),), 1), ((2,), 1), ((7,), 1)],
        )
        columnar = ColumnarAURelation.from_relation(relation)
        earliest, _sg, latest = order_code_matrices(columnar, ["a"])
        earliest_rank, latest_rank = lex_rank_pairs(earliest, latest)
        # [0..5] may be preceded by itself and 2; 2 by itself and [0..5];
        # 7 by everything.
        assert emission_schedule(earliest_rank, latest_rank).tolist() == [2, 2, 3]

    def test_expand_ranges_concatenates_aranges(self):
        import numpy as np

        from repro.columnar.kernels import expand_ranges

        starts = np.array([0, 3, 5], dtype=np.int64)
        stops = np.array([2, 3, 8], dtype=np.int64)
        assert expand_ranges(starts, stops).tolist() == [0, 1, 5, 6, 7]
        assert expand_ranges(starts[:0], stops[:0]).tolist() == []

    def test_frame_member_index_matches_mask_kernels(self):
        """The searchsorted pair sweep agrees with the reference mask kernels.

        ``certain_frame_members`` / ``possible_frame_members`` (above) are the
        quadratic reference implementation; the position-sorted
        :class:`FrameMemberIndex` must reproduce their member sets pair for
        pair on randomized position intervals.
        """
        import random

        from repro.columnar.kernels import FrameMemberIndex

        rng = random.Random(0)
        for trial in range(25):
            m = rng.randint(0, 12)
            preceding = rng.randint(0, 3)
            pos_lb = np.array([rng.randint(0, 10) for _ in range(m)], dtype=np.int64)
            pos_ub = pos_lb + np.array(
                [rng.randint(0, 4) for _ in range(m)], dtype=np.int64
            )
            certain = np.array([rng.random() < 0.5 for _ in range(m)], dtype=bool)

            index = FrameMemberIndex(pos_lb, pos_ub, preceding)
            assert index.pair_counts(pos_lb, pos_ub).tolist() == (
                possible_frame_members(pos_lb, pos_ub, pos_lb, pos_ub, preceding)
                .sum(axis=1)
                .tolist()
            )
            query, member = index.member_pairs(pos_lb, pos_ub)
            got_possible = set(zip(query.tolist(), member.tolist()))
            expected_mask = possible_frame_members(pos_lb, pos_ub, pos_lb, pos_ub, preceding)
            expected_possible = set(zip(*np.nonzero(expected_mask))) if m else set()
            assert got_possible == {(int(a), int(b)) for a, b in expected_possible}

            cert_flags = (
                certain[member]
                & (pos_lb[member] >= pos_ub[query] - preceding)
                & (pos_ub[member] <= pos_lb[query])
            )
            got_certain = set(
                zip(query[cert_flags].tolist(), member[cert_flags].tolist())
            )
            cert_mask = certain_frame_members(
                pos_lb, pos_ub, pos_lb, pos_ub, certain, preceding
            )
            expected_certain = set(zip(*np.nonzero(cert_mask))) if m else set()
            assert got_certain == {(int(a), int(b)) for a, b in expected_certain}


class TestSortColumnar:
    def test_matches_rewrite_on_running_example(self):
        relation = sales_audb()
        for descending in (False, True):
            columnar_result = sort_columnar(relation, ["sales"], descending=descending)
            rewrite = sort_rewrite(relation, ["sales"], descending=descending)
            assert columnar_result.schema == rewrite.schema
            assert columnar_result._rows == rewrite._rows

    def test_accepts_preconverted_columnar_input(self):
        relation = sales_audb()
        columnar = ColumnarAURelation.from_relation(relation)
        assert sort_columnar(columnar, ["sales"])._rows == sort_columnar(relation, ["sales"])._rows

    def test_requires_order_by(self):
        with pytest.raises(OperatorError):
            sort_columnar(sales_audb(), [])

    def test_unknown_attribute_rejected(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            sort_columnar(sales_audb(), ["nope"])

    def test_k_prunes_certainly_outside_duplicates(self):
        relation = sales_audb()
        full = sort_columnar(relation, ["sales"])
        pos_idx = full.schema.index_of("pos")
        for k in (0, 1, 2, 10):
            pruned = sort_columnar(relation, ["sales"], k=k)
            expected = {
                values: mult for values, mult in full._rows.items() if values[pos_idx].lb < k
            }
            assert pruned._rows == expected

    def test_mixed_type_order_column_raises_clear_error(self):
        relation = AURelation.from_rows(["a"], [((1,), 1), (("x",), 1)])
        with pytest.raises(OperatorError, match="mixes incomparable"):
            sort_columnar(relation, ["a"])

    def test_mixed_dtype_components_keep_integer_precision(self):
        """int64 + float64 component columns must not pool via float upcast.

        2**53 + 1 is not representable in float64; a pooled float code space
        would collapse it onto 2**53 and lose a 'certainly precedes' edge.
        """
        big = 2**53
        relation = AURelation.from_rows(
            ["a"],
            [
                ((RangeValue(1, 1, float(big)),), 1),
                ((RangeValue(big + 1, big + 1, float(big + 2)),), 1),
            ],
        )
        columnar_result = sort_columnar(relation, ["a"])
        rewrite = sort_rewrite(relation, ["a"])
        assert columnar_result._rows == rewrite._rows

    def test_none_in_order_column_sorts_first(self):
        relation = AURelation.from_rows(["a"], [((3,), 1), ((None,), 1)])
        result = sort_columnar(relation, ["a"])
        by_value = {values[0]: values[1] for values in result._rows}
        assert by_value[RangeValue.certain(None)] == RangeValue.certain(0)
        assert by_value[RangeValue.certain(3)] == RangeValue.certain(1)


class TestTake:
    def test_take_selects_rows_losslessly(self):
        relation = mixed_relation()
        columnar = ColumnarAURelation.from_relation(relation)
        subset = columnar.take([2, 0])
        assert len(subset) == 2
        rows = list(subset)
        full = list(columnar)
        assert rows[0] == full[2]
        assert rows[1] == full[0]

    def test_take_without_value_cache(self):
        columnar = without_objects(ColumnarAURelation.from_relation(mixed_relation()))
        subset = columnar.take(np.array([1]))
        assert subset.to_relation()._rows == columnar.take([1]).to_relation()._rows


class TestWindowColumnar:
    def spec(self, **overrides):
        from repro.window.spec import WindowSpec

        kwargs = dict(
            function="sum", attribute="v", output="w", order_by=("o",), frame=(-1, 0)
        )
        kwargs.update(overrides)
        return WindowSpec(**kwargs)

    def test_empty_relation(self):
        from repro.columnar.window import window_columnar
        from repro.core.schema import Schema

        result = window_columnar(AURelation(Schema(("o", "v"))), self.spec())
        assert result.is_empty()
        assert list(result.schema) == ["o", "v", "w"]

    def test_output_attribute_clash_rejected(self):
        from repro.columnar.window import window_columnar
        from repro.errors import WindowSpecError

        relation = AURelation.from_rows(["o", "v"], [((1, 2), 1)])
        with pytest.raises(WindowSpecError):
            window_columnar(relation, self.spec(output="v"))

    def test_non_numeric_aggregate_column_falls_back(self):
        from repro.columnar.window import window_columnar
        from repro.window.semantics import window_rewrite

        relation = AURelation.from_rows(
            ["o", "v"], [((1, "x"), 1), ((RangeValue(1, 2, 3), "y"), 1)]
        )
        spec = self.spec(function="min")
        assert window_columnar(relation, spec)._rows == window_rewrite(relation, spec)._rows

    def test_nan_relations_follow_the_native_backend(self):
        """NaN breaks the total order; native and rewrite genuinely disagree.

        The columnar backend is the implementation ``backend="columnar"``
        substitutes for — and the chained-plan reference runs the native
        sweep per stage — so its NaN fallback must return the *native*
        answer (this input is one where the rewrite's differs).
        """
        from repro.columnar.window import window_columnar
        from repro.window.native import window_native
        from repro.window.semantics import window_rewrite

        nan = float("nan")
        relation = AURelation.from_rows(
            ["o", "v"],
            [
                ((1, RangeValue(-3.0, -3.0, nan)), 1),
                ((2, RangeValue(0.0, 1.0, 2.0)), 1),
                ((RangeValue(1, 3, 3), RangeValue(-1.0, 0.0, 1.0)), (0, 1, 1)),
            ],
        )
        spec = self.spec()
        native = window_native(relation, spec)
        columnar = window_columnar(relation, spec)
        assert columnar.schema == native.schema

        def canon(result):
            # NaN != NaN, so ``_rows`` equality cannot compare NaN-carrying
            # outputs (not even against themselves); compare canonical reprs.
            return sorted((repr(tup.values), repr(mult)) for tup, mult in result)

        assert canon(columnar) == canon(native)
        # The divergence is real: the rewrite disagrees on this input, so
        # the assertion above genuinely pins which backend the fallback owns.
        assert canon(window_rewrite(relation, spec)) != canon(native)

    def test_uncertain_partitions_fall_back_to_rewrite(self):
        from repro.columnar.window import window_columnar
        from repro.window.semantics import window_rewrite

        relation = AURelation.from_rows(
            ["o", "v", "g"], [((1, 2, RangeValue(0, 0, 1)), 1), ((2, 3, 0), 1)]
        )
        spec = self.spec(partition_by=("g",))
        assert window_columnar(relation, spec)._rows == window_rewrite(relation, spec)._rows

    def test_huge_integer_sums_stay_exact(self):
        """Integers beyond float64's exact range delegate to the rewrite."""
        from repro.columnar.window import window_columnar
        from repro.window.native import window_native

        relation = AURelation.from_rows(
            ["o", "v"],
            [((RangeValue(1, 1, 2), 2**60), 1), ((2, 2**60 + 1), 1), ((3, 5), 1)],
        )
        spec = self.spec()
        assert window_columnar(relation, spec)._rows == window_native(relation, spec)._rows

    def test_float_selected_guess_with_integer_bounds_not_truncated(self):
        """A float sg between int lb/ub must survive the integer round-trip cast."""
        from repro.columnar.window import window_columnar
        from repro.window.native import window_native

        relation = AURelation.from_rows(
            ["o", "v"], [((1, RangeValue(-6, -3.71, 5)), 1), ((2, 4), 1)]
        )
        spec = self.spec(function="min", frame=(-2, 0))
        assert window_columnar(relation, spec)._rows == window_native(relation, spec)._rows

    def test_count_over_string_column_stays_vectorized(self):
        """count(attr) never reads the values, so string columns must not delegate."""
        from repro.relational.relation import Relation
        from repro.relational.window import window_aggregate

        relation = Relation(["a", "v"], [((1, "x"), 1), ((2, "y"), 2)])
        kwargs = dict(function="count", attribute="v", output="w", order_by=["a"], frame=(-1, 0))
        python = window_aggregate(relation, **kwargs)
        columnar = window_aggregate(relation, backend="columnar", **kwargs)
        assert python._rows == columnar._rows

    def test_mixed_float_bounds_with_huge_integer_ubs_stay_exact(self):
        """A float lower bound paired with a huge int upper bound also delegates."""
        from repro.columnar.window import window_columnar
        from repro.window.native import window_native

        relation = AURelation.from_rows(
            ["o", "v"],
            [((1, RangeValue(0.5, 1.0, 2**60 + 1)), 1), ((2, RangeValue(2.5, 3.0, 7)), 1)],
        )
        spec = self.spec()
        assert window_columnar(relation, spec)._rows == window_native(relation, spec)._rows

    def test_mixed_int_float_extrema_match_python_backend(self):
        """Deterministic min/max on mixed columns with ints beyond 2**53 delegate."""
        from repro.relational.relation import Relation
        from repro.relational.window import window_aggregate

        relation = Relation(["a", "v"], [((1, 2**60 + 1), 1), ((2, 0.5), 1)])
        for function in ("min", "max"):
            kwargs = dict(
                function=function, attribute="v", output="w", order_by=["a"], frame=(-1, 0)
            )
            python = window_aggregate(relation, **kwargs)
            columnar = window_aggregate(relation, backend="columnar", **kwargs)
            assert python._rows == columnar._rows

    def test_float_sum_columns_delegate_to_rewrite(self):
        """Float sums are order-sensitive: the columnar path must match the rewrite."""
        from repro.columnar.window import window_columnar
        from repro.window.semantics import window_rewrite

        relation = AURelation.from_rows(
            ["o", "v"],
            [
                ((1, 0.1), 1),
                ((RangeValue(1, 2, 3), 0.2), (0, 1, 1)),
                ((3, 0.3), 1),
                ((4, 0.4), 1),
            ],
        )
        spec = self.spec(frame=(-2, 0))
        assert window_columnar(relation, spec)._rows == window_rewrite(relation, spec)._rows

    def test_nan_values_delegate_to_rewrite(self):
        """NaN aggregation values route min/max to the definitional path."""
        from repro.columnar.window import window_columnar
        from repro.window.semantics import window_rewrite

        relation = AURelation.from_rows(
            ["o", "v"], [((1, 1.0), 1), ((2, float("nan")), 1), ((3, 5.0), 1)]
        )
        spec = self.spec(function="min", frame=(-2, 0))
        left = window_columnar(relation, spec)
        right = window_rewrite(relation, spec)
        assert {repr(t.values) for t, _m in left} == {repr(t.values) for t, _m in right}

    def test_composite_partition_keys_group_correctly(self):
        """Multi-column partition keys group by tuple equality (no radix encoding)."""
        from repro.relational.relation import Relation
        from repro.relational.window import window_aggregate

        relation = Relation(
            ["a", "g1", "g2", "v"],
            [((1, 0, 1, 5), 1), ((2, 1, 0, 7), 1), ((3, 0, 1, 11), 1)],
        )
        kwargs = dict(
            function="sum",
            attribute="v",
            output="w",
            order_by=["a"],
            partition_by=["g1", "g2"],
            frame=(-1, 0),
        )
        python = window_aggregate(relation, **kwargs)
        columnar = window_aggregate(relation, backend="columnar", **kwargs)
        assert python._rows == columnar._rows

    def test_nan_order_keys_match_python_backend(self):
        """NaN in an order/tiebreaker column delegates (rank codes vs timsort)."""
        from repro.relational.relation import Relation
        from repro.relational.window import window_aggregate

        relation = Relation(
            ["a", "v"], [((0, True), 1), ((0, -1.47), 1), ((0, float("nan")), 1)]
        )
        kwargs = dict(function="count", attribute=None, output="w", order_by=["a"], frame=(-2, 0))
        python = window_aggregate(relation, **kwargs)
        columnar = window_aggregate(relation, backend="columnar", **kwargs)
        assert {repr(r) for r in python._rows} == {repr(r) for r in columnar._rows}

    def test_heap_factory_rejected_on_columnar_backend(self):
        from repro.window.native import window_native
        from repro.window.spec import WindowSpec

        relation = AURelation.from_rows(["o", "v"], [((1, 2), 1)])
        spec = WindowSpec("sum", "v", "w", order_by=("o",), frame=(-1, 0))
        with pytest.raises(OperatorError):
            window_native(relation, spec, heap_factory=object, backend="columnar")

    def test_nan_extrema_match_python_backend(self):
        """NaN values delegate min/max to the Python path (np.min propagates NaN)."""
        from repro.relational.relation import Relation
        from repro.relational.window import window_aggregate

        relation = Relation(["a", "v"], [((1, 1.0), 1), ((2, float("nan")), 1)])
        kwargs = dict(function="min", attribute="v", output="w", order_by=["a"], frame=(-1, 0))
        python = window_aggregate(relation, **kwargs)
        columnar = window_aggregate(relation, backend="columnar", **kwargs)
        assert python._rows == columnar._rows

    def test_mixed_type_partition_keys_group_like_python_backend(self):
        """Partition keys only need equality; unorderable mixes must still group."""
        from repro.relational.relation import Relation
        from repro.relational.window import window_aggregate

        relation = Relation(["a", "g", "v"], [((1, "x", 1), 1), ((2, 3, 2), 1)])
        kwargs = dict(
            function="sum",
            attribute="v",
            output="w",
            order_by=["a"],
            partition_by=["g"],
            frame=(-1, 0),
        )
        python = window_aggregate(relation, **kwargs)
        columnar = window_aggregate(relation, backend="columnar", **kwargs)
        assert python._rows == columnar._rows

    def test_big_integer_avgs_avoid_double_rounding(self):
        """avg sums beyond 2**53 delegate: np rounds the sum before dividing."""
        from repro.relational.relation import Relation
        from repro.relational.window import window_aggregate

        v = 3002399751580331  # three of these sum to 2**53 + 1
        relation = Relation(["a", "v"], [((i, v), 1) for i in range(3)])
        kwargs = dict(function="avg", attribute="v", output="w", order_by=["a"], frame=(-2, 0))
        python = window_aggregate(relation, **kwargs)
        columnar = window_aggregate(relation, backend="columnar", **kwargs)
        assert python._rows == columnar._rows

    def test_huge_pure_integer_extrema_stay_exact_and_vectorized(self):
        """Pure-int min/max reduce in int64, exact beyond 2**53."""
        from repro.relational.relation import Relation
        from repro.relational.window import window_aggregate

        relation = Relation(["a", "v"], [((1, 2**60 + 1), 1), ((2, 2**60), 1)])
        for function in ("min", "max"):
            kwargs = dict(
                function=function, attribute="v", output="w", order_by=["a"], frame=(-1, 0)
            )
            python = window_aggregate(relation, **kwargs)
            columnar = window_aggregate(relation, backend="columnar", **kwargs)
            assert python._rows == columnar._rows

    def test_float_sums_match_python_backend_deterministically(self):
        """Float aggregation columns delegate sums to the exact Python path."""
        from repro.relational.relation import Relation
        from repro.relational.window import window_aggregate

        relation = Relation(["a", "v"], [((1, 0.1), 1), ((2, 0.2), 1), ((3, 0.3), 1)])
        for function in ("sum", "avg"):
            kwargs = dict(
                function=function, attribute="v", output="w", order_by=["a"], frame=(-1, 0)
            )
            python = window_aggregate(relation, **kwargs)
            columnar = window_aggregate(relation, backend="columnar", **kwargs)
            assert python._rows == columnar._rows

    def test_duplicate_offsets_empty_input(self):
        from repro.columnar.kernels import duplicate_offsets

        row, offset = duplicate_offsets(np.array([], dtype=np.int64))
        assert len(row) == 0 and len(offset) == 0

    def test_huge_preceding_extent_stays_bounded(self):
        """Frames far larger than the relation must not allocate frame-sized pads."""
        from repro.columnar.window import window_columnar
        from repro.relational.relation import Relation
        from repro.relational.window import window_aggregate
        from repro.window.native import window_native

        relation = AURelation.from_rows(
            ["o", "v"], [((1, 5), 1), ((RangeValue(1, 2, 3), 7), (0, 1, 1)), ((4, 2), 1)]
        )
        spec = self.spec(function="min", frame=(-(10**9), 0))
        assert window_columnar(relation, spec)._rows == window_native(relation, spec)._rows

        det = Relation(["a", "v"], [((1, 5), 1), ((2, 7), 1)])
        kwargs = dict(
            function="min", attribute="v", output="w", order_by=["a"], frame=(-(10**9), 0)
        )
        python = window_aggregate(det, **kwargs)
        columnar = window_aggregate(det, backend="columnar", **kwargs)
        assert python._rows == columnar._rows

    def test_string_order_column_sweeps(self):
        from repro.columnar.window import window_columnar
        from repro.window.native import window_native

        relation = AURelation.from_rows(
            ["o", "v"],
            [(("a", 1), 1), ((RangeValue("a", "b", "c"), 2), (0, 1, 1)), (("c", 3), 1)],
        )
        spec = self.spec(frame=(-2, 0))
        assert window_columnar(relation, spec)._rows == window_native(relation, spec)._rows


class TestBackendDispatch:
    def test_unknown_backend_rejected_everywhere(self):
        from repro.ranking.native import sort_native
        from repro.ranking.topk import sort as au_sort
        from repro.relational.relation import Relation
        from repro.relational.sort import sort_operator
        from repro.relational.window import window_aggregate
        from repro.window.native import window_native
        from repro.window.spec import WindowSpec

        with pytest.raises(OperatorError):
            sort_native(sales_audb(), ["sales"], backend="fortran")
        with pytest.raises(OperatorError):
            au_sort(sales_audb(), ["sales"], backend="fortran")
        with pytest.raises(OperatorError):
            sort_operator(Relation(["a"], [((1,), 1)]), ["a"], backend="fortran")
        with pytest.raises(OperatorError):
            window_native(
                sales_audb(),
                WindowSpec("sum", "sales", "w", order_by=("term",), frame=(-1, 0)),
                backend="fortran",
            )
        with pytest.raises(OperatorError):
            window_aggregate(
                Relation(["a"], [((1,), 1)]),
                function="sum",
                attribute="a",
                output="w",
                order_by=["a"],
                backend="fortran",
            )

    def test_columnar_backend_with_rewrite_method(self):
        from repro.ranking.topk import sort as au_sort

        rewrite = au_sort(sales_audb(), ["sales"], method="rewrite")
        columnar = au_sort(sales_audb(), ["sales"], method="rewrite", backend="columnar")
        assert columnar._rows == rewrite._rows
