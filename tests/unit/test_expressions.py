"""Unit tests for the expression language (repro.core.expressions)."""

import pytest

from repro.core.booleans import RangeBool
from repro.core.expressions import Constant, IfThenElse, attr, const
from repro.core.ranges import RangeValue
from repro.core.schema import Schema
from repro.core.tuples import AUTuple
from repro.errors import ExpressionError

SCHEMA = Schema(["a", "b"])
TUPLE = AUTuple.from_values(SCHEMA, [RangeValue(1, 2, 3), 10])
ROW = {"a": 2, "b": 10}


class TestScalarExpressions:
    def test_attribute_lookup(self):
        assert attr("a").eval_range(TUPLE) == RangeValue(1, 2, 3)
        assert attr("a").eval_det(ROW) == 2

    def test_missing_attribute(self):
        with pytest.raises(ExpressionError):
            attr("z").eval_det(ROW)

    def test_constant(self):
        assert const(7).eval_range(TUPLE) == RangeValue.certain(7)
        assert const(7).eval_det(ROW) == 7

    def test_arithmetic(self):
        expr = attr("a") + const(1)
        assert expr.eval_range(TUPLE) == RangeValue(2, 3, 4)
        assert expr.eval_det(ROW) == 3

    def test_subtraction_and_multiplication(self):
        assert (attr("b") - attr("a")).eval_range(TUPLE) == RangeValue(7, 8, 9)
        assert (attr("a") * const(2)).eval_det(ROW) == 4

    def test_nested_expression(self):
        expr = (attr("a") + attr("b")) * const(2)
        assert expr.eval_det(ROW) == 24


class TestPredicates:
    def test_comparison_triple(self):
        expr = attr("a").lt(2)
        assert expr.eval_range(TUPLE) == RangeBool(False, False, True)
        assert expr.eval_det(ROW) is False

    def test_equality(self):
        assert attr("b").eq(10).eval_range(TUPLE).certainly_true

    def test_boolean_connectives(self):
        expr = attr("a").ge(1).and_(attr("b").eq(10))
        assert expr.eval_range(TUPLE).certainly_true
        assert expr.eval_det(ROW) is True
        assert expr.not_().eval_det(ROW) is False

    def test_or(self):
        expr = attr("a").gt(100).or_(attr("b").eq(10))
        assert expr.eval_det(ROW) is True

    def test_type_mismatch_detected(self):
        with pytest.raises(ExpressionError):
            (attr("a").lt(2) + const(1)).eval_range(TUPLE)  # predicate used as scalar
        with pytest.raises(ExpressionError):
            attr("a").and_(attr("b")).eval_range(TUPLE)  # scalar used as predicate


class TestIfThenElse:
    def test_certain_condition(self):
        expr = IfThenElse(attr("b").eq(10), const(1), const(2))
        assert expr.eval_range(TUPLE) == RangeValue.certain(1)
        assert expr.eval_det(ROW) == 1

    def test_uncertain_condition_hulls_branches(self):
        expr = IfThenElse(attr("a").lt(2), const(1), const(5))
        result = expr.eval_range(TUPLE)
        assert result.lb == 1 and result.ub == 5


class TestBoundPreservation:
    """If t ⊑ t̄ then deterministic evaluation is bounded by range evaluation."""

    def test_scalar_bound_preservation(self):
        expr = (attr("a") * const(3)) - attr("b")
        result = expr.eval_range(TUPLE)
        for a in range(1, 4):
            value = expr.eval_det({"a": a, "b": 10})
            assert result.contains(value)

    def test_predicate_bound_preservation(self):
        expr = (attr("a") + attr("b")).gt(12)
        triple = expr.eval_range(TUPLE)
        for a in range(1, 4):
            assert triple.bounds(expr.eval_det({"a": a, "b": 10}))

    def test_unsupported_operators_rejected(self):
        with pytest.raises(ExpressionError):
            Constant(1).__class__  # no-op; placeholder for API stability
            from repro.core.expressions import Comparison

            Comparison("<>", const(1), const(2))


# -- incomparable operand types ------------------------------------------------


def _select_mixed(entry, column, op, value):
    """``WHERE column op value`` over an int / str table through one entry point."""
    from repro.core.expressions import Comparison
    from repro.core.operators import select
    from repro.core.relation import AURelation

    table = AURelation.from_rows(["a", "s"], [((1, "p"), 1), ((2, "q"), 1)])
    predicate = Comparison(op, attr(column), const(value))
    if entry == "python":
        return select(table, predicate, backend="python")
    pytest.importorskip("numpy")
    if entry == "columnar":
        return select(table, predicate, backend="columnar")
    if entry == "plan":
        from repro.columnar import ColumnarPlan

        return ColumnarPlan(table).select(predicate).to_rows()
    from repro.sql import compile_sql

    sql_op = "=" if op == "==" else op
    return compile_sql(f"SELECT a FROM t WHERE {column} {sql_op} {value!r}", {"t": table}).run()


@pytest.mark.parametrize("entry", ["python", "columnar", "plan", "sql"])
@pytest.mark.parametrize(
    "column, op, value, types",
    [("a", ">", "x", "int > str"), ("s", ">", 1, "str > int"), ("a", "==", "x", "int == str")],
    ids=["int-gt-str", "str-gt-int", "int-eq-str"],
)
def test_incomparable_types_raise_expression_error(entry, column, op, value, types):
    with pytest.raises(ExpressionError, match=f"cannot evaluate {types}: "):
        _select_mixed(entry, column, op, value)


def test_incomparable_types_raise_expression_error_deterministically():
    with pytest.raises(ExpressionError, match="cannot evaluate str >= int"):
        attr("s").ge(const(1)).eval_det({"s": "x"})
    assert attr("s").eq(const(1)).eval_det({"s": "x"}) is False
