"""Unit tests for uncertain top-k queries (repro.ranking.topk)."""

import pytest

from repro.core.ranges import RangeValue
from repro.errors import OperatorError
from repro.ranking.topk import topk
from repro.workloads.examples import sales_audb


class TestFigure1TopK:
    """Top-2 terms by sales over the running example (Fig. 1f)."""

    def test_possible_answers_cover_all_worlds(self):
        result = topk(sales_audb(), ["sales"], k=2, descending=True)
        # Terms 3/5 (one hypercube) and 4 are possible answers; terms 1 and 2
        # are filtered out because they are certainly not in the top-2.
        terms = {tup.value("term") for tup, mult in result if mult.possibly_exists}
        assert RangeValue(3, 3, 5) in terms
        assert RangeValue.certain(4) in terms
        assert RangeValue.certain(1) not in terms
        assert RangeValue.certain(2) not in terms

    def test_both_answers_are_certain(self):
        result = topk(sales_audb(), ["sales"], k=2, descending=True)
        assert all(mult.lb == 1 for _tup, mult in result)

    def test_position_ranges_match_paper(self):
        result = topk(sales_audb(), ["sales"], k=2, descending=True)
        by_term = {tup.value("term").sg: tup.value("pos") for tup, _m in result}
        assert by_term[3] == RangeValue(0, 0, 1)
        assert by_term[4] == RangeValue(0, 1, 1)

    def test_methods_agree(self):
        native = topk(sales_audb(), ["sales"], k=2, descending=True, method="native")
        rewrite = topk(sales_audb(), ["sales"], k=2, descending=True, method="rewrite")
        assert {t.values for t, _ in native} == {t.values for t, _ in rewrite}


class TestTopKBehaviour:
    def test_k_zero_returns_nothing(self):
        assert len(topk(sales_audb(), ["sales"], k=0)) == 0

    def test_negative_k_rejected(self):
        with pytest.raises(OperatorError):
            topk(sales_audb(), ["sales"], k=-1)

    def test_keep_position_false_drops_pos(self):
        result = topk(sales_audb(), ["sales"], k=2, keep_position=False)
        assert "pos" not in result.schema

    def test_large_k_keeps_everything(self):
        result = topk(sales_audb(), ["sales"], k=100)
        assert len(result.tuples()) == 4

    def test_ascending_topk(self):
        result = topk(sales_audb(), ["sales"], k=1, descending=False)
        terms = {tup.value("term").sg for tup, _m in result}
        # Term 1 has the smallest possible sales; terms 2 and the 3/5 hypercube
        # may tie or undercut it in some world.
        assert 1 in terms


def _needs_numpy():
    pytest.importorskip("numpy", reason="the columnar backend requires NumPy")


def _sort_stage(relation, k):
    _needs_numpy()
    from repro.columnar import sort_stage

    return sort_stage(relation, ["sales"], k=k)


def _plan_topk(relation, k):
    _needs_numpy()
    from repro.columnar import ColumnarPlan

    return ColumnarPlan(relation).topk(["sales"], k)


def _spec_topk(relation, k):
    _needs_numpy()
    from repro.columnar.plan import PlanSpec

    return PlanSpec().topk(["sales"], k)


def _deterministic_topk(relation, k):
    from repro.relational.relation import Relation
    from repro.relational.sort import topk as det_topk

    return det_topk(Relation(["sales"], [((1,), 1), ((2,), 1)]), ["sales"], k)


def _sort_native(backend):
    def run(relation, k):
        if backend == "columnar":
            _needs_numpy()
        from repro.ranking.native import sort_native

        return sort_native(relation, ["sales"], k=k, backend=backend)

    return run


def _topk(backend):
    def run(relation, k):
        if backend == "columnar":
            _needs_numpy()
        return topk(relation, ["sales"], k, backend=backend)

    return run


#: Every top-k entry point, and whether it requires ``k``: the sort entry
#: points read ``k=None`` as "no limit".
K_ENTRY_POINTS = {
    "topk-python": (_topk("python"), True),
    "topk-columnar": (_topk("columnar"), True),
    "sort_native-python": (_sort_native("python"), False),
    "sort_native-columnar": (_sort_native("columnar"), False),
    "sort_stage": (_sort_stage, False),
    "ColumnarPlan.topk": (_plan_topk, True),
    "PlanSpec.topk": (_spec_topk, True),
    "relational.topk": (_deterministic_topk, True),
}

BAD_K = [2.5, 2.0, True, False, "2", -1]


@pytest.mark.parametrize(
    "entry, bad",
    [
        (entry, bad)
        for entry, (_run, requires_k) in sorted(K_ENTRY_POINTS.items())
        for bad in BAD_K + ([None] if requires_k else [])
    ],
)
def test_every_topk_entry_point_rejects_a_bad_k(entry, bad):
    """One ``k`` check: a non-int, bool or negative ``k`` raises OperatorError."""
    run, _requires_k = K_ENTRY_POINTS[entry]
    with pytest.raises(OperatorError, match="non-negative"):
        run(sales_audb(), bad)
