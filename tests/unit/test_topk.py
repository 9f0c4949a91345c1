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


# ---------------------------------------------------------------------------
# A NaN bound in an order-by attribute: one error on both backends
# ---------------------------------------------------------------------------

NAN = float("nan")


def nan_relation():
    """``a`` holds ``[nan/nan/5.0]`` among points; ``b`` is NaN-free."""
    from repro.core.relation import AURelation

    return AURelation.from_rows(
        ["a", "b"],
        [
            ((1.0, 0), 1),
            ((RangeValue(NAN, NAN, 5.0), 1), (1, 1, 2)),
            ((3.0, 2), 1),
            ((7.0, 3), 1),
        ],
    )


def _sort(**kwargs):
    from repro.ranking.topk import sort

    return lambda relation, backend: sort(relation, ["a"], backend=backend, **kwargs)


def _topk_on(order_by):
    return lambda relation, backend: topk(relation, order_by, 2, backend=backend)


def _plan(spec):
    """``spec`` on the python interpreter, or on a :class:`ColumnarPlan`."""
    from repro.columnar import ColumnarPlan
    from repro.plan import run_python

    def run(relation, backend):
        if backend == "python":
            return run_python(spec, lambda _leaf: relation)
        return spec.apply(ColumnarPlan(relation)).to_rows()

    return run


def _joined_topk(relation, backend):
    """A top-k over a paired (joined) relation, or over the python join."""
    from repro.columnar import ColumnarPlan
    from repro.core.operators import join
    from repro.core.relation import AURelation

    dim = AURelation.from_rows(["b", "c"], [((b, 10 * b), 1) for b in range(4)])
    if backend == "python":
        return topk(join(relation, dim, on=["b"]), ["a"], 2)
    return ColumnarPlan(relation).join(ColumnarPlan(dim), on=["b"]).topk(["a"], 2).to_rows()


def _sql(query):
    from repro.sql import compile_sql

    return lambda relation, backend: compile_sql(query, {"t": relation}, backend=backend).run()


def _served_topk(relation, backend):
    """A served top-k view, or the python interpreter of its template."""
    from repro.plan import PlanSpec, run_python
    from repro.serving import QueryServer

    spec = PlanSpec().topk(["a"], 2, descending=True)
    if backend == "python":
        return run_python(spec, lambda _leaf: relation)
    server = QueryServer(relation)
    server.register("top", spec)
    return server.query("top")


def _nan_entry_points():
    from repro.plan import PlanSpec

    return {
        "sort_native": _sort(),
        "sort_native-k": _sort(k=2),
        "sort-rewrite": _sort(method="rewrite"),
        "topk": _topk_on(["a"]),
        "topk-second-key": _topk_on(["b", "a"]),
        "plan-sort": _plan(PlanSpec().sort(["a"], descending=True)),
        "plan-topk": _plan(PlanSpec().topk(["b", "a"], 3)),
        "plan-joined-topk": _joined_topk,
        "sql-order-by": _sql("SELECT a, b FROM t ORDER BY a"),
        "sql-limit": _sql("SELECT a, b FROM t ORDER BY a DESC LIMIT 2"),
        "served-topk": _served_topk,
    }


@pytest.mark.parametrize("entry", sorted(_nan_entry_points()))
def test_a_nan_order_key_raises_one_error_on_both_backends(entry):
    """Both backends raise the same :class:`OperatorError`, naming ``a``.

    NaN has no place in a sort order: the python sweeps and the columnar
    rank codes would each resolve its broken comparisons their own way.
    """
    _needs_numpy()
    run = _nan_entry_points()[entry]
    messages = []
    for backend in ("python", "columnar"):
        with pytest.raises(OperatorError, match="NaN") as caught:
            run(nan_relation(), backend)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "'a'" in messages[0]


def test_nan_outside_the_order_by_still_sorts():
    """Only order-by attributes are checked: ``b`` orders a relation with NaN in ``a``."""
    _needs_numpy()
    python = topk(nan_relation(), ["b"], 2)
    columnar = topk(nan_relation(), ["b"], 2, backend="columnar")
    assert repr(list(python._rows.items())) == repr(list(columnar._rows.items()))


def test_windows_keep_their_nan_rule():
    """A window ordered by a NaN attribute still runs (the native sweep, on both backends)."""
    _needs_numpy()
    from repro.window.native import window_native
    from repro.window.spec import WindowSpec

    spec = WindowSpec("sum", "b", "w", order_by=("a",), frame=(-1, 0))
    python = window_native(nan_relation(), spec)
    columnar = window_native(nan_relation(), spec, backend="columnar")
    assert not python.is_empty()
    assert repr(list(python._rows.items())) == repr(list(columnar._rows.items()))
