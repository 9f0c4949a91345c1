"""Each optimizer rewrite pinned individually, plus kernel-steering checks.

The rewrites are pure functions from logical plan to logical plan, so each
test hand-builds a small plan, runs one rule, and asserts the exact output
tree.  The kernel tests then compile real SQL and assert the optimized
joins resolve to searchsorted / sweep / band — never the quadratic grid —
whenever a certain-key side (or a band predicate) makes that possible.
"""

from __future__ import annotations

import pytest

from repro.core.expressions import attr, const
from repro.core.multiplicity import Multiplicity
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.core.schema import Schema
from repro.errors import SqlError
from repro import plan as L
from repro.sql.optimizer import (
    expression_attributes,
    optimize_plan,
    prefer_kernel_joins,
    prune_columns,
    push_down_predicates,
)

pytest.importorskip("numpy", reason="kernel steering inspects columnar layouts")

from repro.sql import compile_sql, run_sql  # noqa: E402

T = L.Scan("t", Schema(["k", "v", "junk"]))
S = L.Scan("s", Schema(["k", "w", "pad"]))


def test_expression_attributes():
    predicate = attr("a").lt(const(3)).and_(attr("b").eq(attr("c")))
    assert expression_attributes(predicate) == frozenset({"a", "b", "c"})


# -- predicate pushdown -------------------------------------------------------


def test_pushdown_splits_conjuncts_per_side():
    join = L.Join(T, S, on=("k",))
    predicate = attr("v").gt(const(1)).and_(attr("w").lt(const(2)))
    rewritten = push_down_predicates(L.Filter(join, predicate))
    assert rewritten == L.Join(
        L.Filter(T, attr("v").gt(const(1))),
        L.Filter(S, attr("w").lt(const(2))),
        on=("k",),
    )


def test_pushdown_maps_disambiguated_names_back_to_the_right_input():
    # post-join name k_r refers to s.k; the pushed filter must use "k" again
    join = L.Join(T, S, on=("k",))
    rewritten = push_down_predicates(L.Filter(join, attr("k_r").ge(const(0))))
    assert rewritten == L.Join(T, L.Filter(S, attr("k").ge(const(0))), on=("k",))


def test_pushdown_keeps_straddling_conjuncts_above_the_join():
    join = L.Join(T, S, on=("k",))
    straddle = attr("v").lt(attr("w"))
    pushable = attr("v").gt(const(1))
    rewritten = push_down_predicates(L.Filter(join, straddle.and_(pushable)))
    assert rewritten == L.Filter(
        L.Join(L.Filter(T, pushable), S, on=("k",)), straddle
    )


def test_pushdown_descends_left_deep_join_trees():
    U = L.Scan("u", Schema(["j", "x"]))
    plan = L.Filter(L.Join(L.Join(T, S, on=("k",)), U, on=None,
                           predicate=attr("v").eq(attr("x"))),
                    attr("w").lt(const(9)))
    rewritten = push_down_predicates(plan)
    inner = rewritten.left
    assert isinstance(inner, L.Join)
    assert inner.right == L.Filter(S, attr("w").lt(const(9)))


# -- projection pruning -------------------------------------------------------


def test_prune_narrows_scans_to_referenced_columns():
    plan = L.Project(L.Filter(L.Join(T, S, on=("k",)), attr("v").gt(const(0))), ("v", "w"))
    pruned = prune_columns(plan)
    assert pruned == L.Project(
        L.Filter(
            L.Join(L.Narrow(T, ("k", "v")), L.Narrow(S, ("k", "w")), on=("k",)),
            attr("v").gt(const(0)),
        ),
        ("v", "w"),
    )


def test_prune_never_reaches_through_ranked_stages():
    # sort ties break on every remaining column, so nothing below may drop
    plan = L.Project(L.Sort(T, ("v",), "pos"), ("v", "pos"))
    assert prune_columns(plan) == plan


def test_prune_inserts_narrow_below_aggregates():
    plan = L.Aggregate(T, ("k",), (("sum", "v", "s"),))
    assert prune_columns(plan) == L.Aggregate(
        L.Narrow(T, ("k", "v")), ("k",), (("sum", "v", "s"),)
    )


def test_prune_reverts_when_narrowing_would_shift_join_suffixes():
    # right already has (k, k_r): narrowing it to (k,) alone would reassign
    # the post-join suffix of the kept column, so both children stay whole
    right = L.Scan("r", Schema(["k", "k_r"]))
    plan = L.Project(L.Join(T, right, on=("k",)), ("v", "k_r"))
    pruned = prune_columns(plan)
    join = pruned.child
    assert join.right == right  # not narrowed
    assert plan_unchanged_names(pruned) == ("v", "k_r")


def plan_unchanged_names(plan):
    return L.plan_schema(plan).attributes


# -- kernel preference --------------------------------------------------------


def certain_relation(rows):
    relation = AURelation(Schema(["c", "u", "v"]))
    for c, u, v in rows:
        relation.add_values(
            [RangeValue(c, c, c), RangeValue(u, u + 1, u + 2), RangeValue(v, v, v)],
            Multiplicity(1, 1, 1),
        )
    return relation


def test_prefer_kernel_joins_flips_method_and_anchors_certain_keys():
    """Only the method flips: searchsorted anchors on the certain key ``c``
    wherever it sits, so an uncertain first key keeps the query's order."""
    plan = L.Join(
        L.Scan("l", Schema(["c", "u", "v"])),
        L.Scan("r", Schema(["c", "u", "v"])),
        on=("u", "c"),
    )
    rewritten = prefer_kernel_joins(plan)
    assert rewritten.method == "auto"
    assert rewritten.on == ("u", "c")

    catalog = {
        "l": certain_relation([(i % 7, i % 5, i) for i in range(40)]),
        "r": certain_relation([(i % 7, i % 4, -i) for i in range(40)]),
    }
    query = "SELECT l.v AS lv, r.v AS rv FROM l JOIN r ON l.u = r.u AND l.c = r.c"
    compiled = compile_sql(query, catalog)
    (join,) = [node for node in L.walk(compiled.plan) if isinstance(node, L.Join)]
    assert join.on == ("u", "c")
    optimized = compiled.run()
    assert compiled.join_kernels == ("searchsorted",)
    unoptimized = compile_sql(query, catalog, optimize=False).run()
    assert len(optimized) > 0
    assert list(optimized._rows.items()) == list(unoptimized._rows.items())


def test_optimize_plan_composes_all_rules():
    plan = L.Project(
        L.Filter(L.Join(T, S, on=("k",)), attr("v").gt(const(0))), ("v",)
    )
    optimized = optimize_plan(plan)
    join = optimized.child
    assert isinstance(join, L.Join)
    assert join.method == "auto"
    assert isinstance(join.left, L.Filter)  # pushdown happened
    assert isinstance(join.left.child, L.Narrow)  # pruning happened


# -- end-to-end kernel assertions --------------------------------------------


def sample_catalog():
    t = AURelation(Schema(["k", "v"]))
    s = AURelation(Schema(["k", "w"]))
    for i in range(8):
        t.add_values([RangeValue(i, i, i), RangeValue(i, i + 1, i + 2)], Multiplicity(1, 1, 1))
        s.add_values([RangeValue(i, i, i), RangeValue(2 * i, 2 * i, 2 * i)], Multiplicity(1, 1, 1))
    return {"t": t, "s": s}


def uncertain_keys_catalog():
    t = AURelation(Schema(["k", "v"]))
    s = AURelation(Schema(["k", "w"]))
    for i in range(8):
        t.add_values([RangeValue(i, i + 1, i + 2), RangeValue(i, i, i)], Multiplicity(1, 1, 1))
        s.add_values([RangeValue(i, i + 2, i + 3), RangeValue(i, i, i)], Multiplicity(1, 1, 1))
    return {"t": t, "s": s}


def run_and_kernels(query, catalog):
    compiled = compile_sql(query, catalog)
    compiled.run()
    return compiled.join_kernels


def test_certain_equi_join_never_uses_the_grid():
    kernels = run_and_kernels("SELECT t.v AS v FROM t JOIN s ON t.k = s.k", sample_catalog())
    assert kernels == ("searchsorted",)


def test_uncertain_keys_fall_back_to_the_sweep_not_the_grid():
    kernels = run_and_kernels(
        "SELECT t.v AS v FROM t JOIN s ON t.k = s.k", uncertain_keys_catalog()
    )
    assert kernels == ("sweep",)


def test_band_predicate_resolves_to_the_band_kernel():
    kernels = run_and_kernels(
        "SELECT t.v AS v FROM t JOIN s ON t.k <= s.k + 2 AND s.k <= t.k + 2",
        sample_catalog(),
    )
    assert kernels == ("band",)


def test_unoptimized_compile_keeps_grid_joins():
    compiled = compile_sql(
        "SELECT t.v AS v FROM t JOIN s ON t.k = s.k", sample_catalog(), optimize=False
    )
    compiled.run()
    assert compiled.join_kernels == ("grid",)


# -- resolution errors (lowering-time SqlError carets) ------------------------


def test_unknown_column_caret():
    with pytest.raises(SqlError) as excinfo:
        compile_sql("SELECT zz FROM t", sample_catalog())
    message = str(excinfo.value)
    assert "unknown column 'zz' at line 1, column 8" in message
    assert message.splitlines()[-1].index("^") == 9  # two-space indent + column 8


def test_unknown_table_lists_the_catalog():
    with pytest.raises(SqlError, match="unknown table 'nope'"):
        compile_sql("SELECT v FROM nope", sample_catalog())


@pytest.mark.parametrize("bad", [5, None, "t"])
def test_non_relation_catalog_entry_names_the_table(bad):
    catalog = dict(sample_catalog(), bad=bad)
    with pytest.raises(SqlError, match="catalog table 'bad' is not a relation"):
        compile_sql("SELECT v FROM t", catalog)


def test_ambiguous_column_requires_qualification():
    with pytest.raises(SqlError, match="ambiguous column 'k'"):
        compile_sql("SELECT k FROM t JOIN s ON t.k = s.k", sample_catalog())


def test_limit_without_order_by_is_rejected():
    with pytest.raises(SqlError, match="LIMIT requires ORDER BY"):
        compile_sql("SELECT v FROM t LIMIT 2", sample_catalog())


def test_invalid_frame_wraps_window_spec_error():
    with pytest.raises(SqlError, match="invalid window"):
        run_sql(
            "SELECT SUM(v) OVER (ORDER BY k ROWS BETWEEN 1 FOLLOWING AND 1 PRECEDING) "
            "AS w FROM t",
            sample_catalog(),
        )
