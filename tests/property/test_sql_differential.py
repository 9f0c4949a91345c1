"""SQL differential: optimized vs unoptimized vs hand-built vs Python.

Randomized SQL text (clause families drawn independently: projections and
computed select items, equi-joins, WHERE conjuncts, GROUP BY aggregates,
OVER windows with bounded ROWS frames, ORDER BY / LIMIT) compiles and runs
through independent executions that must agree bit for bit at the relation
boundary (same hypercubes, same ``N³`` triples, same first-occurrence row
order):

* **optimized** — the full rule pipeline (predicate pushdown, projection
  pruning, kernel-preferring join order) over ``ColumnarPlan``;
* **unoptimized** — the literal lowering of the same statement (grid joins,
  filters above the pairs, no pruning);
* **python** — the row-at-a-time reference operators; and
* **hand-built** — for the fixed flagship shape, a ``ColumnarPlan`` chain
  written directly against the stage API, bypassing the SQL layer entirely.

Inputs cover bag multiplicities (``ub > 1``) and object-dtype columns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relation import AURelation

from tests.property.strategies import au_relations, object_au_relations, window_frames

pytest.importorskip("numpy", reason="the columnar backend requires NumPy")

from repro.core.expressions import attr, const  # noqa: E402
from repro.columnar.plan import ColumnarPlan  # noqa: E402
from repro.columnar.relation import ColumnarAURelation  # noqa: E402
from repro.sql import compile_sql, run_sql  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)

constants = st.integers(min_value=-6, max_value=6)
comparators = st.sampled_from(["<", "<=", ">", ">=", "=", "<>"])
aggregate_fns = st.sampled_from(["sum", "count", "avg", "min", "max"])


def assert_same_relation(expected: AURelation, actual: AURelation) -> None:
    assert expected.schema == actual.schema
    assert expected._rows == actual._rows


def run_all_ways(query: str, catalog: dict) -> AURelation:
    """Run ``query`` optimized / unoptimized / python; assert bit-identity."""
    optimized = run_sql(query, catalog)
    unoptimized = run_sql(query, catalog, optimize=False)
    python = run_sql(query, catalog, backend="python")
    assert_same_relation(optimized, unoptimized)
    assert_same_relation(optimized, python)
    return optimized


@st.composite
def sql_queries(draw):
    """Random SQL over a ``t`` (``a, b, g``) / ``s`` (``a, d``) catalog.

    Clause families are drawn independently so shrinking isolates the
    offending clause: a join (equi on the shared ``a`` column — ambiguous
    unqualified, so references qualify), WHERE conjuncts over either side,
    then exactly one of a GROUP BY aggregate block, an OVER window, or a
    plain projection with a computed item; ORDER BY / LIMIT on top.
    """
    join = draw(st.booleans())
    where = []
    if draw(st.booleans()):
        where.append(f"t.b {draw(comparators)} {draw(constants)}")
    if join and draw(st.booleans()):
        where.append(f"s.d {draw(comparators)} {draw(constants)}")
    where_sql = f" WHERE {' AND '.join(where)}" if where else ""
    from_sql = " FROM t" + (" JOIN s ON t.a = s.a" if join else "")

    shape = draw(st.sampled_from(["plain", "group", "window"]))
    if shape == "group":
        fn = draw(aggregate_fns)
        arg = "*" if fn == "count" else "t.b"
        items = f"t.g AS g, {fn}({arg}) AS m"
        tail_sql = f"{where_sql} GROUP BY t.g"
        orderable = ["g", "m"]
    elif shape == "window":
        fn = draw(st.sampled_from(["sum", "count", "min", "max"]))
        arg = "*" if fn == "count" else "t.b"
        lower, upper = draw(window_frames())
        bounds = []
        for offset in (lower, upper):
            if offset < 0:
                bounds.append(f"{-offset} PRECEDING")
            elif offset > 0:
                bounds.append(f"{offset} FOLLOWING")
            else:
                bounds.append("CURRENT ROW")
        partition = "PARTITION BY t.g " if draw(st.booleans()) else ""
        items = (
            f"t.a AS a, {fn}({arg}) OVER ({partition}ORDER BY t.b "
            f"ROWS BETWEEN {bounds[0]} AND {bounds[1]}) AS w"
        )
        tail_sql = where_sql
        orderable = ["a"]
    else:
        items = "t.a AS a, t.b + " + str(draw(constants)) + " AS e"
        if join:
            items += ", s.d AS d"
        tail_sql = where_sql
        orderable = ["a", "e"]

    if draw(st.booleans()):
        direction = draw(st.sampled_from(["", " DESC"]))
        tail_sql += f" ORDER BY {draw(st.sampled_from(orderable))}{direction}"
        if draw(st.booleans()):
            tail_sql += f" LIMIT {draw(st.integers(min_value=1, max_value=5))}"
    return f"SELECT {items}{from_sql}{tail_sql}"


@SETTINGS
@given(
    query=sql_queries(),
    t=au_relations(attributes=("a", "b", "g")),
    s=au_relations(attributes=("a", "d")),
)
def test_random_sql_three_way(query, t, s):
    run_all_ways(query, {"t": t, "s": s})


@SETTINGS
@given(
    t=object_au_relations(attributes=("a", "b")),
    op=comparators,
    threshold=constants,
)
def test_object_dtype_columns(t, op, threshold):
    """Object-dtype payloads flow through select/where on the integer column."""
    query = f"SELECT a AS a, b AS b FROM t WHERE a {op} {threshold}"
    run_all_ways(query, {"t": t})


@SETTINGS
@given(
    t=object_au_relations(attributes=("a", "b")),
    s=object_au_relations(attributes=("a", "d"), pool=["p", "q", "r", "s"]),
)
def test_object_dtype_join(t, s):
    """Joins whose payload columns are object-dtype stay bit-identical."""
    run_all_ways("SELECT t.b AS b, s.d AS d FROM t JOIN s ON t.a = s.a", {"t": t, "s": s})


FLAGSHIP = (
    "SELECT t.g AS g, SUM(t.b) AS total "
    "FROM t JOIN s ON t.a = s.a "
    "WHERE t.b > 0 AND s.d < 4 "
    "GROUP BY t.g ORDER BY total DESC LIMIT 3"
)


def run_flagship_by_hand(t: AURelation, s: AURelation) -> AURelation:
    """The flagship query as a hand-written ColumnarPlan, no SQL involved."""
    left = ColumnarAURelation.from_relation(t)
    right = ColumnarAURelation.from_relation(s)
    plan = (
        ColumnarPlan(left)
        .select(attr("b").gt(const(0)))
        .join(right, on=["a"])
        .select(attr("d").lt(const(4)))
        .groupby_aggregate(["g"], [("sum", "b", "total")])
        .topk(["total"], 3, position_attribute="_sqlpos", descending=True)
        .project(["g", "total"])
    )
    return plan.to_rows()


@SETTINGS
@given(
    t=au_relations(attributes=("a", "b", "g")),
    s=au_relations(attributes=("a", "d")),
)
def test_flagship_matches_hand_built_plan(t, s):
    """SQL execution == a ColumnarPlan written directly against the stage API.

    The hand-built chain places the filters and the slim right projection
    where the optimizer would push them, so this also pins that the rule
    pipeline's output *is* the plan an engine author would write by hand.
    """
    catalog = {"t": t, "s": s}
    via_sql = run_all_ways(FLAGSHIP, catalog)
    by_hand = run_flagship_by_hand(t, s)
    assert_same_relation(via_sql, by_hand)


@SETTINGS
@given(
    t=au_relations(attributes=("a", "b", "g")),
    s=au_relations(attributes=("a", "d")),
)
def test_optimizer_preserves_the_statement(t, s):
    """compile_sql(optimize=True/False) share one parse; plans differ, rows don't."""
    catalog = {"t": t, "s": s}
    optimized = compile_sql(FLAGSHIP, catalog)
    unoptimized = compile_sql(FLAGSHIP, catalog, optimize=False)
    assert optimized.statement == unoptimized.statement
    assert_same_relation(optimized.run(), unoptimized.run())
