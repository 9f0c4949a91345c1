"""The one plan tree of :mod:`repro.plan`: builders, walks, shape keys, inputs.

Builder-made, SQL-lowered, optimized and served plans are all trees of the
same frozen nodes.  These tests pin what every consumer relies on: each
builder adds one node, the shape key slots constants out of any tree (joins
included), ``apply`` feeds exactly one input, and the python interpreter,
with the parser, lowering and optimizer, runs without NumPy.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.expressions import attr, const
from repro.core.relation import AURelation
from repro.core.schema import Schema
from repro.errors import PlanError
from repro.plan import Filter, Join, PlanSpec, Scan, is_input, plan_schema, walk
from repro.sql import compile_sql


def test_each_builder_puts_one_node_on_top():
    spec = (
        PlanSpec()
        .select(attr("v").gt(const(1)))
        .extend("w", attr("v") + const(1))
        .rename({"w": "x"})
        .topk(["x"], 2)
    )
    nodes = list(walk(spec))
    assert [type(node).__name__ for node in nodes] == [
        "TopK", "Rename", "Extend", "Filter", "PlanSpec",
    ]
    assert [is_input(node) for node in nodes] == [False] * 4 + [True]


def test_shape_key_slots_the_constants_of_a_join_tree():
    catalog = {
        "t": AURelation.from_rows(["k", "v"], [((1, 10), 1)]),
        "s": AURelation.from_rows(["k", "w"], [((1, 3), 1)]),
    }
    query = "SELECT v FROM t JOIN s ON t.k = s.k AND v < w + {} WHERE v > {}"
    tree = compile_sql(query.format(2, 3), catalog, optimize=False).plan
    other = compile_sql(query.format(5, 7), catalog, optimize=False).plan
    shape, params = tree.shape_key()
    assert params == (2, 3)
    assert other.shape_key() == (shape, (5, 7))
    assert tree.bind((5, 7)) == other
    assert tree.bind(params) == tree
    hash(shape)


def test_apply_feeds_exactly_one_input():
    pytest.importorskip("numpy", reason="apply runs the columnar interpreter")
    from repro.columnar.plan import ColumnarPlan

    base = AURelation.from_rows(["k"], [((1,), 1)])
    left, right = Scan("t", base.schema), Scan("s", Schema(["k"]))
    with pytest.raises(PlanError, match="reads 2"):
        Join(left, right, on=("k",)).apply(ColumnarPlan(base))
    rows = Filter(left, attr("k").ge(const(0))).apply(ColumnarPlan(base)).to_rows()
    assert len(rows) == 1


def test_the_input_leaf_has_no_schema():
    with pytest.raises(PlanError, match="carries no schema"):
        plan_schema(PlanSpec().select(attr("v").gt(const(1))))


def test_the_python_oracle_runs_sql_without_numpy():
    code = (
        "import importlib.abc, sys\n"
        "class Block(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name.split('.')[0] == 'numpy':\n"
        "            raise ModuleNotFoundError(name)\n"
        "sys.meta_path.insert(0, Block())\n"
        "from repro.core.relation import AURelation\n"
        "from repro.sql import run_sql\n"
        "catalog = {\n"
        "    't': AURelation.from_rows(['k', 'v'], [((1, 10), 1), ((2, 5), 1), ((3, 7), 1)]),\n"
        "    's': AURelation.from_rows(['k', 'w'], [((1, 3), 1), ((2, 4), 1)]),\n"
        "}\n"
        "filtered = run_sql('SELECT v FROM t WHERE v > 5', catalog, backend='python')\n"
        "top = run_sql('SELECT t.k AS k, v FROM t JOIN s ON t.k = s.k '\n"
        "              'ORDER BY v DESC LIMIT 1', catalog, backend='python')\n"
        "assert 'numpy' not in sys.modules\n"
        "print(len(filtered), [t.value('k').sg for t, _m in top])\n"
    )
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["2", "[1]"]
