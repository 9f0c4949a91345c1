"""Aggregates over operands they cannot order or add raise ``OperatorError``.

A column that mixes ``None`` and strings has no ``min``, ``max``, ``sum`` or
``avg``.  Grouped and windowed aggregation on both backends, and a windowed
aggregate written in SQL, must report that as a typed
:class:`~repro.errors.OperatorError` naming the aggregate and the operand
types, never as a bare ``TypeError``.
"""

from __future__ import annotations

import pytest

from repro.core import operators as core_ops
from repro.core.relation import AURelation
from repro.errors import OperatorError
from repro.window import WindowSpec, window_native

#: ``x`` mixes ``None`` and strings; the ``None`` row opens partition 1, so
#: its first window holds ``None`` alone.
ROWS = [((1, None, 1), 1), ((1, "a", 2), 1), ((2, "b", 3), 1)]


def _relation() -> AURelation:
    return AURelation.from_rows(["k", "x", "o"], ROWS)


def _groupby(function: str, backend: str) -> AURelation:
    return core_ops.groupby_aggregate(
        _relation(), ["k"], [(function, "x", "m")], backend=backend
    )


def _window(function: str, backend: str) -> AURelation:
    spec = WindowSpec(function, "x", "m", ["o"], partition_by=["k"], frame=(-2, 0))
    return window_native(_relation(), spec, backend=backend)


@pytest.mark.parametrize("backend", ["python", "columnar"])
@pytest.mark.parametrize("operator", [_groupby, _window], ids=["groupby", "window"])
@pytest.mark.parametrize("function", ["min", "max", "sum", "avg"])
def test_incomparable_operands_raise_operator_error(function, operator, backend):
    if backend == "columnar":
        pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
    with pytest.raises(OperatorError, match=f"cannot compute {function} over .*NoneType"):
        operator(function, backend)


@pytest.mark.parametrize("backend", ["python", "columnar"])
def test_sql_window_over_incomparable_operands_raises_operator_error(backend):
    if backend == "columnar":
        pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
    from repro.sql import run_sql

    query = (
        "SELECT min(x) OVER (PARTITION BY k ORDER BY x "
        "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS m FROM t"
    )
    with pytest.raises(OperatorError, match="cannot compute min over"):
        run_sql(query, {"t": _relation()}, backend=backend)
