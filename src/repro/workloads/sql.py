"""The SQL-frontend benchmark workload: one query, three execution modes.

The scaling query exercises every optimizer rule at once — a certain-key
equi-join (kernel preference turns the grid into searchsorted), WHERE
conjuncts reading one side each (pushdown filters before pairing), wide
tables whose payload columns the query never touches (projection pruning
narrows the scans), then GROUP BY / ORDER BY / LIMIT on top:

.. code-block:: sql

    SELECT o.g AS g, SUM(o.v) AS total, COUNT(*) AS n
    FROM orders o JOIN parts p ON o.k = p.k
    WHERE o.v > 250 AND p.w < 800
    GROUP BY o.g
    ORDER BY total DESC LIMIT 8

``run_sql_unoptimized`` executes the literal lowering — grid join, filter
above the pairs, no pruning — so optimized-vs-unoptimized brackets exactly
what the rules buy; ``run_sql_python`` is the row-at-a-time oracle all
results must match bit-for-bit.
"""

from __future__ import annotations

import random

from repro.core.ranges import RangeValue
from repro.core.relation import AURelation

__all__ = [
    "SQL_SCALING_QUERY",
    "sql_catalog",
    "run_sql_optimized",
    "run_sql_unoptimized",
    "run_sql_python",
    "sql_join_kernels",
]

SQL_SCALING_QUERY = (
    "SELECT o.g AS g, SUM(o.v) AS total, COUNT(*) AS n "
    "FROM orders o JOIN parts p ON o.k = p.k "
    "WHERE o.v > 250 AND p.w < 800 "
    "GROUP BY o.g "
    "ORDER BY total DESC LIMIT 8"
)


def sql_catalog(rows: int, *, seed: int = 0) -> dict[str, AURelation]:
    """An ``orders`` ⋈ ``parts`` catalog sized for the scaling query.

    ``orders`` carries certain integer keys covering ``[0, rows)`` and
    ``parts`` keys ``[rows // 2, rows + rows // 2)`` (both shuffled, ~50%
    overlap) so the optimized join qualifies for the searchsorted kernel
    while the unoptimized grid pays ``rows × rows // 2`` pairs.  ``v`` is an
    uncertain range (the WHERE threshold is three-valued on it), ~10% of
    order rows carry bag multiplicities, and both tables haul payload
    columns the query never reads — the pruning rule's target.
    """
    rng = random.Random(seed)
    order_keys = list(range(rows))
    part_keys = list(range(rows // 2, rows + rows // 2))
    rng.shuffle(order_keys)
    rng.shuffle(part_keys)
    orders = AURelation.from_rows(["k", "g", "v", "pad1", "pad2", "pad3", "pad4"], [])
    for key in order_keys:
        value = rng.randint(0, 500)
        spread = rng.randint(0, 10)
        orders.add_values(
            [
                key,
                key % 16,
                RangeValue(value, value + spread // 2, value + spread),
                rng.randint(0, 10_000),
                rng.randint(0, 10_000),
                rng.randint(0, 10_000),
                rng.randint(0, 10_000),
            ],
            (1, 1, 1) if rng.random() < 0.9 else (0, 1, 2),
        )
    parts = AURelation.from_rows(["k", "w", "pad5", "pad6"], [])
    for key in part_keys:
        parts.add_values(
            [key, rng.randint(0, 1000), rng.randint(0, 10_000), rng.randint(0, 10_000)],
            1,
        )
    return {"orders": orders, "parts": parts}


def run_sql_optimized(catalog: dict) -> AURelation:
    """The scaling query through the full rule pipeline (columnar backend)."""
    from repro.sql import run_sql

    return run_sql(SQL_SCALING_QUERY, catalog)


def run_sql_unoptimized(catalog: dict) -> AURelation:
    """The literal lowering: grid join, no pushdown, no pruning."""
    from repro.sql import run_sql

    return run_sql(SQL_SCALING_QUERY, catalog, optimize=False)


def run_sql_python(catalog: dict) -> AURelation:
    """The row-at-a-time reference execution (the differential oracle)."""
    from repro.sql import run_sql

    return run_sql(SQL_SCALING_QUERY, catalog, backend="python")


def sql_join_kernels(catalog: dict) -> tuple[str, ...]:
    """The pair-enumeration kernels the optimized query's joins resolve to."""
    from repro.sql import compile_sql

    compiled = compile_sql(SQL_SCALING_QUERY, catalog)
    compiled.run()
    return compiled.join_kernels
