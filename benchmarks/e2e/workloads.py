"""Inputs and request streams of the end-to-end benchmark's five workloads.

The generators are copies of the ``repro.workloads`` generators as they
stood when the benchmark was defined, so later edits there cannot shift the
benchmark's inputs.  Each workload class supplies:

* ``generate(seed)`` — the input relations (name → ``AURelation``), the
  only thing the program receives;
* ``load(inputs)`` — the catalog load the program pays before serving:
  columnar conversion, or a ``QueryServer`` with its templates;
* ``warmup(state)`` — the untimed requests run before timing starts;
* ``operations(inputs, seed)`` — the endless, deterministic request stream;
* ``execute(state, op)`` — one request through a public entry point;
* ``oracle_check(seed)`` — every distinct request at a small size against
  the python oracle, as ``(attempted, failed)``;
* ``final_check(state)`` — end-of-run consistency, as ``(attempted, failed)``.

Every request runs with ``workers=1``: one client, one core's worth of work.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Iterator, NamedTuple

import repro.sql as sql
from repro.columnar.plan import ColumnarPlan, PlanSpec
from repro.columnar.relation import as_columnar
from repro.core import operators as core_ops
from repro.core.expressions import attr, const
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.ranking.native import sort_native
from repro.serving import QueryServer
from repro.window import WindowSpec, window_native

#: Rows of every workload's oracle run (python backend, untimed).
ORACLE_ROWS = 256


class Op(NamedTuple):
    """One request: ``kind`` is ``"read"`` or ``"delta"``; a read's ``arg``
    also names it (reads with equal ``arg`` must return equal results)."""

    kind: str
    arg: object


def fingerprint(relation: AURelation) -> str:
    """A hash of a relation's schema, rows, bounds and multiplicities, in order."""
    rows = [
        (tuple((v.lb, v.sg, v.ub) for v in tup.values), (mult.lb, mult.sg, mult.ub))
        for tup, mult in relation
    ]
    # repr keeps scalar types apart (5, 5.0 and np.int64(5) all differ).
    text = repr((tuple(relation.schema.attributes), rows))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def row_digest(relation: AURelation) -> int:
    """A fast in-process hash of a relation's schema and rows, in order.

    Equal values hash equally whatever their type (5 and 5.0), as they compare
    equal in the repository's own bit-identity checks; the hash differs from
    one process to the next, so it only compares results within a run.
    """
    return hash((tuple(relation.schema.attributes), tuple((t.values, m) for t, m in relation)))


def combined_fingerprint(digests) -> str:
    return hashlib.sha256(",".join(digests).encode()).hexdigest()[:16]


def inputs_fingerprint(inputs: dict) -> str:
    return combined_fingerprint(f"{name}={fingerprint(inputs[name])}" for name in sorted(inputs))


# -- generators (copies of repro.workloads) -----------------------------------


def _uncertain_value(rng: random.Random, base: int, width: int) -> tuple[int, int, int]:
    """A (low, selected-guess, high) triple spanning at most ``width``."""
    if width == 0:
        return base, base, base
    span = rng.randint(1, width)
    low = max(0, base - rng.randint(0, span))
    high = low + span
    sg = rng.randint(low, high)
    return low, sg, high


def sort_table(rows: int, seed: int, *, uncertainty=0.05, attribute_range=1000,
               domain=100_000) -> AURelation:
    """The Fig. 14 sort table ``(rid, a, b)``: ``a`` uncertain on ~5% of rows.

    Rows are lifted x-tuples: an uncertain row is the hull of its three
    alternatives with the middle one as selected guess.
    """
    rng = random.Random(seed)
    table = AURelation.from_rows(["rid", "a", "b"], [])
    uncertain = set(rng.sample(range(rows), int(round(rows * uncertainty))))
    for rid in range(rows):
        base = rng.randint(0, domain)
        payload = rng.randint(0, domain)
        if rid in uncertain:
            base = RangeValue(*_uncertain_value(rng, base, attribute_range))
        table.add_values([rid, base, payload], 1)
    return table


def window_table(rows: int, seed: int, *, uncertainty=0.05, partitions=8) -> AURelation:
    """The Fig. 15 window table ``(rid, o, g, v)`` as the multiwindow plan sizes it."""
    attribute_range = max(4, rows // 2)
    domain = 10 * rows
    rng = random.Random(seed + 1)
    table = AURelation.from_rows(["rid", "o", "g", "v"], [])
    uncertain = set(rng.sample(range(rows), int(round(rows * uncertainty))))
    for rid in range(rows):
        order = rng.randint(0, domain)
        group = rng.randint(0, partitions - 1)
        value = rng.randint(0, domain)
        if rid in uncertain:
            o_low, o_sg, o_high = _uncertain_value(rng, order, attribute_range)
            v_low, v_sg, v_high = _uncertain_value(rng, value, attribute_range)
            table.add_values(
                [
                    rid,
                    RangeValue(o_low, o_sg, o_high),
                    RangeValue(group, group, min(partitions - 1, group + 1)),
                    RangeValue(v_low, v_sg, v_high),
                ],
                1,
            )
        else:
            table.add_values([rid, order, group, value], 1)
    return table


def dim_table(seed: int) -> AURelation:
    """Five of the window table's eight categories; category 0's key is uncertain."""
    rng = random.Random(seed + 7)
    dim = AURelation.from_rows(["g", "w"], [])
    for g in range(5):
        dim.add_values([RangeValue(g, g, g + 1) if g == 0 else g, rng.randint(0, 100)], 1)
    return dim


def sql_catalog(rows: int, seed: int) -> dict[str, AURelation]:
    """``orders`` (certain keys ``[0, rows)``) and ``parts`` (keys shifted by
    ``rows // 2``): ~50% key overlap, uncertain ``v``, unread payload columns."""
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
            [key, rng.randint(0, 1000), rng.randint(0, 10_000), rng.randint(0, 10_000)], 1
        )
    return {"orders": orders, "parts": parts}


def range_join_tables(rows: int, seed: int) -> dict[str, AURelation]:
    """``l`` and ``r`` whose keys are narrow uncertain ranges on both sides."""
    rng = random.Random(seed)
    left_keys = list(range(rows))
    right_keys = list(range(rows // 2, rows + rows // 2))
    rng.shuffle(left_keys)
    rng.shuffle(right_keys)
    left = AURelation.from_rows(["k", "a"], [])
    right = AURelation.from_rows(["k", "b"], [])
    for base in left_keys:
        width = rng.randint(0, 3)
        key = RangeValue(base, base + rng.randint(0, width), base + width)
        mult = (1, 1, 1) if rng.random() < 0.9 else (0, 1, 2)
        left.add_values([key, rng.randint(0, 1000)], mult)
    for base in right_keys:
        width = rng.randint(0, 3)
        key = RangeValue(base, base + rng.randint(0, width), base + width)
        right.add_values([key, rng.randint(0, 1000)], 1)
    return {"l": left, "r": right}


SERVE_SCHEMA = ("rid", "g", "v")
_SERVE_CATEGORIES = 64


def _serve_row(rng: random.Random, rid: int):
    """One serving row: ~20% uncertain values, ~10% bag multiplicities."""
    value = rng.randint(0, 10_000)
    if rng.random() < 0.2:
        value = RangeValue(value, value, value + rng.randint(1, 50))
    mult = (0, 1, 2) if rng.random() < 0.1 else 1
    return [rid, rng.randrange(_SERVE_CATEGORIES), value], mult


def serve_base(rows: int, seed: int) -> AURelation:
    rng = random.Random(seed)
    base = AURelation.from_rows(list(SERVE_SCHEMA), [])
    for rid in range(rows):
        values, mult = _serve_row(rng, rid)
        base.add_values(values, mult)
    return base


# -- workloads ----------------------------------------------------------------


class Workload:
    """Shared shape: a fixed cycle of distinct reads over a read-only catalog."""

    NAME = ""
    ROWS = 0
    #: Whether equal read keys must give equal results for the whole run.
    repeatable = True

    def __init__(self, rows: int | None = None):
        self.rows = rows or self.ROWS

    def generate(self, seed: int) -> dict:
        raise NotImplementedError

    def load(self, inputs: dict):
        return {name: as_columnar(relation) for name, relation in inputs.items()}

    def distinct_reads(self) -> list[Op]:
        raise NotImplementedError

    def warmup(self, state) -> list[Op]:
        return self.distinct_reads()

    def operations(self, inputs: dict, seed: int) -> Iterator[Op]:
        return itertools.cycle(self.distinct_reads())

    def execute(self, state, op: Op):
        raise NotImplementedError

    def oracle(self, inputs: dict, op: Op) -> AURelation:
        raise NotImplementedError

    def probes(self, state) -> dict:
        """Cumulative program counters the tracer differences per request."""
        return {}

    @property
    def cycle(self) -> int:
        """Operations per cycle of the stream (traced runs alternate cycles)."""
        return len(self.distinct_reads())

    @property
    def fingerprint_reads(self) -> int:
        """Leading reads whose results make up the run's result fingerprint."""
        return len(self.distinct_reads())

    def oracle_check(self, seed: int) -> tuple[int, int]:
        small = type(self)(min(ORACLE_ROWS, self.rows))
        inputs = small.generate(seed)
        state = small.load(inputs)
        reads = small.distinct_reads()
        failed = sum(
            fingerprint(small.execute(state, op)) != fingerprint(small.oracle(inputs, op))
            for op in reads
        )
        return len(reads), failed

    def final_check(self, state) -> tuple[int, int]:
        return 0, 0


class SqlWorkload(Workload):
    """SQL text → rows through ``compile_sql(...).run()``; python backend as oracle."""

    QUERIES: tuple[str, ...] = ()

    def distinct_reads(self) -> list[Op]:
        return [Op("read", query) for query in self.QUERIES]

    def execute(self, catalog, op: Op) -> AURelation:
        return sql.compile_sql(op.arg, catalog, workers=1).run()

    def oracle(self, inputs: dict, op: Op) -> AURelation:
        return sql.compile_sql(op.arg, inputs, backend="python").run()


class SqlJoinAgg(SqlWorkload):
    """Join, groupby and top-8: join and groupby work, almost no rows out."""

    NAME = "sql_join_agg"
    ROWS = 16_384
    QUERIES = tuple(
        "SELECT o.g AS g, SUM(o.v) AS total, COUNT(*) AS n "
        "FROM orders o JOIN parts p ON o.k = p.k "
        f"WHERE o.v > {v} AND p.w < {w} "
        "GROUP BY o.g ORDER BY total DESC LIMIT 8"
        for v, w in ((250, 800), (100, 900), (400, 600), (200, 500), (300, 700), (150, 950))
    )

    def generate(self, seed):
        return sql_catalog(self.rows, seed)


class RankTopK(SqlWorkload):
    """Filtered top-k over the sort table: the Eq. 1-3 position bounds."""

    NAME = "rank_topk"
    ROWS = 16_384
    QUERIES = tuple(
        f"SELECT rid, a, b FROM t WHERE b >= {x} ORDER BY a DESC LIMIT {k}"
        for k in (10, 100, 1000)
        for x in (0, 50_000)
    )

    def generate(self, seed):
        return {"t": sort_table(self.rows, seed)}


class RangeJoinRows(SqlWorkload):
    """Range x range join with ~2 rows out per row in: the row boundary."""

    NAME = "range_join_rows"
    ROWS = 4096
    QUERIES = ("SELECT l.k, l.a, r.b FROM l JOIN r ON l.k = r.k",)

    def generate(self, seed):
        return range_join_tables(self.rows, seed)


FIRST_WINDOW = WindowSpec(
    function="sum", attribute="v", output="w1", order_by=("o",), frame=(-2, 0)
)
SECOND_WINDOW = WindowSpec(
    function="max", attribute="w1", output="w2", order_by=("o",), frame=(-3, 0)
)


class WindowChain(Workload):
    """Select, join, sum window, select on the aggregate, max window."""

    NAME = "window_chain"
    ROWS = 8000

    def generate(self, seed):
        return {"fact": window_table(self.rows, seed), "dim": dim_table(seed)}

    def distinct_reads(self) -> list[Op]:
        domain = 10 * self.rows
        # The selection keeps roughly the top 20-30% of the fact rows.
        return [Op("read", t) for t in (domain * 7 // 10, domain * 3 // 4, domain * 4 // 5)]

    def execute(self, state, op: Op) -> AURelation:
        threshold = op.arg
        return (
            ColumnarPlan(state["fact"], workers=1)
            .select(attr("v").ge(const(threshold)))
            .join(ColumnarPlan(state["dim"], workers=1), on=["g"])
            .window(FIRST_WINDOW)
            .select(attr("w1").ge(const(2 * threshold)))
            .window(SECOND_WINDOW)
            .to_rows()
        )

    def oracle(self, inputs: dict, op: Op) -> AURelation:
        threshold = op.arg
        filtered = core_ops.select(inputs["fact"], attr("v").ge(const(threshold)))
        joined = core_ops.join(filtered, inputs["dim"], on=["g"])
        first = window_native(joined, FIRST_WINDOW)
        spiky = core_ops.select(first, attr("w1").ge(const(2 * threshold)))
        return window_native(spiky, SECOND_WINDOW)


SERVE_WINDOW = WindowSpec(
    function="sum", attribute="v", output="w_sum",
    order_by=("rid",), partition_by=("g",), frame=(-4, 0),
)
SERVE_TOPK = 16


def serve_templates() -> dict[str, PlanSpec]:
    """A top-16 dashboard and a per-category rolling sum, both behind ``v >= ?``."""
    return {
        "topk": PlanSpec().select(attr("v").ge(const(0))).topk(["v"], SERVE_TOPK, descending=True),
        "window": PlanSpec().select(attr("v").ge(const(0))).window(SERVE_WINDOW),
    }


class ServeMix(Workload):
    """Cached reads, cold builds and incremental patches through QueryServer."""

    NAME = "serve_mix"
    ROWS = 4096
    CAPACITY = 32
    THRESHOLDS = tuple(i * 10_000 // 32 for i in range(32))
    READS_PER_DELTA = 10
    # One read in ten asks for the window template.  Its misses (cold window
    # builds, ~10x a top-k build) then stay well under 10% of reads, so p90
    # sits among the top-k misses instead of on the edge between the two.
    READS_PER_WINDOW = 10
    DELTA_ROWS = 4
    cycle = READS_PER_DELTA + 1
    # Every run makes at least these reads; later ones see however many
    # deltas the run got through.
    fingerprint_reads = 20
    repeatable = False

    def generate(self, seed):
        return {"base": serve_base(self.rows, seed)}

    def load(self, inputs):
        server = QueryServer(inputs["base"], workers=1, capacity=self.CAPACITY)
        for name, spec in serve_templates().items():
            server.register(name, spec)
        return server

    def _ranked_thresholds(self) -> list[int]:
        # One fixed popularity order for every seed: which thresholds are hot
        # decides how large the hot views are, and that should not vary
        # from one seed to the next.
        ranked = list(self.THRESHOLDS)
        random.Random(0).shuffle(ranked)
        return ranked

    def warmup(self, server):
        # The initial view builds: the cache filled with the most likely keys
        # (template weight x Zipf weight of the threshold's rank).
        ranked = self._ranked_thresholds()
        weights = {
            (template, t): share / (rank + 1)
            for rank, t in enumerate(ranked)
            for template, share in (
                ("topk", 1 - 1 / self.READS_PER_WINDOW), ("window", 1 / self.READS_PER_WINDOW)
            )
        }
        likely = sorted(weights, key=lambda key: -weights[key])[: self.CAPACITY]
        return [Op("read", (template, (t,))) for template, t in likely]

    def operations(self, inputs, seed):
        rng = random.Random(seed + 1)
        ranked = self._ranked_thresholds()
        zipf = [1.0 / (rank + 1) for rank in range(len(ranked))]
        live = {tup.values: mult for tup, mult in inputs["base"]}
        next_rid = len(inputs["base"])
        for read in itertools.count():
            if read and read % self.READS_PER_DELTA == 0:
                yield Op("delta", self._delta(rng, live, next_rid))
                next_rid += self.DELTA_ROWS
            template = "window" if read % self.READS_PER_WINDOW == 0 else "topk"
            yield Op("read", (template, (rng.choices(ranked, zipf)[0],)))

    def _delta(self, rng, live: dict, next_rid: int):
        # Victims are sampled before this delta's inserts join the pool:
        # retractions apply first, so a delta never retracts its own insert.
        retracts = AURelation.from_rows(list(SERVE_SCHEMA), [])
        for values in rng.sample(sorted(live, key=lambda v: v[0].sg), self.DELTA_ROWS):
            retracts.add_values(list(values), live.pop(values))
        inserts = AURelation.from_rows(list(SERVE_SCHEMA), [])
        for rid in range(next_rid, next_rid + self.DELTA_ROWS):
            values, mult = _serve_row(rng, rid)
            inserts.add_values(values, mult)
        for tup, mult in inserts:
            live[tup.values] = mult
        return inserts, retracts

    def execute(self, server, op: Op):
        if op.kind == "read":
            return server.query(*op.arg)
        server.apply_delta(*op.arg)
        return None

    def oracle(self, base: AURelation, op: Op) -> AURelation:
        template, (threshold,) = op.arg
        filtered = core_ops.select(base, attr("v").ge(const(threshold)))
        if template == "window":
            return window_native(filtered, SERVE_WINDOW)
        ranked = sort_native(filtered, ["v"], k=SERVE_TOPK, descending=True)
        return core_ops.select(ranked, attr("pos").lt(SERVE_TOPK))

    def probes(self, server) -> dict:
        stats = server.stats()
        return {f"serving.{name}": stats[name] for name in ("hits", "misses", "evictions")}

    def oracle_check(self, seed):
        # Two read/delta rounds at the small size, every read checked against
        # the python operators on the server's accumulated base.
        small = ServeMix(min(ORACLE_ROWS, self.rows)).generate(seed)
        server = self.load(small)
        attempted = failed = 0
        for op in itertools.islice(self.operations(small, seed), 2 * self.cycle):
            result = self.execute(server, op)
            if op.kind == "read":
                attempted += 1
                failed += fingerprint(result) != fingerprint(self.oracle(server.base_rows(), op))
        return attempted, failed

    def final_check(self, server) -> tuple[int, int]:
        """Every cached view against a from-scratch plan on the final base."""
        base = server.base_rows()
        templates = serve_templates()
        attempted = failed = 0
        for template in templates:
            for threshold in self.THRESHOLDS:
                view = server.cached_view(template, (threshold,))
                if view is None:
                    continue
                spec = templates[template].bind((threshold,))
                fresh = spec.apply(ColumnarPlan(base, workers=1)).to_rows()
                attempted += 1
                failed += fingerprint(view.to_rows()) != fingerprint(fresh)
        return attempted, failed


WORKLOADS = {
    cls.NAME: cls for cls in (SqlJoinAgg, RankTopK, WindowChain, RangeJoinRows, ServeMix)
}
