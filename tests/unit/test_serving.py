"""Unit tests for the serving layer (:mod:`repro.serving`).

The plan cache and query server sit between callers and the incremental
views, so the contracts pinned here are the ones a cache typically fumbles:
keying by plan *shape* (parameter re-binding must share one template entry
per constant tuple, never re-plan), LRU accounting (``peek`` must not
refresh recency), the no-aliasing guarantee (mutating a served relation
must not corrupt the cached view), and delta fan-out (every cached view
patches; a view whose apply fails is evicted — never left stale).

The fault-injection tests make a kernel raise mid-delta: the view must stay
pre-delta (atomic apply) and the server must drop the failed view instead of
serving its stale result.  Malformed deltas must be rejected before anything
commits.
"""

from __future__ import annotations

import asyncio

import pytest

pytest.importorskip("numpy", reason="the serving layer runs on the columnar backend")

from repro.columnar.incremental import IncrementalView, merge_delta
from repro.columnar.plan import ColumnarPlan, PlanSpec
from repro.columnar.relation import ColumnarAURelation
from repro.core.expressions import attr, const
from repro.core.relation import AURelation
from repro.core.schema import Schema
from repro.errors import OperatorError, PlanError, ReproError, ServingError
from repro.serving import PlanCache, QueryServer

SCHEMA = ("g", "v")


def _base(rows=((0, 5), (0, 2), (1, 7), (1, 1), (2, 4), (2, 9))) -> AURelation:
    base = AURelation(Schema(SCHEMA))
    for g, v in rows:
        base.add_values([g, v], 1)
    return base


def _template() -> PlanSpec:
    """One bind slot (the threshold constant), trailing top-k."""
    return PlanSpec().select(attr("v").ge(const(0))).topk(["v"], 3, descending=True)


def _groupby_spec() -> PlanSpec:
    """The fallback class: every delta recomputes (through the group-by kernel)."""
    return PlanSpec().groupby_aggregate(["g"], [("sum", "v", "s")])


def _expected(spec: PlanSpec, base: AURelation) -> AURelation:
    return spec.apply(ColumnarPlan(base)).to_rows()


def assert_bit_identical(expected: AURelation, actual: AURelation) -> None:
    assert expected.schema == actual.schema
    assert list(expected._rows.items()) == list(actual._rows.items())


class TestPlanCache:
    @pytest.mark.parametrize("bad", [0, -1, 2.5, "4", True, False, None])
    def test_capacity_must_be_a_positive_integer(self, bad):
        with pytest.raises(ServingError, match="capacity"):
            PlanCache(bad)

    def test_serving_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            PlanCache(0)

    def test_get_counts_hits_and_misses(self):
        cache = PlanCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.stats == {"hits": 1, "misses": 1, "evictions": 0, "size": 1}

    def test_lru_eviction_follows_recency(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh: "b" becomes LRU
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats["evictions"] == 1

    def test_peek_reads_without_touching_recency_or_counters(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("nope") is None
        assert cache.stats["hits"] == 0 and cache.stats["misses"] == 0
        cache.put("c", 3)  # "a" was NOT refreshed by peek: it is the LRU
        assert "a" not in cache and "b" in cache

    def test_put_refreshes_existing_entries(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, no growth
        cache.put("c", 3)
        assert "b" not in cache and cache.get("a") == 10

    def test_explicit_evict_is_not_counted_as_lru_pressure(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        assert cache.evict("a") is True
        assert cache.evict("a") is False
        assert cache.stats["evictions"] == 0 and len(cache) == 0

    def test_clear_keys_values_len(self):
        cache = PlanCache(capacity=8)
        cache.put("a", 1)
        cache.put("b", 2)
        assert sorted(cache.keys()) == ["a", "b"]
        assert sorted(cache.values()) == [1, 2]
        cache.clear()
        assert len(cache) == 0 and "a" not in cache


class TestQueryServer:
    def test_register_rejects_non_specs(self):
        server = QueryServer(_base())
        with pytest.raises(ServingError, match="PlanSpec"):
            server.register("bad", object())

    def test_unknown_template_raises(self):
        server = QueryServer(_base())
        server.register("top", _template())
        with pytest.raises(ServingError, match="unknown query template"):
            server.query("nope", (0,))

    def test_param_count_mismatch_raises(self):
        server = QueryServer(_base())
        server.register("top", _template())
        with pytest.raises(ServingError, match="top"):
            server.query("top", (1, 2))

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda server: QueryServer(5), ServingError),
            (lambda server: QueryServer(ColumnarAURelation.from_relation(_base())), ServingError),
            (lambda server: server.query("top", 5), ServingError),
            (lambda server: server.query("top", None), ServingError),
            (lambda server: server.cached_view("top", 5), ServingError),
            (lambda server: server.query_spec(5), ServingError),
            (lambda server: IncrementalView(5, _template()), OperatorError),
            (lambda server: IncrementalView(_base(), 5), PlanError),
            (lambda server: _template().bind(5), PlanError),
        ],
        ids=[
            "server-int-base", "server-columnar-base", "query-int-params",
            "query-none-params", "cached-view-int-params", "query-spec-int",
            "view-int-base", "view-int-spec", "bind-int",
        ],
    )
    def test_bad_arguments_raise_typed_errors(self, call, error):
        server = QueryServer(_base())
        server.register("top", _template())
        with pytest.raises(error):
            call(server)

    def test_query_matches_the_direct_plan(self):
        base = _base()
        server = QueryServer(base)
        server.register("top", _template())
        for threshold in (0, 3, 100):
            expected = _expected(_template().bind((threshold,)), base)
            assert_bit_identical(expected, server.query("top", (threshold,)))

    def test_parameter_rebinding_shares_the_template_shape(self):
        server = QueryServer(_base())
        server.register("top", _template())
        server.query("top", (0,))
        server.query("top", (3,))   # same shape, new constant: second view
        server.query("top", (0,))   # warm
        server.query("top", (3,))   # warm
        stats = server.stats()
        assert stats["views"] == 2
        assert stats["misses"] == 2 and stats["hits"] == 2
        assert stats["templates"] == 1

    def test_served_results_do_not_alias_the_cached_view(self):
        server = QueryServer(_base())
        server.register("top", _template())
        first = server.query("top", (0,))
        pristine = list(first._rows.items())
        first._rows.clear()
        first.add_values([99] * len(first.schema), 1)
        again = server.query("top", (0,))
        assert server.stats()["hits"] == 1  # warm — same cached view
        assert list(again._rows.items()) == pristine

    def test_delta_patches_every_cached_view(self):
        base = _base()
        server = QueryServer(base)
        server.register("top", _template())
        server.query("top", (0,))
        server.query("top", (5,))
        inserts = AURelation(Schema(SCHEMA))
        inserts.add_values([3, 8], 1)
        server.apply_delta(inserts=inserts)
        accumulated, _ = merge_delta(base, inserts, None)
        hits_before = server.stats()["hits"]
        for threshold in (0, 5):
            expected = _expected(_template().bind((threshold,)), accumulated)
            assert_bit_identical(expected, server.query("top", (threshold,)))
        assert server.stats()["hits"] == hits_before + 2  # still warm views
        assert server.cached_view("top", (0,)).last_apply == "patched"
        assert_bit_identical(accumulated, server.base_rows())

    def test_invalid_delta_raises_with_nothing_committed(self):
        server = QueryServer(_base())
        server.register("top", _template())
        before = server.query("top", (0,))
        missing = AURelation(Schema(SCHEMA))
        missing.add_values([9, 9], 1)
        with pytest.raises(OperatorError):
            server.apply_delta(retracts=missing)
        assert_bit_identical(_base(), server.base_rows())
        assert_bit_identical(before, server.query("top", (0,)))

    @pytest.mark.parametrize(
        "bad",
        [
            AURelation.from_rows(["g", "v", "w"], [((3, 8, 1), 1)]),  # wrong arity
            AURelation.from_rows(["v", "g"], [((8, 3), 1)]),  # same columns, reordered
            [(3, 8)],  # not a relation at all
        ],
        ids=["arity", "column-order", "list"],
    )
    def test_malformed_delta_is_rejected_before_the_base_merge(self, bad):
        server = QueryServer(_base())
        server.register("top", _template())
        before = server.query("top", (0,))
        view = server.cached_view("top", (0,))
        with pytest.raises(OperatorError, match="inserts"):
            server.apply_delta(inserts=bad)
        assert_bit_identical(_base(), server.base_rows())
        assert server.cached_view("top", (0,)) is view
        assert view.last_apply == "rebuilt"
        assert_bit_identical(before, view.to_rows())
        assert_bit_identical(before, server.query("top", (0,)))
        assert server.stats()["views"] == 1

    def test_eviction_under_the_capacity_cap(self):
        server = QueryServer(_base(), capacity=1)
        server.register("top", _template())
        server.query("top", (0,))
        server.query("top", (5,))  # evicts the (0,) view
        stats = server.stats()
        assert stats["views"] == 1 and stats["evictions"] == 1
        assert server.cached_view("top", (0,)) is None
        assert server.cached_view("top", (5,)) is not None
        # the evicted key still answers correctly — it just rebuilds
        expected = _expected(_template().bind((0,)), _base())
        assert_bit_identical(expected, server.query("top", (0,)))

    def test_query_spec_caches_ad_hoc_plans_by_shape_key(self):
        server = QueryServer(_base())
        spec = _template().bind((2,))
        first = server.query_spec(spec)
        again = server.query_spec(_template().bind((2,)))  # equal shape+params
        assert_bit_identical(first, again)
        stats = server.stats()
        assert stats["views"] == 1 and stats["hits"] == 1

    def test_query_async_returns_the_sync_answer(self):
        server = QueryServer(_base())
        server.register("top", _template())
        expected = server.query("top", (0,))
        result = asyncio.run(server.query_async("top", (0,)))
        assert_bit_identical(expected, result)


class _ExplodingView:
    """A stub cache entry whose delta apply always fails."""

    def apply_delta(self, inserts=None, retracts=None):
        raise RuntimeError("injected view fault")


def _fresh_delta() -> AURelation:
    inserts = AURelation(Schema(SCHEMA))
    inserts.add_values([4, 6], 1)
    return inserts


class TestFaultInjection:
    def test_failing_view_is_evicted_and_the_rest_still_patch(self):
        base = _base()
        server = QueryServer(base)
        server.register("top", _template())
        server.query("top", (0,))
        server._cache.put(("bogus-shape", ()), _ExplodingView())
        inserts = _fresh_delta()
        with pytest.raises(RuntimeError, match="injected view fault"):
            server.apply_delta(inserts=inserts)
        # the faulty entry is gone; the healthy view patched and stays warm
        assert ("bogus-shape", ()) not in server._cache
        accumulated, _ = merge_delta(base, inserts, None)
        assert_bit_identical(accumulated, server.base_rows())
        assert server.cached_view("top", (0,)).last_apply == "patched"
        expected = _expected(_template().bind((0,)), accumulated)
        assert_bit_identical(expected, server.query("top", (0,)))

    def test_kernel_exception_mid_delta_leaves_the_view_pre_delta(self, monkeypatch):
        """Atomic apply: a kernel raising mid-recompute commits nothing."""
        from repro.columnar import operators
        from repro.columnar.incremental import IncrementalView

        base = _base()
        view = IncrementalView(base, _groupby_spec())
        before = view.to_rows()
        original = operators.groupby_aggregate

        def exploding(*args, **kwargs):
            raise RuntimeError("injected kernel fault")

        monkeypatch.setattr(operators, "groupby_aggregate", exploding)
        with pytest.raises(RuntimeError, match="injected kernel fault"):
            view.apply_delta(inserts=_fresh_delta())
        assert_bit_identical(before, view.to_rows())
        assert_bit_identical(base, view.base_rows())
        assert view.last_apply == "rebuilt"
        # the next good delta applies once the kernel behaves
        monkeypatch.setattr(operators, "groupby_aggregate", original)
        view.apply_delta(inserts=_fresh_delta())
        accumulated, _ = merge_delta(base, _fresh_delta(), None)
        assert_bit_identical(_expected(_groupby_spec(), accumulated), view.to_rows())
        assert_bit_identical(accumulated, view.base_rows())

    def test_worker_death_evicts_the_view_without_poisoning_the_cache(
        self, monkeypatch
    ):
        """A real view dying mid-recompute (its group-by kernel raises) is
        evicted; the next query rebuilds it against the committed base."""
        from repro.columnar import operators

        base = _base()
        server = QueryServer(base)
        server.register("agg", _groupby_spec())
        server.query("agg")
        original = operators.groupby_aggregate

        def exploding(*args, **kwargs):
            raise RuntimeError("injected kernel fault")

        monkeypatch.setattr(operators, "groupby_aggregate", exploding)
        inserts = _fresh_delta()
        with pytest.raises(RuntimeError, match="injected kernel fault"):
            server.apply_delta(inserts=inserts)
        # the base committed (it merged before view fan-out), the stale view
        # did not survive, and the next query rebuilds against the new base
        assert server.stats()["views"] == 0
        accumulated, _ = merge_delta(base, inserts, None)
        assert_bit_identical(accumulated, server.base_rows())
        monkeypatch.setattr(operators, "groupby_aggregate", original)
        assert_bit_identical(
            _expected(_groupby_spec(), accumulated), server.query("agg")
        )


SQL_TEMPLATE = "SELECT g AS g, v AS v FROM base WHERE v > 5 ORDER BY v DESC"


class TestSqlTemplates:
    """SQL strings register as plan templates; constants re-bind shape-keyed.

    ``register`` parses the SQL exactly once (via
    :func:`repro.sql.sql_to_spec`); every subsequent ``query`` binds a new
    constant tuple through the spec's shape key, so differently-bound
    constants share one template entry and each lands its own cached view.
    """

    def test_sql_string_registers_as_a_template(self):
        server = QueryServer(_base())
        server.register("big", SQL_TEMPLATE)
        assert server.templates() == ("big",)

    def test_rebinding_matches_reparsing_with_the_constant_inlined(self):
        from repro.sql import run_sql

        base = _base()
        server = QueryServer(base)
        server.register("big", SQL_TEMPLATE)
        for threshold in (5, 2, 7):
            reparsed = run_sql(
                SQL_TEMPLATE.replace("> 5", f"> {threshold}"), {"base": base}
            )
            assert_bit_identical(reparsed, server.query("big", (threshold,)))

    def test_differently_bound_constants_hit_the_cache_when_warm(self):
        server = QueryServer(_base())
        server.register("big", SQL_TEMPLATE)
        for threshold in (5, 2, 7):  # three cold misses, one template
            server.query("big", (threshold,))
        stats = server.stats()
        assert stats["templates"] == 1
        assert stats["views"] == 3 and stats["misses"] == 3 and stats["hits"] == 0
        for threshold in (5, 2, 7):  # warm: every re-bound constant hits
            server.query("big", (threshold,))
        assert server.stats()["hits"] == 3

    def test_deltas_patch_sql_template_views(self):
        from repro.sql import run_sql

        base = _base()
        server = QueryServer(base)
        server.register("big", SQL_TEMPLATE)
        server.query("big", (3,))
        inserts = AURelation(Schema(SCHEMA))
        inserts.add_values([1, 8], 1)
        server.apply_delta(inserts=inserts)
        accumulated, _ = merge_delta(base, inserts, None)
        expected = run_sql(
            SQL_TEMPLATE.replace("> 5", "> 3"), {"base": accumulated}
        )
        assert_bit_identical(expected, server.query("big", (3,)))
        assert server.stats()["hits"] == 1  # warm — the patched view answered

    def test_multi_table_sql_templates_are_rejected(self):
        from repro.errors import SqlError

        server = QueryServer(_base())
        with pytest.raises(SqlError, match="single table"):
            server.register("joined", "SELECT t.g AS g FROM t JOIN s ON t.g = s.g")
