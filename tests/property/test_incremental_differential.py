"""Delta-differential properties: incremental views vs from-scratch plans.

:class:`~repro.columnar.incremental.IncrementalView` promises that after any
sequence of append/retract deltas its materialised result is **bit-identical**
— same hypercubes, same multiplicity triples, same first-occurrence row order
— to running the plan from scratch on the accumulated base relation.  The
properties below pin that contract over randomized plan shapes (sort, top-k,
windows including following-only frames, select/extend/rename prefixes, and
the group-by fallback class) and randomized delta streams (bag multiplicities
with ``ub > 1``, partial retractions, inserts colliding with stored
hypercubes, retract-to-empty), on both maintenance paths:

* the *patch* path (``incremental=True``), where deltas splice the
  maintained prefix output, sort/top-k stages re-run on it and windows
  re-sweep only the partitions a delta touched;
* the *forced-recompute* oracle (``incremental=False``), which pins the
  patch rules against the plain plan — if the two ever disagree, the patch
  rule is unsound.

The from-scratch check runs the same plan tree on both interpreters: the
columnar one (``spec.apply``) and the python oracle
(:func:`repro.plan.run_python`).

``last_apply`` is additionally pinned on targeted deltas so the patch path
is provably *exercised*, not silently falling back to recompute everywhere.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy", reason="incremental views run on the columnar backend")

from repro.columnar.incremental import IncrementalView, merge_delta
from repro.columnar.plan import ColumnarPlan, PlanSpec
from repro.columnar.relation import ColumnarAURelation
from repro.core.expressions import Arithmetic, attr, const
from repro.core.multiplicity import Multiplicity
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.core.schema import Schema
from repro.errors import OperatorError
from repro.plan import run_python
from repro.window.spec import WindowSpec

from tests.property.strategies import multiplicities, range_values

SETTINGS = settings(max_examples=25, deadline=None)

SCHEMA = ("a", "b")


def _window(frame, partition_by=("a",), order_by=("b",)) -> WindowSpec:
    return WindowSpec(
        function="sum",
        attribute="b",
        output="w",
        order_by=order_by,
        partition_by=partition_by,
        frame=frame,
    )


#: The plan shapes under differential test.  The first block is the
#: patchable class (prefix of select/extend/rename plus one trailing ranked
#: stage); the tail covers prefix-only plans, the uncertain-partition window
#: (no partial cache: every delta re-runs the stage on the prefix output),
#: and the group-by fallback.
SPECS = [
    PlanSpec().sort(["a"]),
    PlanSpec().topk(["a"], 3, descending=True),
    PlanSpec().select(attr("a").ge(const(0))).sort(["b"]),
    PlanSpec().extend("c", Arithmetic("+", attr("a"), const(1))).topk(["c"], 2),
    PlanSpec().select(attr("b").le(const(4))).window(_window((-2, 0))),
    PlanSpec().window(_window((0, 2))),  # following-only frame
    PlanSpec().rename({"a": "x"}).sort(["x"], descending=True),
    PlanSpec().sort(["a", "b"], descending=True),  # two order-by keys
    PlanSpec().topk(["b"], 2),  # b is an object column when ints and floats mix
    PlanSpec().select(attr("a").ge(const(-2))),
    PlanSpec().window(_window((-1, 0), partition_by=("b",))),  # uncertain keys
    PlanSpec().groupby_aggregate(["a"], [("sum", "b", "s")]),  # fallback class
]


def _halved(value: RangeValue) -> RangeValue:
    return RangeValue(value.lb / 2, value.sg / 2, value.ub / 2)


#: ``b`` draws ints or floats, so a spliced prefix output can keep an
#: ``object`` column (an int/float mix) where the from-scratch base, once
#: the floats are retracted, re-packs it as ``int64``.
b_values = st.one_of(range_values(), range_values().map(_halved))


@st.composite
def base_relations(draw, *, max_tuples: int = 6) -> AURelation:
    """Random AU-relations with a certain ``a`` and an uncertain ``b``.

    ``a`` stays a point value so partition/order keys are groupable and the
    window patch rules actually engage; ``b`` draws full range values of
    ints or floats and bag multiplicities (``ub > 1``) so the ranked stages
    see the general AU-relation class.
    """
    relation = AURelation(Schema(SCHEMA))
    for _ in range(draw(st.integers(min_value=0, max_value=max_tuples))):
        a = draw(st.integers(min_value=-3, max_value=3))
        b = draw(b_values)
        relation.add_values([a, b], draw(multiplicities(max_count=2)))
    return relation


#: One delta program: rows to insert plus ``(victim pick, partial?)``
#: retract directives, resolved against whatever the base holds when the
#: delta is applied (so later deltas can retract earlier inserts).
delta_programs = st.tuples(
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=9),
            b_values,
            multiplicities(max_count=2),
        ),
        max_size=3,
    ),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
        max_size=3,
    ),
)


def _build_delta(base: AURelation, program):
    """Resolve one delta program against the current accumulated base."""
    insert_rows, retract_picks = program
    inserts = AURelation(base.schema)
    for a, b, mult in insert_rows:
        if mult != Multiplicity(0, 0, 0):
            inserts.add_values([a, b], mult)
    retracts = AURelation(base.schema)
    live = list(base._rows.items())
    taken = set()
    for pick, partial in retract_picks:
        if not live:
            break
        values, stored = live[pick % len(live)]
        if values in taken:
            continue
        taken.add(values)
        if partial and stored.ub > stored.sg:
            mult = Multiplicity(0, 0, stored.ub - stored.sg)
        else:
            mult = stored
        retracts.add_values(list(values), mult)
    return (
        inserts if len(inserts) else None,
        retracts if len(retracts) else None,
    )


def assert_bit_identical(expected: AURelation, actual: AURelation) -> None:
    """Same schema, same hypercubes and triples, same insertion order."""
    assert expected.schema == actual.schema
    assert list(expected._rows.items()) == list(actual._rows.items())


def _recompute(spec: PlanSpec, base: AURelation) -> AURelation:
    return spec.apply(ColumnarPlan(base)).to_rows()


def _python_oracle(spec: PlanSpec, base: AURelation) -> AURelation:
    return run_python(spec, lambda _leaf: base)


class TestDeltaDifferential:
    @SETTINGS
    @given(
        spec_index=st.integers(min_value=0, max_value=len(SPECS) - 1),
        base=base_relations(),
        programs=st.lists(delta_programs, max_size=4),
    )
    def test_view_matches_from_scratch_after_every_delta(
        self, spec_index, base, programs
    ):
        spec = SPECS[spec_index]
        view = IncrementalView(base, spec)
        accumulated = base.copy()
        assert_bit_identical(_recompute(spec, accumulated), view.to_rows())
        assert_bit_identical(_python_oracle(spec, accumulated), view.to_rows())
        for program in programs:
            inserts, retracts = _build_delta(accumulated, program)
            view.apply_delta(inserts=inserts, retracts=retracts)
            accumulated, _ = merge_delta(accumulated, inserts, retracts)
            assert_bit_identical(_recompute(spec, accumulated), view.to_rows())
            assert_bit_identical(_python_oracle(spec, accumulated), view.to_rows())
            assert_bit_identical(accumulated, view.base_rows())

    @SETTINGS
    @given(
        spec_index=st.integers(min_value=0, max_value=len(SPECS) - 1),
        base=base_relations(),
        programs=st.lists(delta_programs, max_size=3),
    )
    def test_patched_equals_forced_recompute(self, spec_index, base, programs):
        """The forced-recompute oracle: both maintenance paths agree."""
        spec = SPECS[spec_index]
        patched = IncrementalView(base, spec, incremental=True)
        forced = IncrementalView(base, spec, incremental=False)
        accumulated = base.copy()
        for program in programs:
            inserts, retracts = _build_delta(accumulated, program)
            patched.apply_delta(inserts=inserts, retracts=retracts)
            forced.apply_delta(inserts=inserts, retracts=retracts)
            accumulated, _ = merge_delta(accumulated, inserts, retracts)
            assert forced.last_apply in ("recomputed", "noop")
            assert_bit_identical(forced.to_rows(), patched.to_rows())
            assert_bit_identical(forced.base_rows(), patched.base_rows())

    @SETTINGS
    @given(spec_index=st.integers(min_value=0, max_value=len(SPECS) - 1),
           base=base_relations())
    def test_empty_delta_is_a_noop(self, spec_index, base):
        view = IncrementalView(base, SPECS[spec_index])
        before = view.to_rows()
        view.apply_delta()
        assert view.last_apply == "noop"
        view.apply_delta(inserts=AURelation(base.schema),
                         retracts=AURelation(base.schema))
        assert view.last_apply == "noop"
        assert_bit_identical(before, view.to_rows())

    @SETTINGS
    @given(spec_index=st.integers(min_value=0, max_value=len(SPECS) - 1),
           base=base_relations(max_tuples=5))
    def test_retract_to_empty(self, spec_index, base):
        """Retracting every stored row leaves the empty-base plan result."""
        spec = SPECS[spec_index]
        view = IncrementalView(base, spec)
        if len(base):
            view.apply_delta(retracts=base.copy())
        assert len(view.base_rows()) == 0
        assert_bit_identical(_recompute(spec, AURelation(base.schema)),
                             view.to_rows())

    @SETTINGS
    @given(spec_index=st.integers(min_value=0, max_value=len(SPECS) - 1),
           base=base_relations(),
           programs=st.lists(delta_programs, min_size=1, max_size=2))
    def test_growing_from_an_empty_base(self, spec_index, base, programs):
        """Views built over zero rows accept deltas like any other view."""
        spec = SPECS[spec_index]
        empty = AURelation(Schema(SCHEMA))
        view = IncrementalView(empty, spec)
        accumulated = empty.copy()
        for program in programs:
            inserts, retracts = _build_delta(accumulated, program)
            view.apply_delta(inserts=inserts, retracts=retracts)
            accumulated, _ = merge_delta(accumulated, inserts, retracts)
            assert_bit_identical(_recompute(spec, accumulated), view.to_rows())

    @SETTINGS
    @given(base=base_relations(), bogus=range_values())
    def test_invalid_retract_raises_and_leaves_the_view_unchanged(
        self, base, bogus
    ):
        """Atomicity: a failing delta must not half-apply."""
        view = IncrementalView(base, SPECS[0])
        before = view.to_rows()
        before_base = view.base_rows()
        missing = AURelation(base.schema)
        missing.add_values([99, bogus], 1)  # 'a'=99 is outside the drawn range
        with pytest.raises(OperatorError):
            view.apply_delta(retracts=missing)
        assert_bit_identical(before, view.to_rows())
        assert_bit_identical(before_base, view.base_rows())


class TestPatchPathIsExercised:
    """Pin ``last_apply`` so patch rules demonstrably run (no silent fallback)."""

    ROWS = ((0, 5), (0, 2), (1, 7), (1, 1), (2, 4), (2, 9))

    def _base(self, rows=ROWS) -> AURelation:
        base = AURelation(Schema(SCHEMA))
        for a, b in rows:
            base.add_values([a, b], 1)
        return base

    def _fresh_delta(self) -> AURelation:
        inserts = AURelation(Schema(SCHEMA))
        inserts.add_values([1, 3], 1)
        inserts.add_values([3, 6], (0, 1, 2))
        return inserts

    @pytest.mark.parametrize(
        ("spec", "floats"),
        [
            pytest.param(PlanSpec().sort(["b"]), False, id="sort"),
            pytest.param(PlanSpec().topk(["b"], 3, descending=True), False, id="topk"),
            pytest.param(PlanSpec().sort(["a", "b"]), False, id="two-key-sort"),
            pytest.param(PlanSpec().topk(["b"], 3), True, id="object-topk"),
            pytest.param(
                PlanSpec().select(attr("b").ge(const(0))).window(_window((-2, 0))),
                False, id="window",
            ),
            pytest.param(
                PlanSpec().window(_window((-1, 0), partition_by=())),
                False, id="unpartitioned-window",
            ),
            pytest.param(PlanSpec().select(attr("a").ge(const(0))), False, id="prefix-only"),
        ],
    )
    def test_fresh_inserts_and_whole_row_retracts_patch(self, spec, floats):
        rows = self.ROWS + ((3, 2.5),) if floats else self.ROWS
        if floats:
            b = ColumnarAURelation.from_relation(self._base(rows)).column("b")
            assert b.sg.dtype == object  # ints and floats mix
        view = IncrementalView(self._base(rows), spec)
        assert view.last_apply == "rebuilt"
        view.apply_delta(inserts=self._fresh_delta())
        assert view.last_apply == "patched"
        retracts = AURelation(Schema(SCHEMA))
        retracts.add_values([0, 5], 1)
        view.apply_delta(retracts=retracts)
        assert view.last_apply == "patched"
        accumulated, _ = merge_delta(
            merge_delta(self._base(rows), self._fresh_delta(), None)[0], None, retracts
        )
        assert_bit_identical(_recompute(spec, accumulated), view.to_rows())

    def test_colliding_insert_forces_recompute(self):
        """An insert landing on a stored hypercube merges — no patch rule."""
        base = self._base()
        view = IncrementalView(base, PlanSpec().sort(["b"]))
        collide = AURelation(Schema(SCHEMA))
        collide.add_values([0, 5], 1)  # already stored
        view.apply_delta(inserts=collide)
        assert view.last_apply == "recomputed"
        accumulated, patchable = merge_delta(base, collide, None)
        assert not patchable
        assert_bit_identical(
            _recompute(PlanSpec().sort(["b"]), accumulated), view.to_rows()
        )

    def test_partial_retract_forces_recompute(self):
        base = AURelation(Schema(SCHEMA))
        base.add_values([0, 5], (1, 2, 3))
        view = IncrementalView(base, PlanSpec().sort(["b"]))
        partial = AURelation(Schema(SCHEMA))
        partial.add_values([0, 5], (0, 0, 1))
        view.apply_delta(retracts=partial)
        assert view.last_apply == "recomputed"
        assert list(view.base_rows()._rows.values()) == [Multiplicity(1, 2, 2)]

    def test_fallback_class_always_recomputes(self):
        view = IncrementalView(self._base(), SPECS[-1])  # group-by
        view.apply_delta(inserts=self._fresh_delta())
        assert view.last_apply == "recomputed"


class TestOnePassBuild:
    """A build runs the prefix and the ranked stage once, not once per purpose."""

    def _base(self) -> AURelation:
        base = AURelation(Schema(SCHEMA))
        for a, b in [(0, 5), (0, 2), (1, 7), (1, 1), (2, 4), (2, 9), (3, 6)]:
            base.add_values([a, b], 1)
        return base

    def test_a_topk_build_converts_the_base_once(self, monkeypatch):
        converted = []
        original = ColumnarAURelation.from_relation

        def spy(relation):
            converted.append(len(relation))
            return original(relation)

        monkeypatch.setattr(ColumnarAURelation, "from_relation", staticmethod(spy))
        spec = PlanSpec().select(attr("b").ge(const(2))).topk(["b"], 3, descending=True)
        view = IncrementalView(self._base(), spec)
        assert converted == [7]
        monkeypatch.setattr(ColumnarAURelation, "from_relation", staticmethod(original))
        assert_bit_identical(_recompute(spec, self._base()), view.to_rows())

    def test_a_partitioned_window_build_sweeps_each_partition_once(self, monkeypatch):
        from repro.columnar import window

        swept = []
        original = window._sweep_stage

        def spy(columnar, spec, **kwargs):
            swept.append(len(columnar))
            return original(columnar, spec, **kwargs)

        monkeypatch.setattr(window, "_sweep_stage", spy)
        spec = PlanSpec().select(attr("b").ge(const(0))).window(_window((-2, 0)))
        view = IncrementalView(self._base(), spec)
        assert sorted(swept) == [1, 2, 2, 2]  # partitions a = 0, 1, 2, 3
        monkeypatch.setattr(window, "_sweep_stage", original)
        assert_bit_identical(_recompute(spec, self._base()), view.to_rows())
