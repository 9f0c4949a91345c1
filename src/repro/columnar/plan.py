"""Plan composition over the columnar backend.

:class:`ColumnarPlan` chains the vectorized ``RA⁺``, ranking, and window
kernels of :mod:`repro.columnar` so a whole query stays in the columnar
layout from ingest to result — no intermediate row-major
:class:`~repro.core.relation.AURelation` is materialised between stages.
Every stage is non-terminal — including :meth:`~ColumnarPlan.sort`,
:meth:`~ColumnarPlan.topk`, and :meth:`~ColumnarPlan.window`, whose kernels
emit columnar output — so plans can continue past a window (e.g.
``window → select → window``); only the single explicit
:meth:`~ColumnarPlan.to_rows` boundary converts.

>>> from repro.core.expressions import attr, const
>>> from repro.core.relation import AURelation
>>> orders = AURelation.from_rows(
...     ["o", "g", "v"], [((1, 0, 20), 1), ((2, 0, 5), 1), ((3, 1, 30), 1)]
... )
>>> parts = AURelation.from_rows(["g", "w"], [((0, 7), 1), ((1, 9), 1)])
>>> result = (
...     ColumnarPlan(orders)
...     .select(attr("v").gt(const(10)))
...     .join(ColumnarPlan(parts), on=["g"])
...     .groupby_aggregate(["g"], [("sum", "v", "total")])
...     .to_rows()             # boundary: row-major AURelation
... )
>>> for tup, _m in result:
...     print(tup.value("g"), tup.value("total"))
0 20
1 30

Every stage is bit-identical to running the corresponding Python-backend
operator chain on row-major relations — including the row *order* fed to
the next stage, so downstream ``<ᵗᵒᵗᵃˡ_O`` sequence-number tiebreakers
cannot drift between the backends.  Chaining a stage onto an
already-materialised result raises a clear
:class:`~repro.errors.PlanError` instead of an ``AttributeError``:

>>> rows = ColumnarPlan(orders).select(attr("v").gt(const(10))).to_rows()
>>> rows.window(None)
Traceback (most recent call last):
    ...
repro.errors.PlanError: cannot add stage 'window' after .to_rows(): the plan \
was already materialised to a row-major AURelation; wrap the result in \
ColumnarPlan(...) to keep querying it

:func:`run_columnar` is the columnar interpreter of the plan tree
(:mod:`repro.plan`): :meth:`~repro.plan.PlanSpec.apply` and compiled SQL
queries both run through it, one stage per node.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.columnar import factorised as fx
from repro.columnar import operators as ops
from repro.columnar.factorised import FactorisedAURelation, as_factorised
from repro.columnar.relation import ColumnarAURelation
from repro.core.booleans import RangeBool
from repro.core.expressions import Expression
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.core.tuples import AUTuple
from repro.errors import PlanError
from repro.plan import (
    Aggregate, Extend, Filter, Join, Narrow, PlanSpec, Project, Rename, Sort,
    TopK, Window, is_input, require_serial,
)
from repro.relational.sort import validate_k
from repro.window.spec import WindowSpec

__all__ = ["ColumnarPlan", "PlanSpec", "run_columnar"]


class ColumnarPlan:
    """A fluent, immutable chain of columnar operators.

    A plan always holds a :class:`FactorisedAURelation`: a base table is its
    flat case (wrapped with no copy), and a join that qualifies for a
    non-grid kernel keeps its paired layout.  Each method is one call into
    :mod:`repro.columnar.factorised` and returns a new plan; the intermediate
    is exposed through :meth:`factorised` (no conversion), :meth:`columnar`
    (expanded) and :meth:`to_rows` (the row-major plan boundary).

    Every stage runs in the calling process.  ``workers`` is accepted for
    compatibility only: ``1`` is the sole valid value, and anything else
    raises :class:`~repro.errors.PlanError`.
    """

    __slots__ = ("_relation",)

    def __init__(
        self,
        relation: "AURelation | ColumnarAURelation | FactorisedAURelation | ColumnarPlan",
        *,
        workers: int = 1,
    ):
        require_serial(workers)
        if isinstance(relation, ColumnarPlan):
            relation = relation._relation
        elif not isinstance(relation, (AURelation, ColumnarAURelation, FactorisedAURelation)):
            raise PlanError(
                "a plan starts from an AURelation, ColumnarAURelation, "
                f"FactorisedAURelation or ColumnarPlan, got {type(relation).__name__}"
            )
        self._relation: FactorisedAURelation = as_factorised(relation)

    # -- boundary accessors -------------------------------------------------

    def columnar(self) -> ColumnarAURelation:
        """The current intermediate result as an expanded columnar relation.

        A flat intermediate returns its relation with no conversion; a paired
        one (downstream of a :meth:`join`) expands here — :meth:`factorised`
        exposes it without materialisation.
        """
        return self._relation.expand()

    def factorised(self) -> FactorisedAURelation:
        """The current intermediate as a factorised relation (no expansion)."""
        return self._relation

    def to_rows(self) -> AURelation:
        """Materialise the plan result as a row-major relation (plan boundary).

        The single point a plan converts: the intermediate expands here (the
        only materialisation point of the factorised representation, free on
        a flat one), then converts to row-major.  The result is an ordinary
        :class:`~repro.core.relation.AURelation`; chaining further plan
        stages onto it raises :class:`~repro.errors.PlanError` — wrap it in a
        fresh ``ColumnarPlan`` to keep querying it.
        """
        result = self._relation.to_relation()
        boundary = _MaterialisedPlanResult(result.schema)
        boundary._rows = result._rows
        return boundary

    def __len__(self) -> int:
        return len(self._relation)

    # -- RA⁺ stages (columnar in, columnar out) -----------------------------

    def select(
        self, predicate: Expression | Callable[[AUTuple], RangeBool]
    ) -> "ColumnarPlan":
        return ColumnarPlan(fx.fact_select(self._relation, predicate))

    def project(self, attributes: Sequence[str]) -> "ColumnarPlan":
        return ColumnarPlan(fx.fact_project(self._relation, attributes))

    def narrow(self, attributes: Sequence[str]) -> "ColumnarPlan":
        """Drop columns *without* merging rows (the SQL pruner's projection).

        Unlike :meth:`project` — the bag projection, which merges equal
        projected hypercubes — ``narrow`` keeps the exact row sequence, so
        every downstream stage (including the tie-break-sensitive ranked
        stages fed indirectly through joins and aggregates) sees the same
        rows in the same order, just fewer columns.  The kept columns are
        shared and a paired layout stays paired, so this costs no per-row
        work.
        """
        return ColumnarPlan(fx.fact_narrow(self._relation, attributes))

    def extend(
        self, name: str, expression: Expression | Callable[[AUTuple], RangeValue]
    ) -> "ColumnarPlan":
        return ColumnarPlan(fx.fact_extend(self._relation, name, expression))

    def rename(self, mapping: Mapping[str, str]) -> "ColumnarPlan":
        return ColumnarPlan(fx.fact_rename(self._relation, mapping))

    def distinct(self) -> "ColumnarPlan":
        return ColumnarPlan(ops.distinct(self._relation.expand()))

    def union(self, other: "ColumnarPlan | AURelation | ColumnarAURelation") -> "ColumnarPlan":
        return ColumnarPlan(
            ops.union(self._relation.expand(), ColumnarPlan(other).columnar())
        )

    def cross(self, other: "ColumnarPlan | AURelation | ColumnarAURelation") -> "ColumnarPlan":
        """Cross product of the expanded inputs (every pair materialises)."""
        return ColumnarPlan(
            ops.cross(self._relation.expand(), ColumnarPlan(other).columnar())
        )

    def join(
        self,
        other: "ColumnarPlan | AURelation | ColumnarAURelation",
        predicate: Expression | Callable[[AUTuple], RangeBool] | None = None,
        *,
        on: Sequence[str] | None = None,
        method: str = "auto",
    ) -> "ColumnarPlan":
        """Theta / equi-join against another plan or relation (stays columnar).

        ``method`` picks the pair-enumeration kernel — ``"searchsorted"``
        (any ``on`` key certain on one side), ``"sweep"`` (both sides'
        keys uncertain ``[lb, ub]`` intervals), ``"band"`` (key-less
        predicate comparing a left attribute against a constant-shifted
        right attribute), or the exact ``"grid"``.  ``"auto"`` selects the
        cheapest applicable kernel in that order; see
        :func:`repro.columnar.operators.join` and
        :func:`repro.columnar.operators.planned_join_kernel`.

        A join with a qualifying non-grid kernel stays factorised: the
        matched pairs are kept as index vectors into the two inputs'
        fragments and only expand at :meth:`to_rows`.  Non-qualifying joins
        (object-dtype keys, ``"grid"``) fall back to the grid join
        automatically.
        """
        return ColumnarPlan(
            fx.fact_join(
                self._relation,
                ColumnarPlan(other).factorised(),
                predicate,
                on=on,
                method=method,
            )
        )

    def groupby_aggregate(
        self,
        group_by: Sequence[str],
        aggregates: Sequence[tuple[str, str | None, str]],
    ) -> "ColumnarPlan":
        """Grouped aggregation with range-bounded results (stays columnar).

        Semantics and ``aggregates`` format as in
        :func:`repro.core.operators.groupby_aggregate`.
        """
        return ColumnarPlan(
            fx.fact_groupby_aggregate(self._relation, group_by, aggregates)
        )

    # -- ranking / window stages (columnar in, columnar out) ----------------

    def sort(
        self,
        order_by: Sequence[str],
        *,
        position_attribute: str = "pos",
        descending: bool = False,
    ) -> "ColumnarPlan":
        """Uncertain sort over the columnar kernels (stays columnar).

        Appends the range-annotated position attribute; the plan can keep
        chaining (e.g. select on the position, window over it) without a
        row-major round trip.
        """
        return ColumnarPlan(
            fx.fact_sort(
                self._relation,
                order_by,
                position_attribute=position_attribute,
                descending=descending,
            )
        )

    def topk(
        self,
        order_by: Sequence[str],
        k: int,
        *,
        position_attribute: str = "pos",
        descending: bool = False,
    ) -> "ColumnarPlan":
        """Uncertain top-k over the columnar kernels (stays columnar)."""
        from repro.core.expressions import attr

        k = validate_k(k)
        ranked = fx.fact_sort(
            self._relation,
            order_by,
            k=k,
            position_attribute=position_attribute,
            descending=descending,
        )
        return ColumnarPlan(fx.fact_select(ranked, attr(position_attribute).lt(k)))

    def window(self, spec: WindowSpec) -> "ColumnarPlan":
        """Uncertain windowed aggregation over the columnar kernels (stays columnar).

        Appends the range-annotated aggregate attribute; plans can continue
        past the window (e.g. ``window → select → window``, the composed
        RA⁺ setting) without re-converting between the layouts.
        """
        return ColumnarPlan(fx.fact_window(self._relation, spec))


#: Stage names guarded on materialised plan results (kept in sync with the
#: ColumnarPlan methods above).
_STAGE_NAMES = (
    "select", "project", "narrow", "extend", "rename", "distinct", "union",
    "cross", "join", "groupby_aggregate", "sort", "topk", "window", "to_rows",
    "columnar", "factorised",
)


class _MaterialisedPlanResult(AURelation):
    """The row-major relation a plan materialises at its ``.to_rows()`` boundary.

    Behaves exactly like an :class:`~repro.core.relation.AURelation`; the
    plan-stage method names are stubbed to raise a clear
    :class:`~repro.errors.PlanError` (instead of ``AttributeError``) when a
    stage is chained past the boundary.
    """

    __slots__ = ()


def _stage_guard(name: str):
    def guard(self, *_args, **_kwargs):
        raise PlanError(
            f"cannot add stage {name!r} after .to_rows(): the plan was already "
            "materialised to a row-major AURelation; wrap the result in "
            "ColumnarPlan(...) to keep querying it"
        )

    guard.__name__ = name
    guard.__doc__ = f"Raises :class:`PlanError`: {name!r} is a plan stage, not a relation method."
    return guard


for _name in _STAGE_NAMES:
    setattr(_MaterialisedPlanResult, _name, _stage_guard(_name))
del _name


def run_columnar(
    node: PlanSpec,
    read: Callable[[PlanSpec], "ColumnarPlan"],
    kernels: list,
) -> ColumnarPlan:
    """The columnar interpreter: one :class:`ColumnarPlan` stage per tree node.

    A node's inputs run before it (a join's left before its right).
    ``read`` maps each input leaf (``PlanSpec()`` or a
    :class:`~repro.plan.Scan`) to its plan; ``kernels`` receives, per join,
    the pair-enumeration kernel it runs (an ``auto`` request resolved
    through :func:`~repro.columnar.operators.planned_join_kernel`).
    """
    if is_input(node):
        return read(node)
    if isinstance(node, Join):
        left = run_columnar(node.left, read, kernels)
        right = run_columnar(node.right, read, kernels)
        if node.method == "auto":
            kernels.append(
                ops.planned_join_kernel(
                    left.factorised(), right.factorised(), node.predicate, on=node.on
                )
            )
        else:
            kernels.append(node.method)
        return left.join(
            right, node.predicate,
            on=list(node.on) if node.on else None, method=node.method,
        )
    plan = run_columnar(node.child, read, kernels)
    if isinstance(node, Narrow):
        return plan.narrow(node.attributes)
    if isinstance(node, Filter):
        return plan.select(node.predicate)
    if isinstance(node, Extend):
        return plan.extend(node.name, node.expression)
    if isinstance(node, Aggregate):
        return plan.groupby_aggregate(list(node.group_by), list(node.aggregates))
    if isinstance(node, Window):
        return plan.window(node.spec)
    if isinstance(node, Sort):
        return plan.sort(
            list(node.order_by),
            position_attribute=node.position_attribute, descending=node.descending,
        )
    if isinstance(node, TopK):
        return plan.topk(
            list(node.order_by), node.k,
            position_attribute=node.position_attribute, descending=node.descending,
        )
    if isinstance(node, Project):
        return plan.project(list(node.attributes))
    if isinstance(node, Rename):
        return plan.rename(dict(node.mapping))
    raise PlanError(f"unknown plan node {type(node).__name__}")
