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
from repro.relational.sort import validate_k
from repro.window.spec import WindowSpec

__all__ = ["ColumnarPlan", "PlanSpec"]


def require_serial(workers: object) -> None:
    """Reject any ``workers`` value other than ``1``.

    The plan, SQL and serving entry points keep the keyword so callers that
    pass ``workers=1`` keep working; every stage runs in the calling
    process, so no other value has a meaning.
    """
    if type(workers) is not int or workers != 1:
        raise PlanError(
            f"workers={workers!r} is not supported: the parallel executor was "
            "removed and every plan runs serially; pass workers=1 or omit it"
        )


class ColumnarPlan:
    """A fluent, immutable chain of columnar operators.

    A plan always holds a :class:`FactorisedAURelation`: a base table is its
    flat, one-group case (wrapped with no copy), and a join or cross product
    keeps its pair layout.  Each method is one call into
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
        one (downstream of a :meth:`join` / :meth:`cross`) expands here —
        :meth:`factorised` exposes it without materialisation.
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
        """Cross product as a factorised relation — no pair materialisation.

        The result stays a :class:`FactorisedAURelation` product of the two
        inputs' components; it expands only at :meth:`to_rows` (or when a
        later stage genuinely spans both sides).
        """
        return ColumnarPlan(
            fx.fact_cross(self._relation, ColumnarPlan(other).factorised())
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


class PlanSpec:
    """A declarative, immutable description of a :class:`ColumnarPlan` chain.

    Where :class:`ColumnarPlan` is *eager* (every stage method runs its
    kernel immediately), a ``PlanSpec`` merely records the stage sequence, so
    the same plan can be re-run against changing inputs — the contract the
    incremental views (:mod:`repro.columnar.incremental`) and the serving
    layer (:mod:`repro.serving`) are built on.  The builder methods mirror
    the plan stages one for one and each returns a new spec:

    >>> from repro.core.expressions import attr, const
    >>> from repro.core.relation import AURelation
    >>> spec = PlanSpec().select(attr("v").gt(const(10))).topk(["v"], 2)
    >>> audb = AURelation.from_rows(["v"], [((5,), 1), ((20,), 1), ((30,), 1)])
    >>> for t, _m in spec.apply(ColumnarPlan(audb)).to_rows():
    ...     print(t.value("v"))
    20
    30

    :meth:`shape_key` splits the spec into a hashable *shape* (the stage
    structure with every expression :class:`~repro.core.expressions.Constant`
    replaced by a parameter slot) and the tuple of constants, so plans that
    differ only in literal values share one cache shape;
    :meth:`bind` produces the spec back from a shape's template and a new
    parameter tuple without re-deriving the structure:

    >>> shape_a, params_a = spec.shape_key()
    >>> spec_b = PlanSpec().select(attr("v").gt(const(25))).topk(["v"], 2)
    >>> shape_b, params_b = spec_b.shape_key()
    >>> shape_a == shape_b, params_a, params_b
    (True, (10,), (25,))
    >>> spec.bind(params_b) == spec_b
    True
    """

    __slots__ = ("stages",)

    def __init__(self, stages: Sequence[tuple] = ()):
        #: ``(name, args, sorted_kwargs_items)`` triples, one per plan stage.
        self.stages: tuple[tuple, ...] = tuple(stages)

    # -- builder methods (one per ColumnarPlan stage) -----------------------

    def _with(self, name: str, args: tuple, kwargs: dict | None = None) -> "PlanSpec":
        items = tuple(sorted(kwargs.items())) if kwargs else ()
        return PlanSpec(self.stages + ((name, args, items),))

    def select(self, predicate) -> "PlanSpec":
        return self._with("select", (predicate,))

    def project(self, attributes: Sequence[str]) -> "PlanSpec":
        return self._with("project", (tuple(attributes),))

    def extend(self, name: str, expression) -> "PlanSpec":
        return self._with("extend", (name, expression))

    def rename(self, mapping: Mapping[str, str]) -> "PlanSpec":
        return self._with("rename", (tuple(sorted(mapping.items())),))

    def distinct(self) -> "PlanSpec":
        return self._with("distinct", ())

    def union(self, other) -> "PlanSpec":
        return self._with("union", (other,))

    def cross(self, other) -> "PlanSpec":
        return self._with("cross", (other,))

    def join(self, other, predicate=None, *, on=None, method="auto") -> "PlanSpec":
        return self._with(
            "join",
            (other, predicate),
            {"on": None if on is None else tuple(on), "method": method},
        )

    def groupby_aggregate(self, group_by, aggregates) -> "PlanSpec":
        return self._with(
            "groupby_aggregate",
            (tuple(group_by), tuple(tuple(a) for a in aggregates)),
        )

    def sort(self, order_by, *, position_attribute="pos", descending=False) -> "PlanSpec":
        return self._with(
            "sort",
            (tuple(order_by),),
            {"position_attribute": position_attribute, "descending": descending},
        )

    def topk(
        self, order_by, k: int, *, position_attribute="pos", descending=False
    ) -> "PlanSpec":
        return self._with(
            "topk",
            (tuple(order_by), validate_k(k)),
            {"position_attribute": position_attribute, "descending": descending},
        )

    def window(self, spec: WindowSpec) -> "PlanSpec":
        return self._with("window", (spec,))

    # -- execution ----------------------------------------------------------

    def apply(self, plan: ColumnarPlan) -> ColumnarPlan:
        """Run the recorded stages against an eager plan, in order."""
        for name, args, kwargs in self.stages:
            if name == "rename":
                plan = plan.rename(dict(args[0]))
            else:
                plan = getattr(plan, name)(*args, **dict(kwargs))
        return plan

    # -- shape keys / parameter binding -------------------------------------

    def shape_key(self) -> tuple[tuple, tuple]:
        """``(shape, params)``: the cacheable structure and its constants.

        ``shape`` is a hashable tuple mirroring the stage list with every
        expression ``Constant`` replaced by a slot marker; ``params`` holds
        the constant values in walk order (stage order, args before kwargs,
        expression trees left to right).  Two specs that differ only in
        expression literals produce the *same* shape with different params —
        the plan cache's key discipline.  Non-expression stage inputs
        (relations, callables) key by object identity when they are not
        hashable themselves.
        """
        params: list = []
        shape = tuple(
            (
                name,
                tuple(_freeze(a, params) for a in args),
                tuple((key, _freeze(v, params)) for key, v in kwargs),
            )
            for name, args, kwargs in self.stages
        )
        return shape, tuple(params)

    def bind(self, params: Sequence) -> "PlanSpec":
        """This spec with its expression constants replaced by ``params``.

        The walk order matches :meth:`shape_key`, so
        ``spec.bind(spec.shape_key()[1]) == spec``; binding a different
        parameter tuple re-targets every literal without re-deriving the
        stage structure.  Raises :class:`~repro.errors.PlanError` when
        ``params`` is not a sequence or its length does not match the spec's
        slots.
        """
        try:
            supply = iter(params)
        except TypeError:
            raise PlanError(
                f"bind() takes a sequence of parameters, got {type(params).__name__}"
            ) from None
        stages = []
        for name, args, kwargs in self.stages:
            stages.append(
                (
                    name,
                    tuple(_rebind(a, supply) for a in args),
                    tuple((key, _rebind(v, supply)) for key, v in kwargs),
                )
            )
        leftover = sum(1 for _ in supply)
        if leftover:
            raise PlanError(
                f"bind() got {leftover} more parameter(s) than the spec has slots"
            )
        return PlanSpec(stages)

    # -- value protocol ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanSpec):
            return NotImplemented
        return self.stages == other.stages

    def __hash__(self) -> int:
        return hash(("PlanSpec",) + tuple(str(stage) for stage in self.stages))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanSpec({[name for name, _a, _k in self.stages]})"


def _freeze(value, params: list):
    """One shape-key element for a stage input, collecting constants."""
    from repro.core.expressions import (
        Arithmetic, Attribute, BooleanOp, Comparison, Constant, IfThenElse, Not,
    )

    if isinstance(value, Constant):
        params.append(value.value)
        return ("?",)
    if isinstance(value, Attribute):
        return ("attr", value.name)
    if isinstance(value, (Arithmetic, Comparison, BooleanOp)):
        return (
            type(value).__name__,
            value.op,
            _freeze(value.left, params),
            _freeze(value.right, params),
        )
    if isinstance(value, Not):
        return ("Not", _freeze(value.operand, params))
    if isinstance(value, IfThenElse):
        return (
            "IfThenElse",
            _freeze(value.condition, params),
            _freeze(value.then_branch, params),
            _freeze(value.else_branch, params),
        )
    if isinstance(value, tuple):
        return tuple(_freeze(v, params) for v in value)
    if value is None or isinstance(value, (str, int, float, bool, WindowSpec)):
        return ("lit", value)
    try:
        hash(value)
    except TypeError:
        return ("objid", id(value))
    return ("obj", value)


def _rebind(value, supply):
    """The :meth:`PlanSpec.bind` walk: replace Constants, keep everything else."""
    from repro.core.expressions import (
        Arithmetic, Attribute, BooleanOp, Comparison, Constant, IfThenElse, Not,
    )

    if isinstance(value, Constant):
        try:
            return Constant(next(supply))
        except StopIteration:
            raise PlanError("bind() got fewer parameters than the spec has slots") from None
    if isinstance(value, (Arithmetic, Comparison, BooleanOp)):
        return type(value)(value.op, _rebind(value.left, supply), _rebind(value.right, supply))
    if isinstance(value, Not):
        return Not(_rebind(value.operand, supply))
    if isinstance(value, IfThenElse):
        return IfThenElse(
            _rebind(value.condition, supply),
            _rebind(value.then_branch, supply),
            _rebind(value.else_branch, supply),
        )
    if isinstance(value, Attribute):
        return value
    if isinstance(value, tuple):
        return tuple(_rebind(v, supply) for v in value)
    return value
