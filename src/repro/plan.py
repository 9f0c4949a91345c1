"""One plan tree: :class:`PlanSpec` and the nodes every query lowers into.

A plan is an immutable tree of frozen dataclass nodes.  ``PlanSpec()`` is
the tree's input leaf (the relation a caller feeds in) and :class:`Scan`
names a catalog table; every other node wraps its input in one operator.
Each builder method on :class:`PlanSpec` puts one node on top of the tree.
The SQL frontend (:mod:`repro.sql`) lowers statements into the same nodes
and its optimizer rewrites them; the serving cache keys them by
:meth:`PlanSpec.shape_key`; :class:`~repro.columnar.incremental.IncrementalView`
splits them into a row-local prefix and a ranked top node.

Exactly two interpreters run a tree:

* the columnar one, :func:`repro.columnar.plan.run_columnar`: one
  :class:`~repro.columnar.plan.ColumnarPlan` stage per node, behind
  :meth:`PlanSpec.apply` and ``CompiledQuery.run``;
* the python oracle, :func:`run_python`: the row-at-a-time reference
  operators every differential suite compares against.

This module imports no NumPy, so building, lowering, optimizing and the
python oracle all work without it:

>>> from repro.core.expressions import attr, const
>>> from repro.core.relation import AURelation
>>> spec = PlanSpec().select(attr("v").gt(const(10))).topk(["v"], 2)
>>> audb = AURelation.from_rows(["v"], [((5,), 1), ((20,), 1), ((30,), 1)])
>>> for t, _m in run_python(spec, lambda leaf: audb):
...     print(t.value("v"), t.value("pos"))
20 0
30 1

:meth:`PlanSpec.shape_key` splits a tree into a hashable *shape* (the tree
with every expression :class:`~repro.core.expressions.Constant` replaced by
a slot) and the tuple of constants, so plans that differ only in literal
values share one cache shape; :meth:`PlanSpec.bind` puts a new parameter
tuple into the slots without re-deriving the tree:

>>> shape_a, params_a = spec.shape_key()
>>> spec_b = PlanSpec().select(attr("v").gt(const(25))).topk(["v"], 2)
>>> shape_b, params_b = spec_b.shape_key()
>>> shape_a == shape_b, params_a, params_b
(True, (10,), (25,))
>>> spec.bind(params_b) == spec_b
True
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Callable, Iterator, Mapping, Optional, Sequence

from repro.core.expressions import Constant, Expression, attr
from repro.core.relation import AURelation
from repro.core.schema import Schema
from repro.errors import PlanError
from repro.relational.sort import validate_k

__all__ = [
    "PlanSpec", "Scan", "Narrow", "Filter", "Join", "Extend", "Aggregate",
    "Window", "Sort", "TopK", "Project", "Rename",
    "children", "is_input", "plan_schema", "require_serial", "run_python", "walk",
]


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


@dataclass(frozen=True)
class PlanSpec:
    """A plan tree node; ``PlanSpec()`` itself is the tree's input leaf.

    The builder methods mirror the :class:`~repro.columnar.plan.ColumnarPlan`
    stages one for one, and each returns a new tree with one more node on
    top.  A tree is a value: equal trees compare equal and hash alike.
    """

    # -- builder methods (one node each) -------------------------------------

    def select(self, predicate) -> "Filter":
        return Filter(self, predicate)

    def project(self, attributes: Sequence[str]) -> "Project":
        return Project(self, tuple(attributes))

    def extend(self, name: str, expression) -> "Extend":
        return Extend(self, name, expression)

    def rename(self, mapping: Mapping[str, str]) -> "Rename":
        return Rename(self, tuple(sorted(mapping.items())))

    def groupby_aggregate(self, group_by, aggregates) -> "Aggregate":
        return Aggregate(self, tuple(group_by), tuple(tuple(a) for a in aggregates))

    def sort(self, order_by, *, position_attribute="pos", descending=False) -> "Sort":
        return Sort(self, tuple(order_by), position_attribute, descending)

    def topk(
        self, order_by, k: int, *, position_attribute="pos", descending=False
    ) -> "TopK":
        return TopK(self, tuple(order_by), validate_k(k), position_attribute, descending)

    def window(self, spec) -> "Window":
        return Window(self, spec)

    # -- execution -----------------------------------------------------------

    def apply(self, plan):
        """Run the tree on the columnar interpreter, ``plan`` feeding its input.

        ``plan`` is a :class:`~repro.columnar.plan.ColumnarPlan`; it stands
        for the tree's one input leaf (``PlanSpec()`` or a single
        :class:`Scan`).  A tree that reads two inputs raises
        :class:`~repro.errors.PlanError`.
        """
        from repro.columnar.plan import run_columnar

        inputs = sum(1 for node in walk(self) if is_input(node))
        if inputs != 1:
            raise PlanError(f"apply() feeds one input, but this plan reads {inputs}")
        return run_columnar(self, lambda _leaf: plan, [])

    # -- shape keys / parameter binding --------------------------------------

    def shape_key(self) -> tuple[tuple, tuple]:
        """``(shape, params)``: the cacheable structure and its constants.

        ``shape`` is a plain nested tuple with one ``(node type, fields...)``
        entry per node and expression, every ``Constant`` replaced by a slot
        marker; ``params`` holds the constant values in walk order (fields
        in declaration order, so a node's input comes before its own
        expressions).  Two trees that differ only in expression literals get
        the *same* shape with different params, the plan cache's key
        discipline.  Other unhashable field values key by object identity.
        """
        params: list = []
        return _shape(self, params), tuple(params)

    def bind(self, params: Sequence) -> "PlanSpec":
        """This tree with its expression constants replaced by ``params``.

        The walk order matches :meth:`shape_key`, so
        ``spec.bind(spec.shape_key()[1]) == spec``.  Raises
        :class:`~repro.errors.PlanError` when ``params`` is not a sequence or
        its length does not match the tree's slots.
        """
        try:
            supply = iter(params)
        except TypeError:
            raise PlanError(
                f"bind() takes a sequence of parameters, got {type(params).__name__}"
            ) from None
        bound = _bind(self, supply)
        leftover = sum(1 for _ in supply)
        if leftover:
            raise PlanError(
                f"bind() got {leftover} more parameter(s) than the spec has slots"
            )
        return bound


@dataclass(frozen=True)
class Scan(PlanSpec):
    """A base-table scan, an input leaf.  ``schema`` is the table's schema."""

    table: str
    schema: Schema


@dataclass(frozen=True)
class Narrow(PlanSpec):
    """Drop unreferenced columns *without* merging rows.

    The projection-pruning rewrite inserts these below joins and aggregates;
    unlike the (bag, merging) ``Project`` they keep the exact row sequence,
    so downstream stages stay bit-identical while column caches slim down.
    """

    child: PlanSpec
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class Filter(PlanSpec):
    """A selection; ``predicate`` is a core expression tree (or a callable)."""

    child: PlanSpec
    predicate: object


@dataclass(frozen=True)
class Join(PlanSpec):
    """A join; ``on`` holds shared-name equi-keys, ``predicate`` the rest.

    ``method`` is the kernel request handed to
    :meth:`repro.columnar.plan.ColumnarPlan.join`: the unoptimized SQL
    lowering pins ``"grid"``, the optimizer flips it to ``"auto"`` so the
    planner resolves searchsorted / sweep / band kernels.
    """

    left: PlanSpec
    right: PlanSpec
    on: Optional[tuple[str, ...]] = None
    predicate: object = None
    method: str = "grid"


@dataclass(frozen=True)
class Extend(PlanSpec):
    """A computed column ``name := expression`` appended to the child."""

    child: PlanSpec
    name: str
    expression: object


@dataclass(frozen=True)
class Aggregate(PlanSpec):
    """Grouped aggregation: ``aggregates`` are ``(fn, attr|None, output)``."""

    child: PlanSpec
    group_by: tuple[str, ...]
    aggregates: tuple[tuple[str, Optional[str], str], ...]


@dataclass(frozen=True)
class Window(PlanSpec):
    """A windowed aggregate; ``spec`` is a :class:`repro.window.WindowSpec`."""

    child: PlanSpec
    spec: object


@dataclass(frozen=True)
class Sort(PlanSpec):
    child: PlanSpec
    order_by: tuple[str, ...]
    position_attribute: str
    descending: bool = False


@dataclass(frozen=True)
class TopK(PlanSpec):
    child: PlanSpec
    order_by: tuple[str, ...]
    k: int
    position_attribute: str
    descending: bool = False


@dataclass(frozen=True)
class Project(PlanSpec):
    """The merging, bag-semantics projection (SQL's final SELECT list)."""

    child: PlanSpec
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class Rename(PlanSpec):
    """Attribute renaming; ``mapping`` is a sorted tuple of (old, new) pairs."""

    child: PlanSpec
    mapping: tuple[tuple[str, str], ...]


# -- tree walks --------------------------------------------------------------


def is_input(node: PlanSpec) -> bool:
    """Whether ``node`` is an input leaf: ``PlanSpec()`` or a :class:`Scan`."""
    return type(node) is PlanSpec or isinstance(node, Scan)


def children(node: PlanSpec) -> tuple[PlanSpec, ...]:
    """The node's inputs in field order (``left`` before ``right``)."""
    values = (getattr(node, f.name) for f in fields(node))
    return tuple(value for value in values if isinstance(value, PlanSpec))


def walk(node: PlanSpec) -> Iterator[PlanSpec]:
    """Yield ``node`` and every descendant, top-down (left before right)."""
    yield node
    for child in children(node):
        yield from walk(child)


def plan_schema(node: PlanSpec) -> Schema:
    """The output schema a node produces (input leaves need a :class:`Scan`).

    >>> scan = Scan("t", Schema(["k", "v"]))
    >>> plan_schema(Narrow(scan, ("v",))).attributes
    ('v',)
    >>> plan_schema(Join(scan, Scan("u", Schema(["k", "w"])), on=("k",))).attributes
    ('k', 'v', 'k_r', 'w')
    """
    if isinstance(node, Scan):
        return node.schema
    if isinstance(node, (Narrow, Project)):
        return plan_schema(node.child).project(node.attributes)
    if isinstance(node, Filter):
        return plan_schema(node.child)
    if isinstance(node, Join):
        return plan_schema(node.left).concat(plan_schema(node.right), disambiguate=True)
    if isinstance(node, Extend):
        return plan_schema(node.child).extend(node.name)
    if isinstance(node, Aggregate):
        return Schema(node.group_by + tuple(output for _fn, _attr, output in node.aggregates))
    if isinstance(node, Window):
        return plan_schema(node.child).extend(node.spec.output)
    if isinstance(node, (Sort, TopK)):
        return plan_schema(node.child).extend(node.position_attribute)
    if isinstance(node, Rename):
        return plan_schema(node.child).rename(dict(node.mapping))
    raise PlanError(f"{type(node).__name__} carries no schema")


#: The shape-key marker standing in for one expression constant.
_SLOT = ("?",)


def _walked(value) -> bool:
    """Whether the shape/bind walks descend into ``value``'s fields."""
    return isinstance(value, (PlanSpec, Expression)) and is_dataclass(value)


def _shape(value, params: list):
    """One shape-key element, collecting constants into ``params``."""
    if isinstance(value, Constant):
        params.append(value.value)
        return _SLOT
    if _walked(value):
        return (type(value).__name__,) + tuple(
            _shape(getattr(value, f.name), params) for f in fields(value)
        )
    if isinstance(value, tuple):
        return tuple(_shape(item, params) for item in value)
    try:
        hash(value)
    except TypeError:
        return ("objid", id(value))
    return value


def _bind(value, supply: Iterator):
    """``value`` with each constant replaced by the next parameter."""
    if isinstance(value, Constant):
        try:
            return Constant(next(supply))
        except StopIteration:
            raise PlanError("bind() got fewer parameters than the spec has slots") from None
    if _walked(value):
        changes = {}
        for f in fields(value):
            old = getattr(value, f.name)
            new = _bind(old, supply)
            if new is not old:
                changes[f.name] = new
        return replace(value, **changes) if changes else value
    if isinstance(value, tuple):
        items = tuple(_bind(item, supply) for item in value)
        return value if all(a is b for a, b in zip(items, value)) else items
    return value


# -- the python interpreter --------------------------------------------------


def run_python(node: PlanSpec, read: Callable[[PlanSpec], object]) -> AURelation:
    """The python oracle: run the tree with the row-at-a-time operators.

    ``read`` maps each input leaf (``PlanSpec()`` or a :class:`Scan`) to
    its relation; a columnar relation converts to row-major first.
    ``Narrow`` is structural only: the narrowed columns are never read
    again, and the reference operators gain nothing from dropping them.
    """
    from repro.core import operators as core_ops
    from repro.ranking.native import sort_native
    from repro.window import window_native

    if is_input(node):
        relation = read(node)
        return relation if isinstance(relation, AURelation) else relation.to_relation()
    if isinstance(node, Join):
        return core_ops.join(
            run_python(node.left, read), run_python(node.right, read),
            node.predicate, on=list(node.on) if node.on else None,
        )
    child = run_python(node.child, read)
    if isinstance(node, Narrow):
        return child
    if isinstance(node, Filter):
        return core_ops.select(child, node.predicate)
    if isinstance(node, Extend):
        return core_ops.extend(child, node.name, node.expression)
    if isinstance(node, Aggregate):
        return core_ops.groupby_aggregate(child, list(node.group_by), list(node.aggregates))
    if isinstance(node, Window):
        return window_native(child, node.spec)
    if isinstance(node, Sort):
        return sort_native(
            child, list(node.order_by),
            position_attribute=node.position_attribute, descending=node.descending,
        )
    if isinstance(node, TopK):
        ranked = sort_native(
            child, list(node.order_by), k=node.k,
            position_attribute=node.position_attribute, descending=node.descending,
        )
        return core_ops.select(ranked, attr(node.position_attribute).lt(node.k))
    if isinstance(node, Project):
        return core_ops.project(child, list(node.attributes))
    if isinstance(node, Rename):
        return core_ops.rename(child, dict(node.mapping))
    raise PlanError(f"unknown plan node {type(node).__name__}")
