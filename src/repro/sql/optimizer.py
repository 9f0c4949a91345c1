"""Rule-based optimizer over the plan tree (:mod:`repro.plan`).

Three rewrites, each exported separately so the unit suite can pin them
one at a time, composed by :func:`optimize_plan`:

* :func:`push_down_predicates` — WHERE conjuncts referencing only one join
  input move below the join (repeatedly, down left-deep join trees).  The
  multiplicity filter distributes over the semiring product and every pair
  kernel enumerates surviving pairs in the same left-outer/right-inner
  order, so the rewrite is bit-identical.
* :func:`prune_columns` — unreferenced columns are dropped at the scans
  (and below aggregates) through :class:`~repro.plan.Narrow` stages,
  which restrict columns *without* merging rows.  Ranked stages (sort,
  top-k, window) break ties on all remaining attributes, so the pass
  treats them as requiring every input column — pruning never reaches
  through them.
* :func:`prefer_kernel_joins` — every join's ``method`` flips from the
  lowered ``"grid"`` to ``"auto"``, so ``planned_join_kernel`` picks
  searchsorted / sweep / band (searchsorted anchors on any key with a
  certain side, wherever it sits in the ``on`` list).  All kernels re-check
  candidates exactly, so results stay bit-identical.

All three are pure functions from plan tree to plan tree.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Mapping, Optional

from repro import plan as L
from repro.core.expressions import (
    Arithmetic, Attribute, BooleanOp, Comparison, Constant, Expression,
    IfThenElse, Not,
)
from repro.plan import PlanSpec, plan_schema

__all__ = [
    "optimize_plan",
    "push_down_predicates",
    "prune_columns",
    "prefer_kernel_joins",
    "expression_attributes",
]


def optimize_plan(plan: PlanSpec) -> PlanSpec:
    """All rewrites, in dependency order (pushdown feeds the pruner)."""
    plan = push_down_predicates(plan)
    plan = prune_columns(plan)
    plan = prefer_kernel_joins(plan)
    return plan


# -- expression helpers ------------------------------------------------------


def expression_attributes(expression: Expression) -> frozenset[str]:
    """The attribute names a core expression tree reads."""
    if isinstance(expression, Attribute):
        return frozenset((expression.name,))
    if isinstance(expression, Constant):
        return frozenset()
    if isinstance(expression, (Arithmetic, Comparison, BooleanOp)):
        return expression_attributes(expression.left) | expression_attributes(
            expression.right
        )
    if isinstance(expression, Not):
        return expression_attributes(expression.operand)
    if isinstance(expression, IfThenElse):
        return (
            expression_attributes(expression.condition)
            | expression_attributes(expression.then_branch)
            | expression_attributes(expression.else_branch)
        )
    return frozenset()  # opaque callables read anything; callers treat as all


def _substitute(expression: Expression, mapping: Mapping[str, str]) -> Expression:
    """The expression with attribute names rewritten through ``mapping``."""
    if isinstance(expression, Attribute):
        return Attribute(mapping.get(expression.name, expression.name))
    if isinstance(expression, (Arithmetic, Comparison, BooleanOp)):
        return type(expression)(
            expression.op,
            _substitute(expression.left, mapping),
            _substitute(expression.right, mapping),
        )
    if isinstance(expression, Not):
        return Not(_substitute(expression.operand, mapping))
    return expression


def _split_and(expression: Expression) -> list[Expression]:
    if isinstance(expression, BooleanOp) and expression.op == "and":
        return _split_and(expression.left) + _split_and(expression.right)
    return [expression]


def _and_all(predicates) -> Optional[Expression]:
    combined = None
    for predicate in predicates:
        combined = predicate if combined is None else combined.and_(predicate)
    return combined


def _refs(expression) -> frozenset[str] | None:
    """Referenced attributes, or ``None`` for opaque (callable) predicates."""
    if expression is None:
        return frozenset()
    if not isinstance(expression, Expression):
        return None
    return expression_attributes(expression)


# -- predicate pushdown ------------------------------------------------------


def push_down_predicates(plan: PlanSpec) -> PlanSpec:
    """Move filter conjuncts below the joins whose one side they read."""
    if isinstance(plan, L.Filter) and isinstance(plan.predicate, Expression):
        child = push_down_predicates(plan.child)
        conjuncts = _split_and(plan.predicate)
        pushed = _push_into(child, conjuncts)
        if pushed is not None:
            return pushed
        return L.Filter(child, plan.predicate)
    return _rebuild(plan, push_down_predicates)


def _push_into(node: PlanSpec, conjuncts: list[Expression]) -> Optional[PlanSpec]:
    """``node`` with the conjuncts filtered as low as they can go.

    Returns ``None`` when nothing moved (so the caller keeps its original
    Filter node unchanged, a cheap identity for the common no-join case).
    """
    if not isinstance(node, L.Join):
        return None
    left_attrs = set(plan_schema(node.left).attributes)
    right_schema = plan_schema(node.right)
    post = plan_schema(node.left).concat(right_schema, disambiguate=True)
    post_right = post.attributes[len(left_attrs):]
    post_to_pre = dict(zip(post_right, right_schema.attributes))

    to_left: list[Expression] = []
    to_right: list[Expression] = []
    stay: list[Expression] = []
    for conjunct in conjuncts:
        refs = _refs(conjunct)
        if refs is not None and refs <= left_attrs:
            to_left.append(conjunct)
        elif refs is not None and refs <= set(post_right):
            to_right.append(_substitute(conjunct, post_to_pre))
        else:
            stay.append(conjunct)
    if not to_left and not to_right:
        return None

    left = node.left
    if to_left:
        left = _push_into(left, to_left) or L.Filter(left, _and_all(to_left))
    right = node.right
    if to_right:
        right = _push_into(right, to_right) or L.Filter(right, _and_all(to_right))
    joined = L.Join(left, right, on=node.on, predicate=node.predicate, method=node.method)
    if stay:
        return L.Filter(joined, _and_all(stay))
    return joined


# -- projection pruning ------------------------------------------------------


def prune_columns(plan: PlanSpec) -> PlanSpec:
    """Insert non-merging :class:`~repro.plan.Narrow` stages below joins
    and aggregates so unreferenced columns never enter the column caches."""
    return _prune(plan, None)


def _ordered(schema_attrs, required) -> tuple[str, ...]:
    kept = tuple(a for a in schema_attrs if a in required)
    return kept if kept else schema_attrs[:1]  # keep ≥1 column (row count carrier)


def _prune(node: PlanSpec, required: Optional[frozenset]) -> PlanSpec:
    if isinstance(node, L.Scan):
        if required is None or required >= set(node.schema.attributes):
            return node
        return L.Narrow(node, _ordered(node.schema.attributes, required))
    if isinstance(node, L.Narrow):
        return node  # already narrowed (idempotent re-runs)
    if isinstance(node, L.Project):
        return L.Project(_prune(node.child, frozenset(node.attributes)), node.attributes)
    if isinstance(node, L.Rename):
        if required is None:
            return L.Rename(_prune(node.child, None), node.mapping)
        inverse = {new: old for old, new in node.mapping}
        child_required = frozenset(inverse.get(name, name) for name in required)
        return L.Rename(_prune(node.child, child_required), node.mapping)
    if isinstance(node, (L.Sort, L.TopK, L.Window)):
        # Ranked stages tie-break on *all* remaining attributes; dropping a
        # column below them would reorder ties and change positions.
        return _rebuild(node, lambda child: _prune(child, None))
    if isinstance(node, L.Filter):
        refs = _refs(node.predicate)
        if required is None or refs is None:
            child_required = None
        else:
            child_required = required | refs
        return L.Filter(_prune(node.child, child_required), node.predicate)
    if isinstance(node, L.Extend):
        refs = _refs(node.expression)
        if required is None or refs is None:
            child_required = None
        else:
            child_required = (required - {node.name}) | refs
        return L.Extend(_prune(node.child, child_required), node.name, node.expression)
    if isinstance(node, L.Aggregate):
        needed = frozenset(node.group_by) | frozenset(
            source for _fn, source, _out in node.aggregates if source is not None
        )
        child = _prune(node.child, needed)
        child_attrs = plan_schema(child).attributes
        if set(child_attrs) - set(needed) and needed:
            child = L.Narrow(child, _ordered(child_attrs, needed))
        return L.Aggregate(child, node.group_by, node.aggregates)
    if isinstance(node, L.Join):
        return _prune_join(node, required)
    return _rebuild(node, lambda child: _prune(child, None))


def _prune_join(node: L.Join, required: Optional[frozenset]) -> PlanSpec:
    left_schema = plan_schema(node.left)
    right_schema = plan_schema(node.right)
    post = left_schema.concat(right_schema, disambiguate=True)
    post_right = post.attributes[len(left_schema):]
    refs = _refs(node.predicate)
    if required is None or refs is None:
        return L.Join(
            _prune(node.left, None), _prune(node.right, None),
            on=node.on, predicate=node.predicate, method=node.method,
        )
    needed_post = required | refs | frozenset(node.on or ())
    left_required = frozenset(
        a for a in left_schema.attributes if a in needed_post
    ) | frozenset(node.on or ())
    right_required = frozenset(
        pre for pre, post_name in zip(right_schema.attributes, post_right)
        if post_name in needed_post
    ) | frozenset(node.on or ())
    left = _prune(node.left, left_required)
    right = _prune(node.right, right_required)
    # Narrowing must not shift the join's name disambiguation: every kept
    # column has to keep its original post-join name.  When it would shift
    # (exotic ``_r``-suffixed schemas), skip narrowing this join's inputs.
    new_post = plan_schema(left).concat(plan_schema(right), disambiguate=True)
    new_map = dict(
        zip(plan_schema(right).attributes, new_post.attributes[len(plan_schema(left)):])
    )
    old_map = dict(zip(right_schema.attributes, post_right))
    stable = all(
        new_map.get(pre) == old_map[pre]
        for pre in right_schema.attributes
        if pre in right_required
    )
    if not stable:
        left = _prune(node.left, None)
        right = _prune(node.right, None)
    return L.Join(left, right, on=node.on, predicate=node.predicate, method=node.method)


# -- join kernel preference --------------------------------------------------


def prefer_kernel_joins(plan: PlanSpec) -> PlanSpec:
    """Request ``method="auto"`` on every join (the lowering asks for the grid)."""

    def rewrite(node: PlanSpec) -> PlanSpec:
        if isinstance(node, L.Join):
            return L.Join(
                rewrite(node.left), rewrite(node.right),
                on=node.on, predicate=node.predicate, method="auto",
            )
        return _rebuild(node, rewrite)

    return rewrite(plan)


# -- generic reconstruction --------------------------------------------------


def _rebuild(node: PlanSpec, recurse) -> PlanSpec:
    """``node`` with each input replaced by ``recurse(input)``."""
    updates = {
        f.name: recurse(value)
        for f in fields(node)
        if isinstance(value := getattr(node, f.name), PlanSpec)
    }
    return replace(node, **updates) if updates else node
