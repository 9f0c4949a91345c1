"""Factorised AU-relations: join/cross results as products, not pair grids.

A :class:`FactorisedAURelation` represents a relation as a product of
independent *groups*.  Each group holds one or more
:class:`~repro.columnar.relation.ColumnarAURelation` fragments plus a pairing
structure — ``None`` indices for a full product over a single fragment, or
matched-pair index vectors (the searchsorted equi-join candidates) aligning
several fragments row-for-row — and a lazy multiplicity vector (the pointwise
product of the gathered fragment annotations, materialised only when an
operator filters it).  The logical relation is the lexicographic product of
the groups, group 0 outermost: exactly the left-outer / right-inner pair
order of the eager ``np.repeat`` × ``np.tile`` grid, so
:meth:`FactorisedAURelation.expand` — the *only* materialisation point — is
bit-identical to the expanded pipeline, row order included.

Operators push down instead of expanding: ``select`` / ``extend`` evaluate
inside the group owning the referenced columns (ownership decided by
:func:`repro.columnar.expressions.referenced_attributes`), ``join`` keeps the
matched-pair index vectors instead of gathering both payloads, and the
row-local stages (``sort`` / ``top-k`` / ``window`` / ``groupby``) run over a
*slim* gather of only the columns they touch, reattaching untouched fragments
through a row-id indirection.  Anything outside the proven class — callable
predicates, expressions spanning unknown columns, NaN windows, grid-method
joins — expands and delegates to the eager kernels, which keeps every result
bit-identical to the Python backend by construction.

>>> from repro.core.expressions import attr, const
>>> from repro.core.relation import AURelation
>>> from repro.columnar.factorised import as_factorised, fact_cross, fact_select
>>> left = as_factorised(AURelation.from_rows(["a"], [([1], 1), ([2], 1)]))
>>> right = as_factorised(
...     AURelation.from_rows(["b"], [([7], 1), ([8], 1), ([9], 1)])
... )
>>> product = fact_cross(left, right)
>>> len(product), [group.size for group in product.groups]
(6, [2, 3])
>>> expanded = product.expand()  # the only materialisation point
>>> [tuple(v.sg for v in expanded.row_values(i)) for i in range(3)]
[(1, 7), (1, 8), (1, 9)]

Selection on ``b`` pushes into the group that owns it — the product shrinks
without ever enumerating the six pairs:

>>> kept = fact_select(product, attr("b").ge(const(9)))
>>> len(kept), [group.size for group in kept.groups]
(2, [2, 1])
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.columnar import operators as ops
from repro.columnar.expressions import (
    predicate_masks,
    range_columns,
    referenced_attributes,
)
from repro.columnar.relation import (
    AttributeColumn,
    ColumnarAURelation,
    as_columnar,
)
from repro.core.booleans import RangeBool
from repro.core.expressions import Expression
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.core.schema import Schema
from repro.core.tuples import AUTuple
from repro.errors import OperatorError, WindowSpecError
from repro.window.spec import WindowSpec

__all__ = [
    "FactorisedGroup",
    "FactorisedAURelation",
    "as_factorised",
    "fact_select",
    "fact_project",
    "fact_extend",
    "fact_rename",
    "fact_cross",
    "fact_join",
    "fact_groupby_aggregate",
    "fact_sort",
    "fact_window",
    "pair_rows_materialised",
    "reset_pair_rows",
]


# ---------------------------------------------------------------------------
# Allocation accounting (the smoke gate asserts factorised << grid)
# ---------------------------------------------------------------------------

_PAIR_ROWS = 0


def _record(rows: int) -> None:
    global _PAIR_ROWS
    _PAIR_ROWS += int(rows)


def reset_pair_rows() -> None:
    """Reset the pair-row materialisation counter (see below)."""
    global _PAIR_ROWS
    _PAIR_ROWS = 0


def pair_rows_materialised() -> int:
    """Total pair rows gathered into explicit arrays since the last reset.

    Every operation that materialises a row-aligned array over (candidate)
    pairs adds its length here — expansions, slim gathers, index
    compositions, join candidates.  ``benchmarks/smoke_backends.py`` asserts
    this stays asymptotically below the eager grid's ``|L| · |R|`` pair
    count, so a regression that silently re-expands mid-chain fails CI.
    """
    return _PAIR_ROWS


# ---------------------------------------------------------------------------
# The representation
# ---------------------------------------------------------------------------


class FactorisedGroup:
    """One independent component of a factorised relation.

    ``fragments`` are columnar relations whose rows this group draws from;
    ``indices`` aligns them — entry ``j`` is either ``None`` (identity: the
    group's rows *are* fragment ``j``'s rows) or an ``int64`` row vector of
    length :attr:`size` into fragment ``j`` (matched pairs).  A group with a
    single fragment, an identity index, and lazy multiplicities is *simple*:
    operators can mutate the fragment itself (no dead rows ever accumulate).

    Multiplicities are lazy by default — the pointwise product of the
    gathered fragment annotations — and become explicit arrays once a
    selection or join filters them.
    """

    __slots__ = ("fragments", "indices", "mult_lb", "mult_sg", "mult_ub", "size")

    def __init__(
        self,
        fragments: Sequence[ColumnarAURelation],
        indices: Sequence[np.ndarray | None],
        mult_lb: np.ndarray | None = None,
        mult_sg: np.ndarray | None = None,
        mult_ub: np.ndarray | None = None,
        size: int | None = None,
    ):
        self.fragments = tuple(fragments)
        self.indices = tuple(indices)
        if size is None:
            first = self.indices[0]
            size = len(self.fragments[0]) if first is None else len(first)
        self.size = int(size)
        self.mult_lb = mult_lb
        self.mult_sg = mult_sg
        self.mult_ub = mult_ub

    @property
    def is_simple(self) -> bool:
        return (
            len(self.fragments) == 1
            and self.indices[0] is None
            and self.mult_lb is None
        )

    def column(self, name: str) -> AttributeColumn:
        """One attribute gathered to group-level rows (zero-copy on identity)."""
        for fragment, idx in zip(self.fragments, self.indices):
            if name in fragment.schema:
                column = fragment.column(name)
                if idx is None:
                    return column
                _record(len(idx))
                return column.take(idx, name)
        raise KeyError(name)

    def multiplicities(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The group's multiplicity triple (lazy product unless explicit)."""
        if self.mult_lb is not None:
            assert self.mult_sg is not None and self.mult_ub is not None
            return self.mult_lb, self.mult_sg, self.mult_ub
        lb = sg = ub = None
        for fragment, idx in zip(self.fragments, self.indices):
            flb, fsg, fub = fragment.mult_lb, fragment.mult_sg, fragment.mult_ub
            if idx is not None:
                _record(len(idx))
                flb, fsg, fub = flb[idx], fsg[idx], fub[idx]
            if lb is None:
                lb, sg, ub = flb, fsg, fub
            else:
                lb, sg, ub = lb * flb, sg * fsg, ub * fub
        assert lb is not None and sg is not None and ub is not None
        return lb, sg, ub

    def filtered(
        self,
        keep: np.ndarray,
        mult_lb: np.ndarray,
        mult_sg: np.ndarray,
        mult_ub: np.ndarray,
    ) -> "FactorisedGroup":
        """Rows at ``keep`` (an int64 subsequence) under explicit multiplicities."""
        _record(len(keep) * len(self.indices))
        indices = tuple(
            keep if idx is None else idx[keep] for idx in self.indices
        )
        return FactorisedGroup(
            self.fragments, indices, mult_lb[keep], mult_sg[keep], mult_ub[keep],
            size=len(keep),
        )


class FactorisedAURelation:
    """A columnar AU-relation held as a product of independent groups.

    The logical relation is the lexicographic product of :attr:`groups`
    (group 0 outermost — the eager grid's left-outer / right-inner pair
    enumeration), each logical row's hypercube the concatenation of the
    gathered fragment rows and its annotation the product of the group
    multiplicities.  :meth:`expand` materialises that product; every other
    method keeps the factorised form.
    """

    __slots__ = ("schema", "groups", "_locate")

    def __init__(self, schema: Schema, groups: Sequence[FactorisedGroup]):
        self.schema = schema
        self.groups = tuple(groups)
        locate: dict[str, tuple[int, int]] = {}
        for g, group in enumerate(self.groups):
            for f, fragment in enumerate(group.fragments):
                for name in fragment.schema:
                    locate[name] = (g, f)
        self._locate = locate

    @staticmethod
    def from_columnar(relation: ColumnarAURelation) -> "FactorisedAURelation":
        """Wrap an expanded relation as a single simple group (zero copies)."""
        return FactorisedAURelation(
            relation.schema, (FactorisedGroup((relation,), (None,)),)
        )

    # -- geometry -------------------------------------------------------------

    def __len__(self) -> int:
        n = 1
        for group in self.groups:
            n *= group.size
        return n

    def _strides(self) -> list[int]:
        """Per-group stride of the lexicographic product (group 0 outermost)."""
        strides = [1] * len(self.groups)
        for g in range(len(self.groups) - 2, -1, -1):
            strides[g] = strides[g + 1] * self.groups[g + 1].size
        return strides

    def _rows_in_group(self, g: int, pair: np.ndarray) -> np.ndarray:
        """Group-``g`` row index of each logical pair row in ``pair``."""
        if len(self.groups) == 1:
            return pair
        if len(pair) == 0:
            return np.empty(0, dtype=np.int64)
        stride = self._strides()[g]
        rows = pair // stride if stride > 1 else pair
        return rows % self.groups[g].size

    # -- materialisation ------------------------------------------------------

    def expand(self) -> ColumnarAURelation:
        """The expanded columnar relation — the single materialisation point.

        Bit-identical to running the eager pipeline: columns gather in schema
        order through the product enumeration, multiplicities multiply
        pointwise.  A trivial wrapper (one simple group over the full schema)
        returns its fragment with zero copies.
        """
        if len(self.groups) == 1 and self.groups[0].is_simple:
            fragment = self.groups[0].fragments[0]
            if fragment.schema == self.schema:
                return fragment
            return fragment.restrict(list(self.schema))
        n = len(self)
        _record(n * (len(self.schema.attributes) + 1))
        if n == 0:
            group_rows = [np.empty(0, dtype=np.int64) for _ in self.groups]
        else:
            pair = np.arange(n, dtype=np.int64)
            strides = self._strides()
            group_rows = []
            for g, group in enumerate(self.groups):
                rows = pair // strides[g] if strides[g] > 1 else pair
                if len(self.groups) > 1:
                    rows = rows % group.size
                group_rows.append(rows)
        columns = []
        for name in self.schema:
            g, f = self._locate[name]
            group = self.groups[g]
            column = group.fragments[f].column(name)
            idx = group_rows[g]
            frag_idx = group.indices[f]
            if frag_idx is not None:
                idx = frag_idx[idx]
            columns.append(column.take(idx, name))
        mult_lb = mult_sg = mult_ub = None
        for g, group in enumerate(self.groups):
            glb, gsg, gub = group.multiplicities()
            glb, gsg, gub = glb[group_rows[g]], gsg[group_rows[g]], gub[group_rows[g]]
            if mult_lb is None:
                mult_lb, mult_sg, mult_ub = glb, gsg, gub
            else:
                mult_lb, mult_sg, mult_ub = mult_lb * glb, mult_sg * gsg, mult_ub * gub
        assert mult_lb is not None and mult_sg is not None and mult_ub is not None
        return ColumnarAURelation(self.schema, columns, mult_lb, mult_sg, mult_ub)

    def to_relation(self) -> AURelation:
        """Row-major boundary conversion (expand, then merge zero/equal rows)."""
        return self.expand().to_relation()

    # -- gathering ------------------------------------------------------------

    def gather_column(self, name: str) -> AttributeColumn:
        """One attribute gathered over all logical pair rows."""
        g, f = self._locate[name]
        group = self.groups[g]
        column = group.fragments[f].column(name)
        frag_idx = group.indices[f]
        if len(self.groups) == 1:
            if frag_idx is None:
                return column
            _record(len(frag_idx))
            return column.take(frag_idx, name)
        rows = self._rows_in_group(g, np.arange(len(self), dtype=np.int64))
        idx = rows if frag_idx is None else frag_idx[rows]
        _record(len(idx))
        return column.take(idx, name)

    def pair_multiplicities(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The multiplicity triple over all logical pair rows."""
        if len(self.groups) == 1:
            return self.groups[0].multiplicities()
        n = len(self)
        _record(n)
        mult_lb = mult_sg = mult_ub = None
        for g, group in enumerate(self.groups):
            glb, gsg, gub = group.multiplicities()
            rows = self._rows_in_group(g, np.arange(n, dtype=np.int64))
            glb, gsg, gub = glb[rows], gsg[rows], gub[rows]
            if mult_lb is None:
                mult_lb, mult_sg, mult_ub = glb, gsg, gub
            else:
                mult_lb, mult_sg, mult_ub = mult_lb * glb, mult_sg * gsg, mult_ub * gub
        assert mult_lb is not None and mult_sg is not None and mult_ub is not None
        return mult_lb, mult_sg, mult_ub

    def slim_relation(
        self, names: Sequence[str], *, rowid: str | None = None
    ) -> ColumnarAURelation:
        """Only the named columns, gathered over pairs, with the pair mults.

        The slim twin of ``expand().restrict(names)``: row-local stages
        (sort / window / groupby) run on it bit-identically because they read
        nothing else.  With ``rowid`` set, a certain ``int64`` row-number
        column is appended so stage outputs can be traced back to their
        source pair (the untouched fragments reattach through it).
        """
        columns = [self.gather_column(name) for name in names]
        schema_names = tuple(names)
        if rowid is not None:
            rid = np.arange(len(self), dtype=np.int64)
            columns.append(AttributeColumn(rowid, rid, rid, rid))
            schema_names += (rowid,)
        mult_lb, mult_sg, mult_ub = self.pair_multiplicities()
        return ColumnarAURelation(
            Schema(schema_names), columns, mult_lb, mult_sg, mult_ub
        )

    # -- restructuring --------------------------------------------------------

    def merge_span(self, lo: int, hi: int) -> "FactorisedAURelation":
        """Groups ``lo..hi`` (inclusive) flattened into one paired group.

        The merged group enumerates the span's sub-product in the same
        lexicographic order, so the overall pair order is unchanged — this is
        how an operator whose columns span several groups localises them
        before pushing down.
        """
        if lo == hi:
            return self
        span = self.groups[lo : hi + 1]
        total = 1
        for group in span:
            total *= group.size
        strides = [1] * len(span)
        for g in range(len(span) - 2, -1, -1):
            strides[g] = strides[g + 1] * span[g + 1].size
        if total == 0:
            pair = np.empty(0, dtype=np.int64)
        else:
            pair = np.arange(total, dtype=np.int64)
        fragments: list[ColumnarAURelation] = []
        indices: list[np.ndarray | None] = []
        lazy = all(group.mult_lb is None for group in span)
        mult_lb = mult_sg = mult_ub = None
        for g, group in enumerate(span):
            if total == 0:
                rows = pair
            else:
                rows = pair // strides[g] if strides[g] > 1 else pair
                rows = rows % group.size if len(span) > 1 else rows
            _record(total * len(group.indices))
            for fragment, idx in zip(group.fragments, group.indices):
                fragments.append(fragment)
                indices.append(rows if idx is None else idx[rows])
            if not lazy:
                glb, gsg, gub = group.multiplicities()
                glb, gsg, gub = glb[rows], gsg[rows], gub[rows]
                if mult_lb is None:
                    mult_lb, mult_sg, mult_ub = glb, gsg, gub
                else:
                    mult_lb, mult_sg, mult_ub = (
                        mult_lb * glb, mult_sg * gsg, mult_ub * gub
                    )
        merged = FactorisedGroup(
            tuple(fragments), tuple(indices), mult_lb, mult_sg, mult_ub, size=total
        )
        return FactorisedAURelation(
            self.schema, self.groups[:lo] + (merged,) + self.groups[hi + 1 :]
        )

    def _owning_span(self, names: Sequence[str]) -> tuple[int, int]:
        """The contiguous group span covering ``names`` (group 0 if empty)."""
        touched = sorted({self._locate[name][0] for name in names}) or [0]
        return touched[0], touched[-1]

    def _replace_group(self, g: int, group: FactorisedGroup) -> "FactorisedAURelation":
        return FactorisedAURelation(
            self.schema, self.groups[:g] + (group,) + self.groups[g + 1 :]
        )


def as_factorised(
    relation: "AURelation | ColumnarAURelation | FactorisedAURelation",
) -> FactorisedAURelation:
    """Coerce any relation layout to factorised (trivial wrap is zero-copy)."""
    if isinstance(relation, FactorisedAURelation):
        return relation
    return FactorisedAURelation.from_columnar(as_columnar(relation))


# ---------------------------------------------------------------------------
# Pushdown operators
# ---------------------------------------------------------------------------


def _group_slim(
    fact: FactorisedAURelation, group: FactorisedGroup, names: Sequence[str]
) -> ColumnarAURelation:
    """Group-level gather of ``names`` under dummy multiplicities.

    Expression evaluation never reads multiplicities, so the all-ones dummy
    is safe; the gather touches only *live* group rows (the index vectors),
    so rows a previous selection dropped are never evaluated.
    """
    ordered = [name for name in fact.schema if name in set(names)]
    columns = [group.column(name) for name in ordered]
    ones = np.ones(group.size, dtype=np.int64)
    return ColumnarAURelation(Schema(tuple(ordered)), columns, ones, ones, ones)


def fact_select(
    fact: FactorisedAURelation,
    predicate: Expression | Callable[[AUTuple], RangeBool],
) -> "FactorisedAURelation | ColumnarAURelation":
    """Selection pushed into the group owning the predicate's columns.

    The predicate's bounding-triple masks are evaluated at group level (over
    the merged span when the referenced columns straddle groups), the group's
    multiplicities filter per component, and rows with a zero possible
    multiplicity drop out of the group — exactly the eager
    :func:`repro.columnar.operators.select` applied through the product.
    Callable predicates (unknown column set) expand and run eagerly.
    """
    refs = referenced_attributes(predicate)
    if refs is None or not refs <= set(fact.schema):
        return ops.select(fact.expand(), predicate)
    lo, hi = fact._owning_span(sorted(refs))
    fact = fact.merge_span(lo, hi)
    group = fact.groups[lo]
    if group.is_simple:
        fragment = group.fragments[0]
        filtered = ops.select(fragment, predicate)
        return fact._replace_group(lo, FactorisedGroup((filtered,), (None,)))
    slim = _group_slim(fact, group, sorted(refs))
    certain, sg, possible = predicate_masks(slim, predicate)
    glb, gsg, gub = group.multiplicities()
    mult_lb = np.where(certain, glb, 0)
    mult_sg = np.where(sg, gsg, 0)
    mult_ub = np.where(possible, gub, 0)
    keep = np.flatnonzero(mult_ub > 0)
    return fact._replace_group(lo, group.filtered(keep, mult_lb, mult_sg, mult_ub))


def fact_project(
    fact: FactorisedAURelation, attributes: Sequence[str]
) -> ColumnarAURelation:
    """Bag projection: slim-gather the kept columns, then merge duplicates.

    The gather materialises only the projected columns (and the pair
    multiplicities) — never the dropped payload — and the duplicate merge is
    the same first-occurrence kernel the eager path uses, so the result is
    bit-identical to ``project(expand())``.
    """
    schema = fact.schema.project(list(attributes))
    return ops.merge_equal_rows(fact.slim_relation(schema.attributes))


def fact_extend(
    fact: FactorisedAURelation,
    name: str,
    expression: Expression | Callable[[AUTuple], RangeValue],
) -> "FactorisedAURelation | ColumnarAURelation":
    """Computed column, evaluated inside the group owning its inputs.

    The new column joins that group as an identity-aligned single-column
    fragment under neutral (all-ones) multiplicities, so the product's
    annotations are unchanged.  Callable expressions expand and run eagerly.
    """
    fact.schema.extend(name)  # validates the name early (clear SchemaError)
    refs = referenced_attributes(expression)
    if refs is None or not refs <= set(fact.schema):
        return ops.extend(fact.expand(), name, expression)
    lo, hi = fact._owning_span(sorted(refs))
    fact = fact.merge_span(lo, hi)
    group = fact.groups[lo]
    schema = fact.schema.extend(name)
    if group.is_simple:
        extended = ops.extend(group.fragments[0], name, expression)
        groups = fact.groups[:lo] + (FactorisedGroup((extended,), (None,)),) + fact.groups[lo + 1 :]
        return FactorisedAURelation(schema, groups)
    slim = _group_slim(fact, group, sorted(refs))
    lb, sg, ub = range_columns(slim, expression)
    ones = np.ones(group.size, dtype=np.int64)
    extra = ColumnarAURelation(
        Schema((name,)), (AttributeColumn(name, lb, sg, ub),), ones, ones, ones
    )
    extended_group = FactorisedGroup(
        group.fragments + (extra,),
        group.indices + (None,),
        group.mult_lb,
        group.mult_sg,
        group.mult_ub,
        size=group.size,
    )
    groups = fact.groups[:lo] + (extended_group,) + fact.groups[lo + 1 :]
    return FactorisedAURelation(schema, groups)


def fact_rename(
    fact: FactorisedAURelation, mapping: Mapping[str, str]
) -> FactorisedAURelation:
    """Attributes renamed per fragment (arrays shared, structure unchanged)."""
    mapping = dict(mapping)
    schema = fact.schema.rename(mapping)  # validates clashes on the full schema
    groups = []
    for group in fact.groups:
        fragments = []
        for fragment in group.fragments:
            sub = {old: new for old, new in mapping.items() if old in fragment.schema}
            fragments.append(fragment.rename(sub) if sub else fragment)
        groups.append(
            FactorisedGroup(
                tuple(fragments), group.indices,
                group.mult_lb, group.mult_sg, group.mult_ub, size=group.size,
            )
        )
    return FactorisedAURelation(schema, tuple(groups))


def _disambiguated(
    left: FactorisedAURelation, right: FactorisedAURelation
) -> tuple[Schema, FactorisedAURelation]:
    """The concatenated schema and the right side renamed to match it."""
    schema = left.schema.concat(right.schema, disambiguate=True)
    renamed = schema.attributes[len(left.schema.attributes) :]
    mapping = {
        old: new for old, new in zip(right.schema, renamed) if old != new
    }
    return schema, (fact_rename(right, mapping) if mapping else right)


def fact_cross(
    left: FactorisedAURelation, right: FactorisedAURelation
) -> FactorisedAURelation:
    """Cross product as pure group concatenation — no pair enumeration at all.

    The result's group list is ``left.groups + right.groups`` (right-hand
    name clashes ``_r``-suffixed), whose lexicographic product is exactly the
    eager grid's left-outer / right-inner pair order.
    """
    schema, right = _disambiguated(left, right)
    return FactorisedAURelation(schema, left.groups + right.groups)


def _take_column(column: AttributeColumn, idx: np.ndarray, name: str) -> AttributeColumn:
    _record(len(idx))
    return column.take(idx, name)


def fact_join(
    left: FactorisedAURelation,
    right: FactorisedAURelation,
    predicate: Expression | Callable[[AUTuple], RangeBool] | None = None,
    *,
    on: Sequence[str] | None = None,
    method: str = "auto",
) -> "FactorisedAURelation | ColumnarAURelation":
    """Equi-, sweep-, or band-join as matched-pair index vectors over the sides.

    When a non-grid candidate enumeration qualifies — any ``on`` key certain
    on one side (searchsorted), both sides uncertain but exactly vectorizable
    (the range×range sweep), or a band window extractable from the predicate
    of a key-less join (the shifted-endpoint sweep) — the result is a single
    paired group holding *both* sides' fragments aligned by the surviving
    candidate pairs: only the key columns and the pair index vectors
    materialise, never the payloads.  The gates are the same as the eager
    kernel's (:func:`repro.columnar.operators.candidate_key_pairs` /
    :func:`~repro.columnar.operators.band_candidate_pairs`); grid-method
    requests and non-qualifying inputs expand both sides and delegate to the
    eager join (automatic fallback, bit-identical by construction).
    """
    if on is None and predicate is None:
        raise OperatorError("join requires either a predicate or an `on` attribute list")
    if method not in ("auto", "grid", "searchsorted", "sweep", "band"):
        raise OperatorError(
            f"unknown join method {method!r}; expected 'auto', 'grid', "
            "'searchsorted', 'sweep' or 'band'"
        )
    if method in ("searchsorted", "sweep") and not on:
        raise OperatorError(f"the {method} equi-join requires an `on` attribute list")
    if method == "band" and predicate is None:
        raise OperatorError("the band join requires a predicate")
    if method == "band" and on:
        raise OperatorError(
            "the band join enumerates candidates from the predicate; drop the "
            "`on` keys or use method='auto'"
        )
    left.schema.require(list(on or ()))
    right.schema.require(list(on or ()))

    if method != "grid" and on:
        keys = list(on)
        left_keys = [left.gather_column(name) for name in keys]
        right_keys = [right.gather_column(name) for name in keys]
        kernels = ("searchsorted", "sweep") if method == "auto" else (method,)
        candidates = ops.candidate_key_pairs(left_keys, right_keys, kernels=kernels)
        if candidates is not None:
            return _fact_join_pairs(
                left, right, predicate, keys, left_keys, right_keys,
                candidates[0], candidates[1],
            )
        if method == "searchsorted":
            raise OperatorError(
                "searchsorted equi-join requires a certain (lb == sg == ub) "
                "key column on one side and NaN-free, exactly promotable numeric "
                "key columns; use method='grid' (or 'auto') for these inputs"
            )
        if method == "sweep":
            raise OperatorError(
                "the sweep equi-join requires NaN-free, exactly promotable "
                "numeric key columns; use method='grid' (or 'auto') for these inputs"
            )
    if method in ("auto", "band") and not on and predicate is not None:
        plan = ops.band_join_plan(predicate, left.schema, right.schema)
        pairs = None
        if plan is not None:
            left_name, right_name, low, high = plan
            pairs = ops.band_candidate_pairs(
                left.gather_column(left_name),
                right.gather_column(right_name),
                low,
                high,
            )
        if pairs is not None:
            return _fact_join_pairs(left, right, predicate, [], [], [], *pairs)
        if method == "band":
            raise OperatorError(
                "the band join requires an AND-tree predicate comparing a left "
                "attribute against a (constant-shifted) right attribute over "
                "NaN-free, exactly promotable numeric columns; use "
                "method='grid' (or 'auto') for these inputs"
            )
    return ops.join(left.expand(), right.expand(), predicate, on=on, method=method)


def _fact_join_pairs(
    left: FactorisedAURelation,
    right: FactorisedAURelation,
    predicate: Expression | Callable[[AUTuple], RangeBool] | None,
    on: list[str],
    left_keys: list[AttributeColumn],
    right_keys: list[AttributeColumn],
    left_rows: np.ndarray,
    right_rows: np.ndarray,
) -> "FactorisedAURelation | ColumnarAURelation":
    schema, right_renamed = _disambiguated(left, right)
    n = len(left_rows)
    _record(2 * n)

    certain = np.ones(n, dtype=bool)
    sg = np.ones(n, dtype=bool)
    possible = np.ones(n, dtype=bool)
    for left_key, right_key in zip(left_keys, right_keys):
        eq_cert, eq_sg, eq_poss = ops._equality_triple_arrays(
            left_key.lb[left_rows],
            left_key.sg[left_rows],
            left_key.ub[left_rows],
            right_key.lb[right_rows],
            right_key.sg[right_rows],
            right_key.ub[right_rows],
        )
        certain &= eq_cert
        sg &= eq_sg
        possible &= eq_poss
    if predicate is not None:
        refs = referenced_attributes(predicate)
        if refs is None:
            names = list(schema)  # callable: may read any attribute
        else:
            if not refs <= set(schema):
                # Reproduce the eager error without materialising payloads.
                schema.require(sorted(refs))
            names = [name for name in schema if name in refs]
        columns = []
        n_left = len(left.schema.attributes)
        for name in names:
            position = schema.index_of(name)
            if position < n_left:
                source = left.gather_column(left.schema.attributes[position])
                columns.append(_take_column(source, left_rows, name))
            else:
                source = right.gather_column(
                    right.schema.attributes[position - n_left]
                )
                columns.append(_take_column(source, right_rows, name))
        ones = np.ones(n, dtype=np.int64)
        slim = ColumnarAURelation(
            Schema(tuple(names)), columns, ones, ones, ones
        )
        p_cert, p_sg, p_poss = predicate_masks(slim, predicate)
        certain &= p_cert
        sg &= p_sg
        possible &= p_poss

    llb, lsg, lub = left.pair_multiplicities()
    rlb, rsg, rub = right.pair_multiplicities()
    mult_lb = np.where(certain, llb[left_rows] * rlb[right_rows], 0)
    mult_sg = np.where(sg, lsg[left_rows] * rsg[right_rows], 0)
    mult_ub = np.where(possible, lub[left_rows] * rub[right_rows], 0)
    keep = np.flatnonzero(mult_ub > 0)
    left_rows = left_rows[keep]
    right_rows = right_rows[keep]
    mult_lb, mult_sg, mult_ub = mult_lb[keep], mult_sg[keep], mult_ub[keep]

    fragments: list[ColumnarAURelation] = []
    indices: list[np.ndarray | None] = []
    for fact, rows in ((left, left_rows), (right_renamed, right_rows)):
        for g, group in enumerate(fact.groups):
            group_rows = fact._rows_in_group(g, rows)
            _record(len(rows) * len(group.indices))
            for fragment, idx in zip(group.fragments, group.indices):
                fragments.append(fragment)
                indices.append(group_rows if idx is None else idx[group_rows])
    merged = FactorisedGroup(
        tuple(fragments), tuple(indices), mult_lb, mult_sg, mult_ub,
        size=len(left_rows),
    )
    return FactorisedAURelation(schema, (merged,))


def fact_groupby_aggregate(
    fact: FactorisedAURelation,
    group_by: Sequence[str],
    aggregates: Sequence[tuple[str, str | None, str]],
) -> ColumnarAURelation:
    """Grouped aggregation over a slim gather of only the touched columns.

    The eager kernel reads nothing but the group-by columns, the aggregated
    value columns, and the multiplicities — all reproduced exactly by the
    slim gather — so running it there is bit-identical to aggregating the
    expansion.  NaN group keys expand first: that path re-materialises the
    row-major layout internally, which must see the full schema.
    """
    from repro.core.operators.aggregate import validate_aggregate_spec

    validate_aggregate_spec(fact.schema, group_by, aggregates)
    names = list(
        dict.fromkeys(
            list(group_by)
            + [attr for _f, attr, _n in aggregates if attr not in (None, "*")]
        )
    )
    slim = fact.slim_relation(tuple(names))
    if any(
        ops._components_carry_nan(slim.column(name)) for name in group_by
    ):
        return ops.groupby_aggregate(fact.expand(), group_by, aggregates)
    return ops.groupby_aggregate(slim, group_by, aggregates)


def _fresh_name(schema: Schema, *avoid: str) -> str:
    name = "_src"
    while name in schema or name in avoid:
        name += "_"
    return name


def _gather_sg_codes(fact: FactorisedAURelation, name: str) -> np.ndarray:
    """Selected-guess rank codes of one attribute, gathered over all pairs.

    Codes are computed on the *fragment* (small) and gathered through the
    pair indices: rank codes are order-preserving per value, so the gathered
    codes sort and tie exactly like codes computed on the expanded column —
    without materialising the expanded bound triples.
    """
    from repro.columnar.kernels import component_rank_codes

    g, f = fact._locate[name]
    group = fact.groups[g]
    codes = component_rank_codes(group.fragments[f].column(name), ("sg",))[0]
    frag_idx = group.indices[f]
    if len(fact.groups) == 1:
        if frag_idx is None:
            return codes
        idx = frag_idx
    else:
        rows = fact._rows_in_group(g, np.arange(len(fact), dtype=np.int64))
        idx = rows if frag_idx is None else frag_idx[rows]
    _record(len(idx))
    return codes[idx]


def _tiebreak_ranks(fact: FactorisedAURelation, order_by: Sequence[str]) -> np.ndarray:
    """Rank of every pair row under the eager ``<ᵗᵒᵗᵃˡ_O`` tiebreak.

    The eager ranked kernels break selected-guess ties by the *remaining*
    attributes (schema order, selected-guess components), then the input
    sequence.  One strict rank per pair row reproduces that comparator on
    the slim relation, so the untouched payload columns never need to be
    gathered for the sort.
    """
    from repro.columnar.kernels import lexsort_stable

    n = len(fact)
    in_order_by = set(order_by)
    rest = [name for name in fact.schema if name not in in_order_by]
    keys: list[np.ndarray] = [np.arange(n, dtype=np.int64)]
    for name in reversed(rest):
        keys.append(_gather_sg_codes(fact, name))
    order = lexsort_stable(keys)
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64)
    return ranks


def _ranked_slim(
    fact: FactorisedAURelation,
    order_by: Sequence[str],
    extra_names: Sequence[str],
    *avoid: str,
) -> tuple[ColumnarAURelation, str, str]:
    """The slim input of a ranked stage (sort / window): ``(relation, rowid, tie)``.

    Columns: the order-by attributes, then the ``<ᵗᵒᵗᵃˡ_O`` tiebreak rank —
    a strict permutation, so it must be the *first* non-order-by column: the
    ranked kernels consult the remaining attributes in schema order and the
    rank settles every tie before the extras could disagree with the eager
    ordering — then the extra referenced columns, then a certain source
    row-id column mapping each row back to its pair.  ``tie`` is the rank
    column's name: because the rank is strict, the stage kernels may use it
    as their *only* non-order-by sort key (``strict_tiebreak=tie``), skipping
    the rank-coding of the extras and the row-id entirely.
    """
    order_names = list(dict.fromkeys(order_by))
    extras = [
        name for name in dict.fromkeys(extra_names) if name not in set(order_names)
    ]
    tie = _fresh_name(fact.schema, *avoid)
    rowid = _fresh_name(fact.schema, tie, *avoid)
    columns = [fact.gather_column(name) for name in order_names]
    ranks = _tiebreak_ranks(fact, order_names)
    columns.append(AttributeColumn(tie, ranks, ranks, ranks))
    columns.extend(fact.gather_column(name) for name in extras)
    rid = np.arange(len(fact), dtype=np.int64)
    columns.append(AttributeColumn(rowid, rid, rid, rid))
    mult_lb, mult_sg, mult_ub = fact.pair_multiplicities()
    schema = Schema(tuple(order_names) + (tie,) + tuple(extras) + (rowid,))
    return (
        ColumnarAURelation(schema, columns, mult_lb, mult_sg, mult_ub),
        rowid,
        tie,
    )


def _any_fragment_nan(fact: FactorisedAURelation) -> bool:
    """Whether any fragment column carries NaN anywhere (conservative gate)."""
    return any(
        ops._components_carry_nan(column)
        for group in fact.groups
        for fragment in group.fragments
        for column in fragment.columns
    )


def _reattached(
    fact: FactorisedAURelation,
    source_rows: np.ndarray,
    extra_name: str,
    extra: AttributeColumn,
    mults: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> FactorisedAURelation:
    """Stage output rows re-joined to the untouched fragments.

    ``source_rows`` maps each output row to its source pair; every original
    fragment keeps its arrays and gets a composed index vector, the stage's
    new column rides along as an identity-aligned fragment, and the stage's
    (replaced) multiplicities become the group's explicit triple.
    """
    fragments: list[ColumnarAURelation] = []
    indices: list[np.ndarray | None] = []
    for g, group in enumerate(fact.groups):
        rows = fact._rows_in_group(g, source_rows)
        _record(len(source_rows) * len(group.indices))
        for fragment, idx in zip(group.fragments, group.indices):
            fragments.append(fragment)
            indices.append(rows if idx is None else idx[rows])
    ones = np.ones(len(source_rows), dtype=np.int64)
    fragments.append(
        ColumnarAURelation(
            Schema((extra_name,)),
            (extra.renamed(extra_name),),
            ones,
            ones,
            ones,
        )
    )
    indices.append(None)
    merged = FactorisedGroup(
        tuple(fragments), tuple(indices), *mults, size=len(source_rows)
    )
    return FactorisedAURelation(fact.schema.extend(extra_name), (merged,))


def fact_sort(
    fact: FactorisedAURelation,
    order_by: Sequence[str],
    *,
    k: int | None = None,
    position_attribute: str = "pos",
    descending: bool = False,
) -> FactorisedAURelation:
    """Uncertain sort over a slim gather of only the order-by columns.

    The position kernels read nothing but the order-by columns and the
    multiplicities; the emitted row order, duplicate split, and replaced
    multiplicities are therefore identical on the slim relation, and the
    untouched fragments reattach through a row-id column that rode along.
    """
    from repro.columnar.sort import sort_stage

    if not order_by:
        raise OperatorError("sort requires at least one order-by attribute")
    fact.schema.require(list(order_by))
    fact.schema.extend(position_attribute)  # validates the output name early
    if _any_fragment_nan(fact):
        # NaN rank codes must be computed on one shared value pool to tie
        # consistently; the eager stage (the reference) handles that case.
        return FactorisedAURelation.from_columnar(
            sort_stage(
                fact.expand(),
                order_by,
                k=k,
                position_attribute=position_attribute,
                descending=descending,
            )
        )
    slim, rowid, tie = _ranked_slim(fact, order_by, (), position_attribute)
    ranked = sort_stage(
        slim,
        order_by,
        k=k,
        position_attribute=position_attribute,
        descending=descending,
        strict_tiebreak=tie,
    )
    source_rows = ranked.column(rowid).sg.astype(np.int64, copy=False)
    return _reattached(
        fact,
        source_rows,
        position_attribute,
        ranked.column(position_attribute),
        (ranked.mult_lb, ranked.mult_sg, ranked.mult_ub),
    )


def fact_window(
    fact: FactorisedAURelation, spec: WindowSpec
) -> "FactorisedAURelation | ColumnarAURelation":
    """Windowed aggregation over a slim gather of the referenced columns.

    Only applies the slim sweep when no fragment column carries NaN anywhere
    (the eager classifier's NaN check is global — unreferenced columns enter
    the ``<ᵗᵒᵗᵃˡ_O`` tiebreakers of its fallback sorts) and the classifier
    picks the vectorized sweep; every other classification expands and runs
    the eager stage, which *is* the reference implementation.
    """
    from repro.columnar.window import _classify, _partitioned_sweep, window_stage

    schema = fact.schema
    schema.require(list(spec.order_by))
    schema.require(list(spec.partition_by))
    if spec.attribute is not None and spec.attribute != "*":
        schema.require([spec.attribute])
    if spec.output in schema:
        raise WindowSpecError(
            f"output attribute {spec.output!r} already exists in the schema"
        )
    if _any_fragment_nan(fact):
        return window_stage(fact.expand(), spec)
    extras = list(spec.partition_by) + (
        [spec.attribute] if spec.attribute not in (None, "*") else []
    )
    slim, rowid, tie = _ranked_slim(fact, spec.order_by, extras, spec.output)
    kind, sweep_spec, groups = _classify(slim, spec)
    if kind != "sweep":
        return window_stage(fact.expand(), spec)
    result = _partitioned_sweep(slim, sweep_spec, groups, strict_tiebreak=tie)
    source_rows = result.column(rowid).sg.astype(np.int64, copy=False)
    return _reattached(
        fact,
        source_rows,
        spec.output,
        result.column(spec.output),
        (result.mult_lb, result.mult_sg, result.mult_ub),
    )
