"""Factorised AU-relations: join results as index vectors, not pair grids.

A :class:`FactorisedAURelation` holds a relation as
:class:`~repro.columnar.relation.ColumnarAURelation` *fragments* aligned row
for row by *index vectors* — the one-level case of FDB's factorised joins.
A base table is **flat**: one fragment under the identity.  A join that
qualifies for a non-grid kernel (searchsorted, the range×range sweep, or a
band predicate) is **paired**: both sides' fragments behind the surviving
candidate pairs' index vectors, in the eager grid's left-outer /
right-inner order, under the explicit multiplicity triple the join
computed.  :meth:`FactorisedAURelation.expand` — the *only*
materialisation point — is therefore bit-identical to the expanded
pipeline, row order included.

Operators push down instead of expanding: ``select`` / ``extend`` evaluate
over a gather of only the columns they read (decided by
:func:`repro.columnar.expressions.referenced_attributes`) and filter or
extend the index vectors, ``join`` keeps the matched-pair index vectors
instead of gathering both payloads, and the row-local stages (``sort`` /
``top-k`` / ``window`` / ``groupby``) run over a *slim* gather of only the
columns they touch, reattaching untouched fragments through a row-id
indirection.  Anything outside the proven class — callable predicates,
expressions spanning unknown columns, NaN windows, grid-method joins —
expands and delegates to the eager kernels, which keeps every result
bit-identical to the Python backend by construction.

>>> from repro.core.expressions import attr, const
>>> from repro.core.relation import AURelation
>>> from repro.columnar.factorised import as_factorised, fact_join, fact_select
>>> orders = as_factorised(
...     AURelation.from_rows(["k", "a"], [((1, 10), 1), ((2, 20), 1), ((2, 30), 1)])
... )
>>> parts = as_factorised(
...     AURelation.from_rows(["k", "b"], [((2, 7), 1), ((2, 8), 1), ((3, 9), 1)])
... )
>>> orders.is_flat
True
>>> pairs = fact_join(orders, parts, on=["k"])
>>> len(pairs), pairs.is_flat, [len(fragment) for fragment in pairs.fragments]
(4, False, [3, 3])
>>> [index.tolist() for index in pairs.indices]
[[1, 1, 2, 2], [0, 1, 0, 1]]
>>> expanded = pairs.expand()  # the only materialisation point
>>> [tuple(v.sg for v in expanded.row_values(i)) for i in range(2)]
[(2, 20, 2, 7), (2, 20, 2, 8)]

Selection on ``b`` filters the index vectors; the fragments are untouched:

>>> kept = fact_select(pairs, attr("b").ge(const(8)))
>>> len(kept), [index.tolist() for index in kept.indices]
(2, [[1, 2], [1, 1]])
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
    "FactorisedAURelation",
    "as_factorised",
    "fact_select",
    "fact_project",
    "fact_narrow",
    "fact_extend",
    "fact_rename",
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


class FactorisedAURelation:
    """A columnar AU-relation held as fragments aligned by index vectors.

    ``fragments`` are columnar relations the logical rows draw from;
    ``indices`` aligns them row for row: entry ``j`` is either ``None``
    (identity: logical row ``i`` is fragment ``j``'s row ``i``) or an
    ``int64`` vector of length :attr:`size` into fragment ``j``.  Each
    logical row's hypercube is the concatenation of its gathered fragment
    rows.  A relation is one of two shapes:

    * **flat** — one fragment under the identity whose own annotations are
      the relation's (``mults`` is ``None``): a base table, wrapped with no
      copy.  Operators rebuild the fragment itself, so no dead rows linger.
    * **paired** — after a join that qualifies for a non-grid kernel: both
      sides' fragments behind the matched-pair index vectors, under the
      explicit multiplicity triple ``mults`` the join computed.

    :meth:`expand` materialises the logical relation; every other method
    keeps the factorised form.
    """

    __slots__ = ("schema", "fragments", "indices", "mults", "size", "_locate")

    def __init__(
        self,
        schema: Schema,
        fragments: Sequence[ColumnarAURelation],
        indices: Sequence[np.ndarray | None],
        mults: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ):
        self.schema = schema
        self.fragments = tuple(fragments)
        self.indices = tuple(indices)
        self.mults = mults
        self.size = len(self.fragments[0]) if mults is None else len(mults[0])
        self._locate = {
            name: f for f, fragment in enumerate(self.fragments) for name in fragment.schema
        }

    @staticmethod
    def from_columnar(relation: ColumnarAURelation) -> "FactorisedAURelation":
        """Wrap an expanded relation as a flat one (zero copies)."""
        return FactorisedAURelation(relation.schema, (relation,), (None,))

    @property
    def is_flat(self) -> bool:
        """Whether this is a plain columnar relation, wrapped."""
        return self.mults is None

    def __len__(self) -> int:
        return self.size

    # -- materialisation ------------------------------------------------------

    def expand(self) -> ColumnarAURelation:
        """The expanded columnar relation — the single materialisation point.

        Bit-identical to running the eager pipeline: every column gathers
        through its fragment's index vector, in schema order, under the pair
        multiplicities.  A flat relation returns its fragment with zero
        copies.
        """
        if self.is_flat:
            return self.fragments[0]
        _record(self.size * (len(self.schema.attributes) + 1))
        columns = []
        for name in self.schema:
            f = self._locate[name]
            column = self.fragments[f].column(name)
            idx = self.indices[f]
            columns.append(column if idx is None else column.take(idx, name))
        return ColumnarAURelation(self.schema, columns, *self.multiplicities())

    def to_relation(self) -> AURelation:
        """Row-major boundary conversion (expand, then merge zero/equal rows)."""
        return self.expand().to_relation()

    # -- gathering ------------------------------------------------------------

    def column(self, name: str) -> AttributeColumn:
        """One attribute gathered over all logical rows (zero-copy on identity)."""
        f = self._locate[name]
        column = self.fragments[f].column(name)
        idx = self.indices[f]
        if idx is None:
            return column
        _record(len(idx))
        return column.take(idx, name)

    def multiplicities(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The multiplicity triple over all logical rows."""
        if self.mults is not None:
            return self.mults
        fragment = self.fragments[0]
        return fragment.mult_lb, fragment.mult_sg, fragment.mult_ub

    def slim_relation(self, names: Sequence[str]) -> ColumnarAURelation:
        """Only the named columns, gathered over all rows, with the multiplicities.

        The slim twin of ``expand().restrict(names)``: row-local stages
        (project / groupby) run on it bit-identically because they read
        nothing else.
        """
        columns = [self.column(name) for name in names]
        return ColumnarAURelation(Schema(tuple(names)), columns, *self.multiplicities())


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


def _composed(fact: FactorisedAURelation, rows: np.ndarray) -> list[np.ndarray]:
    """Each fragment's index vector composed with the logical ``rows``.

    ``rows`` is an ``int64`` vector of ``fact``'s rows; the result indexes
    the same fragments (``idx[rows]``, or ``rows`` itself under the
    identity), so the fragments' arrays are never copied.
    """
    _record(len(rows) * len(fact.indices))
    return [rows if idx is None else idx[rows] for idx in fact.indices]


def _evaluation_slim(
    fact: FactorisedAURelation, names: Sequence[str]
) -> ColumnarAURelation:
    """The ``names`` columns over all rows, under dummy multiplicities.

    Expression evaluation never reads multiplicities, so the all-ones dummy
    is safe; the gather touches only *live* rows (the index vectors), so
    rows a previous selection dropped are never evaluated.
    """
    ordered = [name for name in fact.schema if name in set(names)]
    columns = [fact.column(name) for name in ordered]
    ones = np.ones(fact.size, dtype=np.int64)
    return ColumnarAURelation(Schema(tuple(ordered)), columns, ones, ones, ones)


def fact_select(
    fact: FactorisedAURelation,
    predicate: Expression | Callable[[AUTuple], RangeBool],
) -> "FactorisedAURelation | ColumnarAURelation":
    """Selection that filters the fragment, or the index vectors of pairs.

    A flat relation filters its fragment.  On a paired one the predicate's
    bounding-triple masks are evaluated over a gather of only the columns it
    reads, the multiplicities filter per component, and rows with a zero
    possible multiplicity drop out of the index vectors — exactly the eager
    :func:`repro.columnar.operators.select` applied to the expansion.
    Callable predicates (unknown column set) expand and run eagerly.
    """
    refs = referenced_attributes(predicate)
    if refs is None or not refs <= set(fact.schema):
        return ops.select(fact.expand(), predicate)
    if fact.is_flat:
        return FactorisedAURelation.from_columnar(ops.select(fact.fragments[0], predicate))
    certain, sg, possible = predicate_masks(_evaluation_slim(fact, refs), predicate)
    glb, gsg, gub = fact.multiplicities()
    mult_ub = np.where(possible, gub, 0)
    keep = np.flatnonzero(mult_ub > 0)
    mults = (
        np.where(certain, glb, 0)[keep],
        np.where(sg, gsg, 0)[keep],
        mult_ub[keep],
    )
    return FactorisedAURelation(fact.schema, fact.fragments, _composed(fact, keep), mults)


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


def fact_narrow(
    fact: FactorisedAURelation, attributes: Sequence[str]
) -> FactorisedAURelation:
    """Columns restricted (and reordered) to ``attributes``, rows untouched.

    Unlike :func:`fact_project`, equal hypercubes do not merge, so every later
    stage sees the same rows in the same order.  Each fragment keeps only its
    listed columns, sharing the arrays; fragments, index vectors and
    multiplicities all stay.
    """
    schema = fact.schema.project(list(attributes))
    fragments = [
        fragment.restrict([name for name in schema if name in fragment.schema])
        for fragment in fact.fragments
    ]
    return FactorisedAURelation(schema, fragments, fact.indices, fact.mults)


def fact_extend(
    fact: FactorisedAURelation,
    name: str,
    expression: Expression | Callable[[AUTuple], RangeValue],
) -> "FactorisedAURelation | ColumnarAURelation":
    """Computed column, evaluated over only the columns it reads.

    A flat relation extends its fragment.  On a paired one the new column
    joins as an identity-aligned single-column fragment under neutral
    (all-ones) multiplicities, so the pair annotations are unchanged.
    Callable expressions expand and run eagerly.
    """
    fact.schema.extend(name)  # validates the name early (clear SchemaError)
    refs = referenced_attributes(expression)
    if refs is None or not refs <= set(fact.schema):
        return ops.extend(fact.expand(), name, expression)
    if fact.is_flat:
        return FactorisedAURelation.from_columnar(
            ops.extend(fact.fragments[0], name, expression)
        )
    lb, sg, ub = range_columns(_evaluation_slim(fact, refs), expression)
    ones = np.ones(fact.size, dtype=np.int64)
    extra = ColumnarAURelation(
        Schema((name,)), (AttributeColumn(name, lb, sg, ub),), ones, ones, ones
    )
    return FactorisedAURelation(
        fact.schema.extend(name),
        fact.fragments + (extra,),
        fact.indices + (None,),
        fact.mults,
    )


def fact_rename(
    fact: FactorisedAURelation, mapping: Mapping[str, str]
) -> FactorisedAURelation:
    """Attributes renamed per fragment (arrays shared, structure unchanged)."""
    mapping = dict(mapping)
    schema = fact.schema.rename(mapping)  # validates clashes on the full schema
    fragments = []
    for fragment in fact.fragments:
        sub = {old: new for old, new in mapping.items() if old in fragment.schema}
        fragments.append(fragment.rename(sub) if sub else fragment)
    return FactorisedAURelation(schema, fragments, fact.indices, fact.mults)


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

    The one pair assembly behind every columnar join
    (:func:`repro.columnar.operators.join` documents ``method``).  When a
    non-grid candidate enumeration qualifies — any ``on`` key certain on one
    side (searchsorted), both sides uncertain but exactly vectorizable (the
    range×range sweep), or a band window extractable from the predicate of a
    key-less join (the shifted-endpoint sweep) — the result is a paired
    relation holding *both* sides' fragments aligned by the surviving
    candidate pairs: only the key columns and the pair index vectors
    materialise, never the payloads.  An empty side yields an empty paired
    relation whatever the method.  Grid-method requests and non-qualifying
    inputs expand both sides and run
    :func:`~repro.columnar.operators.grid_join` (automatic fallback,
    bit-identical by construction).
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
    keys = list(on or ())
    left.schema.require(keys)
    right.schema.require(keys)

    if len(left) == 0 or len(right) == 0:
        # No pairs can exist: assemble an empty candidate list (same schema and
        # predicate errors as the grid, without its scratch).
        empty = np.empty(0, dtype=np.int64)
        return _fact_join_pairs(left, right, predicate, [], [], empty, empty)
    if method != "grid" and on:
        left_keys = [left.column(name) for name in keys]
        right_keys = [right.column(name) for name in keys]
        kernels = ("searchsorted", "sweep") if method == "auto" else (method,)
        candidates = ops.candidate_key_pairs(left_keys, right_keys, kernels=kernels)
        if candidates is not None:
            return _fact_join_pairs(
                left, right, predicate, left_keys, right_keys,
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
                left.column(left_name),
                right.column(right_name),
                low,
                high,
            )
        if pairs is not None:
            return _fact_join_pairs(left, right, predicate, [], [], *pairs)
        if method == "band":
            raise OperatorError(
                "the band join requires an AND-tree predicate comparing a left "
                "attribute against a (constant-shifted) right attribute over "
                "NaN-free, exactly promotable numeric columns; use "
                "method='grid' (or 'auto') for these inputs"
            )
    return ops.grid_join(left.expand(), right.expand(), predicate, on)


def _fact_join_pairs(
    left: FactorisedAURelation,
    right: FactorisedAURelation,
    predicate: Expression | Callable[[AUTuple], RangeBool] | None,
    left_keys: list[AttributeColumn],
    right_keys: list[AttributeColumn],
    left_rows: np.ndarray,
    right_rows: np.ndarray,
) -> FactorisedAURelation:
    """A paired relation over the candidate pairs that possibly join.

    Each candidate is re-checked exactly: range equality on the key columns,
    then the predicate over a slim gather of the columns it reads.  Pairs
    with a zero possible multiplicity drop out.
    """
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
                source = left.column(left.schema.attributes[position])
                columns.append(_take_column(source, left_rows, name))
            else:
                source = right.column(
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

    llb, lsg, lub = left.multiplicities()
    rlb, rsg, rub = right.multiplicities()
    mult_lb = np.where(certain, llb[left_rows] * rlb[right_rows], 0)
    mult_sg = np.where(sg, lsg[left_rows] * rsg[right_rows], 0)
    mult_ub = np.where(possible, lub[left_rows] * rub[right_rows], 0)
    keep = np.flatnonzero(mult_ub > 0)
    return FactorisedAURelation(
        schema,
        left.fragments + right_renamed.fragments,
        _composed(left, left_rows[keep]) + _composed(right_renamed, right_rows[keep]),
        (mult_lb[keep], mult_sg[keep], mult_ub[keep]),
    )


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

    f = fact._locate[name]
    codes = component_rank_codes(fact.fragments[f].column(name), ("sg",))[0]
    idx = fact.indices[f]
    if idx is None:
        return codes
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
    columns = [fact.column(name) for name in order_names]
    ranks = _tiebreak_ranks(fact, order_names)
    columns.append(AttributeColumn(tie, ranks, ranks, ranks))
    columns.extend(fact.column(name) for name in extras)
    rid = np.arange(len(fact), dtype=np.int64)
    columns.append(AttributeColumn(rowid, rid, rid, rid))
    schema = Schema(tuple(order_names) + (tie,) + tuple(extras) + (rowid,))
    return (
        ColumnarAURelation(schema, columns, *fact.multiplicities()),
        rowid,
        tie,
    )


def _any_fragment_nan(fact: FactorisedAURelation) -> bool:
    """Whether any fragment column carries NaN anywhere (conservative gate)."""
    return any(
        ops._components_carry_nan(column)
        for fragment in fact.fragments
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

    ``source_rows`` maps each output row to its source row; every original
    fragment keeps its arrays and gets a composed index vector, the stage's
    new column rides along as an identity-aligned fragment, and the stage's
    (replaced) multiplicities become the explicit triple.
    """
    ones = np.ones(len(source_rows), dtype=np.int64)
    column = ColumnarAURelation(
        Schema((extra_name,)), (extra.renamed(extra_name),), ones, ones, ones
    )
    return FactorisedAURelation(
        fact.schema.extend(extra_name),
        fact.fragments + (column,),
        _composed(fact, source_rows) + [None],
        mults,
    )


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
    A flat relation runs the eager stage directly.
    """
    from repro.columnar.sort import sort_stage

    if not order_by:
        raise OperatorError("sort requires at least one order-by attribute")
    fact.schema.require(list(order_by))
    fact.schema.extend(position_attribute)  # validates the output name early
    if fact.is_flat or _any_fragment_nan(fact):
        # A flat relation has no fragments to reattach.  A NaN tiebreak
        # column must be rank-coded on one shared value pool to tie
        # consistently.  The eager stage (the reference) handles both cases,
        # and rejects a NaN order-by bound.
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

    Only applies the slim sweep when the relation is not flat, no fragment
    column carries NaN anywhere (the eager classifier's NaN check is global —
    unreferenced columns enter the ``<ᵗᵒᵗᵃˡ_O`` tiebreakers of its fallback
    sorts) and the classifier picks the vectorized sweep; every other case
    expands and runs the eager stage, which *is* the reference implementation.
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
    if fact.is_flat or _any_fragment_nan(fact):
        # A flat relation has no fragments to reattach: the eager stage skips
        # the slim gather's tiebreak and row-id columns.
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
