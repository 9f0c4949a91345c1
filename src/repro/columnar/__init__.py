"""Columnar AU-relation backend (NumPy-backed vectorized kernels).

The tuple-at-a-time Python operators in :mod:`repro.ranking` pay interpreter
overhead per tuple; this package trades the row-major ``AURelation`` layout
for a columnar one — per-attribute ``lb`` / ``sg`` / ``ub`` arrays plus a
``(lb, sg, ub)`` multiplicity matrix — and evaluates the hot paths of the
native operators with vectorized kernels:

* interval-lexicographic "certainly / possibly precedes" comparisons,
* sort-position bounds (Equations 1-3 of the paper),
* selected-guess positions under the total order ``<ᵗᵒᵗᵃˡ_O``,
* the batched emission schedule that replaces per-tuple heap feeding in
  the one-pass sort / top-k sweep,
* the window sweep: frame membership as a position-sorted searchsorted
  pair sweep (:class:`~repro.columnar.kernels.FrameMemberIndex`, the Fig. 6
  containment / overlap conditions as range queries per interval-width
  bucket), grouped min-k / max-k aggregate bounds, and rolling
  selected-guess aggregates (prefix sums / sliding extrema), with the same
  mirrored-order reduction for ``CURRENT ROW AND N FOLLOWING`` frames as
  the native sweep, and
* the ``RA⁺`` operators of Fig. 2 (:mod:`repro.columnar.operators`):
  bound-preserving select / project / extend / rename / union / distinct /
  cross / join / groupby_aggregate, with predicates and scalar expressions
  evaluated as vectorized interval arithmetic over the aligned
  bound-component arrays (:mod:`repro.columnar.expressions`; object-dtype
  columns fall back to the scalar ``eval_range`` row by row).  Grouped
  aggregation runs on lexsort group codes + segmented reductions; equi-joins
  with a certain key side take a memory-safe sort/searchsorted path
  (endpoint binary searches materialise only actual match candidates)
  instead of the ``O(|L|·|R|)`` pair grid.

The public entry points (:func:`repro.ranking.topk.sort`,
:func:`repro.ranking.native.sort_native`,
:func:`repro.relational.sort.sort_operator`,
:func:`repro.window.native.window_native`,
:func:`repro.relational.window.window_aggregate`, and every operator in
:mod:`repro.core.operators`) expose the backend behind a
``backend="python" | "columnar"`` switch; results are bit-identical to the
Python backend (enforced by the differential property suite under
``tests/property/``).

**Plan composition.**  The per-call ``backend="columnar"`` switch converts
back to the row-major layout after every operator.  To keep a whole plan
columnar, chain the stages through :class:`~repro.columnar.plan.ColumnarPlan`
instead — each stage (``sort`` / ``topk`` / ``window`` included: their
kernels emit columnar output) hands the columnar intermediate straight to
the next, and only the single explicit ``.to_rows()`` boundary materialises
rows::

    from repro.columnar import ColumnarPlan

    result = (
        ColumnarPlan(orders)                        # AURelation or columnar
        .select(attr("v").ge(const(10)))            # stays columnar
        .join(ColumnarPlan(parts), on=["g"])        # stays columnar
        .window(first_spec)                         # stays columnar
        .select(attr("w").ge(const(100)))           # stays columnar
        .window(second_spec)                        # stays columnar
        .to_rows()                                  # boundary: row-major result
    )

**Factorised join results.**  Inside a plan, a ``join`` that qualifies for
a non-grid kernel does not gather its pairs' payload columns: it returns a
paired :class:`~repro.columnar.factorised.FactorisedAURelation` — both
inputs' fragments plus matched-pair index vectors — and downstream stages
push down into it, expanding only at the ``.to_rows()`` boundary.  See the
"Factorised representation" section of ``docs/ARCHITECTURE.md``.

See ``docs/PLAN_GUIDE.md`` for a stage-by-stage authoring guide.  NumPy is
required only when the columnar backend is actually selected; the rest of
the library stays importable without it.
"""

from repro.columnar.factorised import FactorisedAURelation
from repro.columnar.plan import ColumnarPlan
from repro.columnar.relation import ColumnarAURelation
from repro.columnar.sort import sort_columnar, sort_stage
from repro.columnar.window import window_columnar, window_stage

__all__ = [
    "ColumnarAURelation",
    "ColumnarPlan",
    "FactorisedAURelation",
    "sort_columnar",
    "sort_stage",
    "window_columnar",
    "window_stage",
]
