"""Native one-pass windowed aggregation over AU-DBs (Algorithm 3).

The operator first materialises uncertain sort positions with the native sort
sweep (Algorithm 1) and then performs a second sweep over the tuples ordered
by the lower bound of their position:

* ``openw`` — a min-heap on the position *upper* bound holds tuples whose
  windows may still gain members; a tuple is emitted (its aggregate bounds
  finalised) once an incoming tuple certainly follows it.
* ``cert`` — tuples that certainly exist, indexed by their position lower
  bound, provide the members that are certainly inside an emitted tuple's
  window.
* ``poss`` — a three-way *connected heap* (Section 8.2) over the tuples that
  may still fall into some open window, ordered by position upper bound (for
  eviction), by the aggregation attribute's lower bound (to pick the
  contributors minimising a sum), and by its negated upper bound (to pick the
  contributors maximising it).

Frames are ``N PRECEDING AND CURRENT ROW``; ``CURRENT ROW AND N FOLLOWING``
frames are handled through the mirrored-order reduction described in the
paper, and window specifications outside this class (two-sided frames,
frames excluding the current row, uncertain partition-by attributes) and
aggregation columns holding strings or ``None``
(:func:`~repro.window.bounds.sweeps_values`) transparently fall back to the
definitional implementation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.algorithms.connected_heap import ConnectedHeap
from repro.core.multiplicity import Multiplicity
from repro.errors import OperatorError
from repro.core.ranges import RangeValue
from repro.core.relation import AURelation
from repro.core.tuples import AUTuple
from repro.ranking.native import position_sweep
from repro.ranking.positions import relation_items
from repro.relational.aggregates import aggregate
from repro.window.bounds import WindowMember, aggregate_bounds, sweeps_values
from repro.window.semantics import window_rewrite
from repro.window.spec import WindowSpec

__all__ = ["window_native"]

_POSITION = "__window_pos"


@dataclass
class _Item:
    """One duplicate with materialised position bounds and aggregate value bounds."""

    tup: AUTuple  # original-schema tuple (without the position attribute)
    mult: Multiplicity
    seq: int
    pos_lb: int
    pos_sg: int
    pos_ub: int
    value_lb: float
    value_sg: float
    value_ub: float


def window_native(
    relation: AURelation,
    spec: WindowSpec,
    *,
    heap_factory: Callable[[Sequence[Callable[[_Item], object]]], object] = ConnectedHeap,
    backend: str = "python",
) -> AURelation:
    """One-pass uncertain windowed aggregation (the ``Imp`` method).

    ``heap_factory`` exists so benchmarks can swap the connected heap for the
    naive unconnected-heaps baseline of the paper's preliminary experiment.

    ``backend="columnar"`` evaluates the same bounds with the NumPy-backed
    vectorized kernels of :mod:`repro.columnar.window` (bit-identical results;
    the heap sweep is replaced by frame-membership interval kernels).
    """
    if backend == "columnar":
        if heap_factory is not ConnectedHeap:
            raise OperatorError(
                "heap_factory applies only to the python backend's sweep; "
                "the columnar backend replaces the heaps with vectorized kernels"
            )
        try:
            from repro.columnar.window import window_columnar  # local: NumPy optional
        except ImportError as exc:
            raise OperatorError("the columnar backend requires NumPy") from exc

        return window_columnar(relation, spec)
    if backend != "python":
        raise OperatorError(
            f"unknown window backend {backend!r}; expected 'python' or 'columnar'"
        )
    relation.schema.require(list(spec.order_by))
    relation.schema.require(list(spec.partition_by))

    if not spec.preceding_only:
        if spec.following_only:
            # CURRENT ROW AND N FOLLOWING == N PRECEDING AND CURRENT ROW over
            # the mirrored sort order.
            return window_native(relation, spec.mirrored(), heap_factory=heap_factory)
        # Two-sided frames and frames excluding the current row fall back to
        # the definitional implementation.
        return window_rewrite(relation, spec)

    if spec.function != "count" and spec.attribute not in (None, "*"):
        cells = (tup.value(spec.attribute) for tup, _mult in relation)
        if not sweeps_values(v for cell in cells for v in (cell.lb, cell.sg, cell.ub)):
            # Strings and None have no negated upper bound for the heap.
            return window_rewrite(relation, spec)

    if spec.partition_by:
        if _partitions_certain(relation, spec.partition_by):
            return _per_partition(relation, spec, heap_factory)
        return window_rewrite(relation, spec)

    return _sweep(relation, spec, heap_factory)


def _partitions_certain(relation: AURelation, partition_by: Sequence[str]) -> bool:
    return all(
        tup.value(name).is_certain for tup, _mult in relation for name in partition_by
    )


def _per_partition(
    relation: AURelation,
    spec: WindowSpec,
    heap_factory: Callable[[Sequence[Callable[[_Item], object]]], object],
) -> AURelation:
    """Split on (certain) partition keys and sweep each partition independently."""
    groups: dict[tuple, AURelation] = {}
    for tup, mult in relation:
        key = tuple(tup.value(name).sg for name in spec.partition_by)
        groups.setdefault(key, relation.empty_like()).add(tup, mult)
    out = AURelation(relation.schema.extend(spec.output))
    for group in groups.values():
        partial = _sweep(group, spec, heap_factory)
        for tup, mult in partial:
            out.add(tup, mult)
    return out


def _sweep(
    relation: AURelation,
    spec: WindowSpec,
    heap_factory: Callable[[Sequence[Callable[[_Item], object]]], object],
) -> AURelation:
    preceding = -spec.frame[0]
    items = _materialise_items(relation, spec)
    sg_results = _selected_guess_results(items, spec, preceding)

    out = AURelation(relation.schema.extend(spec.output))
    if not items:
        return out

    items.sort(key=lambda item: (item.pos_lb, item.seq))

    openw: list[tuple[int, int]] = []  # (pos_ub, index) — windows not yet closed
    open_lb: list[tuple[int, int]] = []  # (pos_lb, seq) with lazy deletion
    open_seqs: set[int] = set()
    cert: dict[int, list[_Item]] = {}
    poss = heap_factory(
        (
            lambda item: item.pos_ub,
            lambda item: item.value_lb,
            lambda item: -item.value_ub,
        )
    )
    cert_watermark = 0

    def emit(index: int, incoming_lb: int | None) -> None:
        nonlocal cert_watermark
        item = items[index]
        open_seqs.discard(item.seq)

        # Evict certain-member buckets below the new watermark.
        new_watermark = item.pos_ub - preceding
        while cert_watermark < new_watermark:
            cert.pop(cert_watermark, None)
            cert_watermark += 1

        # Evict tuples that cannot belong to any window still open.
        horizon = incoming_lb if incoming_lb is not None else item.pos_lb
        while open_lb and open_lb[0][1] not in open_seqs:
            heapq.heappop(open_lb)
        if open_lb:
            horizon = min(horizon, open_lb[0][0])
        horizon = min(horizon, item.pos_lb)
        while len(poss) and poss.peek_key(0) < horizon - preceding:
            poss.pop(0)

        value = _compute_bounds(item, spec, preceding, cert, poss, sg_results.get(item.seq))
        out.add(item.tup.extend(spec.output, value), item.mult)

    for index, item in enumerate(items):
        while openw and items[openw[0][1]].pos_ub < item.pos_lb:
            _pos_ub, closed = heapq.heappop(openw)
            emit(closed, item.pos_lb)
        heapq.heappush(openw, (item.pos_ub, index))
        heapq.heappush(open_lb, (item.pos_lb, item.seq))
        open_seqs.add(item.seq)
        if item.mult.lb > 0:
            cert.setdefault(item.pos_lb, []).append(item)
        poss.insert(item)

    while openw:
        _pos_ub, closed = heapq.heappop(openw)
        emit(closed, None)
    return out


def _materialise_items(relation: AURelation, spec: WindowSpec) -> list[_Item]:
    """Run the native sort and flatten its output into sweep items."""
    ranked = position_sweep(
        relation,
        relation_items(relation, spec.order_by, descending=spec.descending),
        spec.order_by,
        position_attribute=_POSITION,
        descending=spec.descending,
    )
    base_attrs = list(relation.schema.attributes)
    items: list[_Item] = []
    for seq, (tup, mult) in enumerate(ranked):
        position = tup.value(_POSITION)
        base = tup.project(base_attrs)
        if spec.function == "count" or spec.attribute in (None, "*"):
            value_lb = value_sg = value_ub = 1.0
        else:
            value = tup.value(spec.attribute)
            value_lb, value_sg, value_ub = value.lb, value.sg, value.ub
        items.append(
            _Item(
                tup=base,
                mult=mult,
                seq=seq,
                pos_lb=int(position.lb),
                pos_sg=int(position.sg),
                pos_ub=int(position.ub),
                value_lb=value_lb,
                value_sg=value_sg,
                value_ub=value_ub,
            )
        )
    return items


def _selected_guess_results(
    items: list[_Item], spec: WindowSpec, preceding: int
) -> dict[int, float]:
    """Deterministic window aggregate in the selected-guess world, per item."""
    sg_items = sorted(
        (item for item in items if item.mult.sg > 0), key=lambda item: (item.pos_sg, item.seq)
    )
    results: dict[int, float] = {}
    values = [item.value_sg for item in sg_items]
    for idx, item in enumerate(sg_items):
        start = max(0, idx - preceding)
        window_values = values[start : idx + 1]
        if spec.function == "count":
            results[item.seq] = float(len(window_values))
        else:
            results[item.seq] = aggregate(spec.function, window_values)
    return results


def _compute_bounds(
    item: _Item,
    spec: WindowSpec,
    preceding: int,
    cert: dict[int, list[_Item]],
    poss,
    sg_value: float | None,
) -> RangeValue:
    certain_members: list[WindowMember] = []
    certain_seqs: set[int] = {item.seq}

    # Members certainly inside the window: their position range is contained
    # in the positions the window certainly covers.  Scan whichever is
    # smaller — the window's position range or the occupied buckets — so
    # frames far wider than the relation stay O(n).
    low = item.pos_ub - preceding
    high = item.pos_lb
    if len(cert) <= high - low + 1:
        buckets = [members for position, members in cert.items() if low <= position <= high]
    else:
        buckets = [cert[position] for position in range(low, high + 1) if position in cert]
    for members in buckets:
        for member in members:
            if member.seq == item.seq:
                continue
            if member.pos_ub <= item.pos_lb and member.pos_lb >= low:
                certain_members.append(WindowMember(member.value_lb, member.value_ub, 1))
                certain_seqs.add(member.seq)

    def possibly_in_window(candidate: _Item) -> bool:
        return (
            candidate.seq not in certain_seqs
            and candidate.pos_lb <= item.pos_ub
            and candidate.pos_ub >= item.pos_lb - preceding
        )

    if spec.function == "sum":
        # Only the most negative / most positive possible contributors can
        # move the bounds, and at most `slots` of them fit into the frame:
        # fetch them through the connected heap's value-ordered components.
        slots = max(0, spec.frame_size - 1 - len(certain_members))
        possible_members = _extreme_possible_members(poss, possibly_in_window, slots)
    else:
        possible_members = [
            WindowMember(candidate.value_lb, candidate.value_ub, 1)
            for candidate in poss.items()
            if possibly_in_window(candidate)
        ]

    self_member = WindowMember(item.value_lb, item.value_ub, 1)
    # For an `N PRECEDING` frame the window certainly holds the defining row
    # plus one row per position certainly preceding it, up to N.
    certain_window_size = 1 + min(preceding, item.pos_lb)
    return aggregate_bounds(
        spec.function,
        self_member=self_member,
        certain=certain_members,
        possible=possible_members,
        frame_size=spec.frame_size,
        sg_value=sg_value,
        certain_window_size=certain_window_size,
    )


def _extreme_possible_members(
    poss,
    possibly_in_window: Callable[[_Item], bool],
    slots: int,
) -> list[WindowMember]:
    """Pick the possible members relevant to sum bounds via the heap components.

    Component 1 of the connected heap is ordered by the value lower bound
    (ascending) and yields the candidates that can lower the sum; component 2
    is ordered by the negated value upper bound and yields the candidates that
    can raise it.  Records are popped, filtered, and re-inserted, which keeps
    the per-window cost at ``O(N log n)`` with connected heaps — and exposes
    the linear-deletion penalty of the naive multi-heap baseline.
    """
    members: list[WindowMember] = []
    collected: set[int] = set()
    # Component 1 yields candidates in increasing order of their value lower
    # bound (the ones that can lower the sum most / must be counted for the
    # forced window slots); component 2 yields them in decreasing order of the
    # value upper bound (the ones that can raise the sum most).  The smallest
    # / largest `slots` candidates are sufficient for the bound computation.
    for component in (1, 2):
        popped: list[_Item] = []
        found = 0
        while found < slots and len(poss):
            candidate = poss.pop(component)
            popped.append(candidate)
            if possibly_in_window(candidate):
                if candidate.seq not in collected:
                    members.append(WindowMember(candidate.value_lb, candidate.value_ub, 1))
                    collected.add(candidate.seq)
                found += 1
        for candidate in popped:
            poss.insert(candidate)
    return members
