"""Columnar storage for AU-relations.

A :class:`ColumnarAURelation` stores an :class:`~repro.core.relation.AURelation`
in structure-of-arrays form: for every attribute three aligned arrays holding
the ``lb`` / ``sg`` / ``ub`` components of the range-annotated values, plus a
``(lb, sg, ub)`` multiplicity matrix.  Row ``i`` of every array corresponds to
the ``i``-th distinct range tuple of the source relation (in iteration
order), so conversions are lossless round trips:

>>> from repro.core.ranges import RangeValue
>>> from repro.core.relation import AURelation
>>> audb = AURelation.from_rows(
...     ["a", "b"], [((1, RangeValue(0, 1, 2)), 1), ((2, 5), (0, 1, 2))]
... )
>>> columnar = ColumnarAURelation.from_relation(audb)
>>> columnar.column("a").lb
array([1, 2])
>>> columnar.to_relation()._rows == audb._rows
True

Numeric columns are stored as ``int64`` / ``float64`` arrays (enabling the
vectorized kernels of :mod:`repro.columnar.kernels`); columns mixing types or
containing strings / ``None`` fall back to ``object`` arrays, which keeps the
representation lossless for every scalar the row-major layout accepts.

Rows exist only at the boundary (:meth:`ColumnarAURelation.to_relation`,
iteration): there the range values are built one column at a time.  A column
converted from row-major input also keeps the input's own
:class:`~repro.core.ranges.RangeValue` objects (:attr:`AttributeColumn.objects`);
row gathers carry them along, so the boundary reuses them instead of
rebuilding a range value per cell.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.multiplicity import Multiplicity
from repro.core.ranges import RangeValue, Scalar
from repro.core.relation import AURelation
from repro.core.schema import Schema
from repro.core.tuples import AUTuple

__all__ = [
    "ColumnarAURelation",
    "AttributeColumn",
    "ComponentProfile",
    "FLOAT64_EXACT_MAX",
    "column_array",
    "concat_components",
    "concat_relations",
    "as_columnar",
    "profile_components",
]


#: Largest magnitude float64 represents exactly; integer components at or
#: above it would round whenever a kernel promotes them to float64.
FLOAT64_EXACT_MAX = 2**53


class ComponentProfile:
    """Dtype/value facts the vectorized kernels gate their exactness on.

    ``has_nan`` covers ``float64`` arrays only (``object`` arrays force the
    scalar path regardless); ``int_magnitude`` is the largest absolute value
    across the integer arrays (0 when there are none).
    """

    __slots__ = ("has_object", "has_float", "has_nan", "int_magnitude")

    def __init__(self, has_object: bool, has_float: bool, has_nan: bool, int_magnitude: int):
        self.has_object = has_object
        self.has_float = has_float
        self.has_nan = has_nan
        self.int_magnitude = int_magnitude


def profile_components(arrays: Sequence[np.ndarray]) -> ComponentProfile:
    """One shared scan deciding whether vectorized float64 math is exact.

    Every kernel that promotes components to ``float64`` (expression
    evaluation, pairwise join equality, the window aggregate bounds) gates on
    the same facts; keeping the scan here prevents the exactness rules from
    drifting apart between call sites.
    """
    has_object = has_float = has_nan = False
    magnitude = 0
    for arr in arrays:
        if arr.dtype == object:
            has_object = True
        elif arr.dtype == np.float64:
            has_float = True
            if len(arr) and bool(np.isnan(arr).any()):
                has_nan = True
        elif len(arr):
            magnitude = max(magnitude, abs(int(arr.min())), abs(int(arr.max())))
    return ComponentProfile(has_object, has_float, has_nan, magnitude)


def column_array(values: Sequence[Scalar]) -> np.ndarray:
    """Pack one bound-component column into the tightest lossless array.

    ``int``-only columns become ``int64`` (falling back to ``object`` on
    overflow), ``float``-only columns become ``float64``, and everything else
    (strings, ``None``, booleans, mixed types) is stored as ``object`` so the
    original Python scalars survive the round trip unchanged.
    """
    kinds = {type(v) for v in values}
    if kinds == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    elif kinds == {float}:
        return np.array(values, dtype=np.float64)
    return np.fromiter(values, dtype=object, count=len(values))


class AttributeColumn:
    """The three bound-component arrays of one attribute.

    ``objects`` optionally holds each row's :class:`RangeValue` itself (an
    ``object`` array aligned with ``lb`` / ``sg`` / ``ub``): a column
    converted from row-major input keeps the input's objects, and row
    gathers (:meth:`take`, repeats, concatenations, renames) carry them.  A
    column whose components are *computed* carries none, so ``objects``
    always agrees with the arrays.
    """

    __slots__ = ("name", "lb", "sg", "ub", "objects")

    def __init__(
        self,
        name: str,
        lb: np.ndarray,
        sg: np.ndarray,
        ub: np.ndarray,
        objects: np.ndarray | None = None,
    ):
        self.name = name
        self.lb = lb
        self.sg = sg
        self.ub = ub
        self.objects = objects

    @property
    def is_numeric(self) -> bool:
        """Whether every component array has a (vectorizable) numeric dtype."""
        return all(arr.dtype != object for arr in (self.lb, self.sg, self.ub))

    def take(self, idx: np.ndarray, name: str | None = None) -> "AttributeColumn":
        """The rows at ``idx`` (renamed to ``name`` if given), objects included."""
        return self._gathered(lambda arr: arr[idx], name)

    def _gathered(
        self, gather: Callable[[np.ndarray], np.ndarray], name: str | None = None
    ) -> "AttributeColumn":
        """One row gather applied alike to the components and the objects."""
        objects = self.objects
        return AttributeColumn(
            self.name if name is None else name,
            gather(self.lb),
            gather(self.sg),
            gather(self.ub),
            None if objects is None else gather(objects),
        )

    def renamed(self, name: str) -> "AttributeColumn":
        """The same column under another attribute name (arrays shared)."""
        return AttributeColumn(name, self.lb, self.sg, self.ub, self.objects)

    def value(self, row: int) -> RangeValue:
        """Reconstruct the range value of one row."""
        if self.objects is not None:
            return self.objects[row]
        return RangeValue(_item(self.lb[row]), _item(self.sg[row]), _item(self.ub[row]))

    def range_values(self) -> list[RangeValue]:
        """Every row's range value: the carried objects, else built from the arrays."""
        if self.objects is not None:
            return self.objects.tolist()
        return list(map(RangeValue, _items(self.lb), _items(self.sg), _items(self.ub)))


def _item(value: object) -> Scalar:
    """Unwrap a NumPy scalar back to the corresponding Python scalar."""
    return value.item() if isinstance(value, np.generic) else value  # type: ignore[return-value]


def _items(arr: np.ndarray) -> list[Scalar]:
    """:func:`_item` over a whole component array (``tolist`` unwraps non-object dtypes)."""
    values = arr.tolist()
    return list(map(_item, values)) if arr.dtype == object else values


class ColumnarAURelation:
    """An AU-relation in structure-of-arrays (columnar) layout."""

    __slots__ = ("schema", "columns", "mult_lb", "mult_sg", "mult_ub")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[AttributeColumn],
        mult_lb: np.ndarray,
        mult_sg: np.ndarray,
        mult_ub: np.ndarray,
    ):
        self.schema = schema
        self.columns = tuple(columns)
        self.mult_lb = mult_lb
        self.mult_sg = mult_sg
        self.mult_ub = mult_ub

    # -- conversions ---------------------------------------------------------

    @staticmethod
    def from_relation(relation: AURelation) -> "ColumnarAURelation":
        """Losslessly convert a row-major AU-relation (iteration order kept).

        Each column keeps the input's own range values as its ``objects``,
        so converting back reuses them instead of rebuilding every cell.
        """
        schema = relation.schema
        values: list[tuple[RangeValue, ...]] = []
        mults: list[Multiplicity] = []
        for tup, mult in relation:
            values.append(tup.values)
            mults.append(mult)
        n = len(values)
        columns = []
        for j, name in enumerate(schema):
            cells = list(map(itemgetter(j), values))
            columns.append(
                AttributeColumn(
                    name,
                    column_array([cell.lb for cell in cells]),
                    column_array([cell.sg for cell in cells]),
                    column_array([cell.ub for cell in cells]),
                    np.fromiter(cells, dtype=object, count=n),
                )
            )
        return ColumnarAURelation(
            schema,
            columns,
            np.array([m.lb for m in mults], dtype=np.int64),
            np.array([m.sg for m in mults], dtype=np.int64),
            np.array([m.ub for m in mults], dtype=np.int64),
        )

    def to_relation(self) -> AURelation:
        """Convert back to the row-major layout (tuples with equal hypercubes merge)."""
        out = AURelation(self.schema)
        for tup, mult in self:
            out.add(tup, mult)
        return out

    def take(self, indices: Sequence[int] | np.ndarray) -> "ColumnarAURelation":
        """A columnar relation holding the selected rows (kernel-friendly slicing).

        Used by the per-partition window sweep: partitions become row subsets
        without a round trip through the row-major layout.  Every column
        gathers through :meth:`AttributeColumn.take`, objects included.
        """
        idx = np.asarray(indices, dtype=np.int64)
        return ColumnarAURelation(
            self.schema,
            [column.take(idx) for column in self.columns],
            self.mult_lb[idx],
            self.mult_sg[idx],
            self.mult_ub[idx],
        )

    # -- structural kernels (used by repro.columnar.operators) -----------------

    def mask(self, keep: np.ndarray) -> "ColumnarAURelation":
        """Rows where ``keep`` is true, in order (vectorized selection)."""
        return self.take(np.flatnonzero(keep))

    def repeat(self, repeats: int | np.ndarray) -> "ColumnarAURelation":
        """Each row repeated ``repeats`` times (row-aligned or scalar count)."""
        return self._gathered(lambda arr: np.repeat(arr, repeats))

    def tile(self, reps: int) -> "ColumnarAURelation":
        """The whole relation repeated ``reps`` times back to back."""
        return self._gathered(lambda arr: np.tile(arr, reps))

    def _gathered(
        self, gather: Callable[[np.ndarray], np.ndarray]
    ) -> "ColumnarAURelation":
        return ColumnarAURelation(
            self.schema,
            [column._gathered(gather) for column in self.columns],
            gather(self.mult_lb),
            gather(self.mult_sg),
            gather(self.mult_ub),
        )

    def concat(self, other: "ColumnarAURelation") -> "ColumnarAURelation":
        """Rows of ``self`` followed by rows of ``other`` (schemas must match)."""
        from repro.errors import SchemaError

        if self.schema != other.schema:
            raise SchemaError("concat requires identical schemas")
        return concat_relations((self, other))

    def rename(self, mapping: dict[str, str]) -> "ColumnarAURelation":
        """Attributes renamed according to ``mapping`` (arrays shared, not copied)."""
        schema = self.schema.rename(dict(mapping))
        columns = [column.renamed(name) for name, column in zip(schema, self.columns)]
        return ColumnarAURelation(schema, columns, self.mult_lb, self.mult_sg, self.mult_ub)

    def restrict(self, attributes: Sequence[str]) -> "ColumnarAURelation":
        """Columns restricted (and reordered) to ``attributes``, rows untouched.

        Structural only — equal projected hypercubes are *not* merged; the
        bag-projection operator (:func:`repro.columnar.operators.project`)
        layers the merge on top.  The kept columns are shared, not copied:
        no per-row work.
        """
        schema = self.schema.project(attributes)
        columns = [self.column(name) for name in attributes]
        return ColumnarAURelation(schema, columns, self.mult_lb, self.mult_sg, self.mult_ub)

    def with_column(self, column: AttributeColumn) -> "ColumnarAURelation":
        """One computed attribute appended (row-aligned component arrays).

        The existing columns are shared; no per-row work.  A computed column
        carries no ``objects``, so the boundary builds its range values from
        the arrays.
        """
        return ColumnarAURelation(
            self.schema.extend(column.name),
            self.columns + (column,),
            self.mult_lb,
            self.mult_sg,
            self.mult_ub,
        )

    def with_multiplicities(
        self, mult_lb: np.ndarray, mult_sg: np.ndarray, mult_ub: np.ndarray
    ) -> "ColumnarAURelation":
        """Same rows under replaced multiplicity triples (selection filtering)."""
        return ColumnarAURelation(self.schema, self.columns, mult_lb, mult_sg, mult_ub)

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.mult_lb)

    def column(self, name: str) -> AttributeColumn:
        """The bound-component arrays of one attribute."""
        return self.columns[self.schema.index_of(name)]

    def row_values(self, row: int) -> tuple[RangeValue, ...]:
        """The range values of one row (the carried objects where present)."""
        return tuple(column.value(row) for column in self.columns)

    def rows(self) -> list[tuple[RangeValue, ...]]:
        """Every row's range values, built one column at a time."""
        if not self.columns:
            return [()] * len(self)
        return list(zip(*(column.range_values() for column in self.columns)))

    def multiplicity(self, row: int) -> Multiplicity:
        return Multiplicity(
            int(self.mult_lb[row]), int(self.mult_sg[row]), int(self.mult_ub[row])
        )

    def __iter__(self) -> Iterator[tuple[AUTuple, Multiplicity]]:
        schema = self.schema
        lbs, sgs, ubs = (
            arr.astype(np.int64, copy=False).tolist()
            for arr in (self.mult_lb, self.mult_sg, self.mult_ub)
        )
        for values, lb, sg, ub in zip(self.rows(), lbs, sgs, ubs):
            yield AUTuple(schema, values), Multiplicity(lb, sg, ub)

    @property
    def total_possible(self) -> int:
        return int(self.mult_ub.sum()) if len(self) else 0

    @property
    def total_certain(self) -> int:
        return int(self.mult_lb.sum()) if len(self) else 0

    @property
    def total_sg(self) -> int:
        return int(self.mult_sg.sum()) if len(self) else 0


def concat_components(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate bound-component arrays without lossy dtype promotion.

    Equal non-object dtypes concatenate directly; any other mix (e.g.
    ``int64`` with ``float64``, whose promotion would round integers beyond
    ``2**53``, or anything involving ``object``) re-packs the Python scalars
    through :func:`column_array` so every value survives unchanged.  The
    single definition of the rule — :meth:`ColumnarAURelation.concat` and
    the window sweep's partition stitching both concatenate through here.
    """
    first_dtype = arrays[0].dtype
    if first_dtype != object and all(arr.dtype == first_dtype for arr in arrays):
        return np.concatenate(list(arrays))
    return column_array([value for arr in arrays for value in arr.tolist()])


def concat_relations(partials: Sequence["ColumnarAURelation"]) -> "ColumnarAURelation":
    """Concatenate partial results with one array copy per component.

    The stitch-up of the per-partition window sweeps and the incremental
    layer's appended rows: each bound component concatenates once across
    all partials — a pairwise ``concat`` loop would re-copy the accumulated
    arrays per partial (quadratic in the partial count) — and a column keeps
    its ``objects`` when every partial's column carries them.
    Requires at least one partial; all must share a schema.
    """
    first = partials[0]
    if len(partials) == 1:
        return first
    columns = []
    for j, column in enumerate(first.columns):
        parts = [p.columns[j] for p in partials]
        objects = [part.objects for part in parts]
        columns.append(
            AttributeColumn(
                column.name,
                concat_components([part.lb for part in parts]),
                concat_components([part.sg for part in parts]),
                concat_components([part.ub for part in parts]),
                None if any(o is None for o in objects) else np.concatenate(objects),
            )
        )
    return ColumnarAURelation(
        first.schema,
        columns,
        np.concatenate([p.mult_lb for p in partials]),
        np.concatenate([p.mult_sg for p in partials]),
        np.concatenate([p.mult_ub for p in partials]),
    )


def as_columnar(relation: AURelation | ColumnarAURelation) -> ColumnarAURelation:
    """Coerce any relation layout to columnar (no copy when already columnar).

    Factorised relations (:mod:`repro.columnar.factorised`) expand here —
    this is one of their sanctioned materialisation points, used when an
    eager kernel genuinely needs the full pair enumeration.
    """
    if isinstance(relation, ColumnarAURelation):
        return relation
    from repro.columnar.factorised import FactorisedAURelation  # avoids a module cycle

    if isinstance(relation, FactorisedAURelation):
        return relation.expand()
    return ColumnarAURelation.from_relation(relation)
