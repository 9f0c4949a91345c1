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
"""

from __future__ import annotations

from typing import Iterator, Sequence

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
    out = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        out[i] = value
    return out


class AttributeColumn:
    """The three bound-component arrays of one attribute."""

    __slots__ = ("name", "lb", "sg", "ub")

    def __init__(self, name: str, lb: np.ndarray, sg: np.ndarray, ub: np.ndarray):
        self.name = name
        self.lb = lb
        self.sg = sg
        self.ub = ub

    @property
    def is_numeric(self) -> bool:
        """Whether every component array has a (vectorizable) numeric dtype."""
        return all(arr.dtype != object for arr in (self.lb, self.sg, self.ub))

    def value(self, row: int) -> RangeValue:
        """Reconstruct the range value of one row."""
        return RangeValue(_item(self.lb[row]), _item(self.sg[row]), _item(self.ub[row]))


def _item(value: object) -> Scalar:
    """Unwrap a NumPy scalar back to the corresponding Python scalar."""
    return value.item() if isinstance(value, np.generic) else value  # type: ignore[return-value]


class ColumnarAURelation:
    """An AU-relation in structure-of-arrays (columnar) layout."""

    __slots__ = ("schema", "columns", "mult_lb", "mult_sg", "mult_ub", "_values")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[AttributeColumn],
        mult_lb: np.ndarray,
        mult_sg: np.ndarray,
        mult_ub: np.ndarray,
        _values: list[tuple[RangeValue, ...]] | None = None,
    ):
        self.schema = schema
        self.columns = tuple(columns)
        self.mult_lb = mult_lb
        self.mult_sg = mult_sg
        self.mult_ub = mult_ub
        # Cached row-major value tuples (populated when converting from an
        # AURelation) so that materialising results does not have to rebuild
        # every RangeValue from the arrays.
        self._values = _values

    # -- conversions ---------------------------------------------------------

    @staticmethod
    def from_relation(relation: AURelation) -> "ColumnarAURelation":
        """Losslessly convert a row-major AU-relation (iteration order kept)."""
        schema = relation.schema
        values: list[tuple[RangeValue, ...]] = []
        mults: list[Multiplicity] = []
        for tup, mult in relation:
            values.append(tup.values)
            mults.append(mult)
        columns = []
        for j, name in enumerate(schema):
            columns.append(
                AttributeColumn(
                    name,
                    column_array([row[j].lb for row in values]),
                    column_array([row[j].sg for row in values]),
                    column_array([row[j].ub for row in values]),
                )
            )
        return ColumnarAURelation(
            schema,
            columns,
            np.array([m.lb for m in mults], dtype=np.int64),
            np.array([m.sg for m in mults], dtype=np.int64),
            np.array([m.ub for m in mults], dtype=np.int64),
            _values=values,
        )

    def to_relation(self) -> AURelation:
        """Convert back to the row-major layout (tuples with equal hypercubes merge)."""
        out = AURelation(self.schema)
        for i in range(len(self)):
            out.add(
                AUTuple(self.schema, self.row_values(i)),
                Multiplicity(int(self.mult_lb[i]), int(self.mult_sg[i]), int(self.mult_ub[i])),
            )
        return out

    def take(self, indices: Sequence[int] | np.ndarray) -> "ColumnarAURelation":
        """A columnar relation holding the selected rows (kernel-friendly slicing).

        Used by the per-partition window sweep: partitions become row subsets
        without a round trip through the row-major layout.
        """
        idx = np.asarray(indices, dtype=np.int64)
        columns = [
            AttributeColumn(column.name, column.lb[idx], column.sg[idx], column.ub[idx])
            for column in self.columns
        ]
        values = None
        if self._values is not None:
            values = [self._values[i] for i in idx.tolist()]
        return ColumnarAURelation(
            self.schema,
            columns,
            self.mult_lb[idx],
            self.mult_sg[idx],
            self.mult_ub[idx],
            _values=values,
        )

    # -- structural kernels (used by repro.columnar.operators) -----------------

    def mask(self, keep: np.ndarray) -> "ColumnarAURelation":
        """Rows where ``keep`` is true, in order (vectorized selection)."""
        return self.take(np.flatnonzero(keep))

    def repeat(self, repeats: int | np.ndarray) -> "ColumnarAURelation":
        """Each row repeated ``repeats`` times (row-aligned or scalar count)."""
        columns = [
            AttributeColumn(
                column.name,
                np.repeat(column.lb, repeats),
                np.repeat(column.sg, repeats),
                np.repeat(column.ub, repeats),
            )
            for column in self.columns
        ]
        return ColumnarAURelation(
            self.schema,
            columns,
            np.repeat(self.mult_lb, repeats),
            np.repeat(self.mult_sg, repeats),
            np.repeat(self.mult_ub, repeats),
        )

    def tile(self, reps: int) -> "ColumnarAURelation":
        """The whole relation repeated ``reps`` times back to back."""
        columns = [
            AttributeColumn(
                column.name,
                np.tile(column.lb, reps),
                np.tile(column.sg, reps),
                np.tile(column.ub, reps),
            )
            for column in self.columns
        ]
        return ColumnarAURelation(
            self.schema,
            columns,
            np.tile(self.mult_lb, reps),
            np.tile(self.mult_sg, reps),
            np.tile(self.mult_ub, reps),
        )

    def concat(self, other: "ColumnarAURelation") -> "ColumnarAURelation":
        """Rows of ``self`` followed by rows of ``other`` (schemas must match)."""
        from repro.errors import SchemaError

        if self.schema != other.schema:
            raise SchemaError("concat requires identical schemas")
        columns = [
            AttributeColumn(
                left.name,
                _concat_components(left.lb, right.lb),
                _concat_components(left.sg, right.sg),
                _concat_components(left.ub, right.ub),
            )
            for left, right in zip(self.columns, other.columns)
        ]
        return ColumnarAURelation(
            self.schema,
            columns,
            np.concatenate([self.mult_lb, other.mult_lb]),
            np.concatenate([self.mult_sg, other.mult_sg]),
            np.concatenate([self.mult_ub, other.mult_ub]),
        )

    def rename(self, mapping: dict[str, str]) -> "ColumnarAURelation":
        """Attributes renamed according to ``mapping`` (arrays shared, not copied)."""
        schema = self.schema.rename(dict(mapping))
        columns = [
            AttributeColumn(name, column.lb, column.sg, column.ub)
            for name, column in zip(schema, self.columns)
        ]
        return ColumnarAURelation(
            schema, columns, self.mult_lb, self.mult_sg, self.mult_ub, _values=self._values
        )

    def restrict(self, attributes: Sequence[str]) -> "ColumnarAURelation":
        """Columns restricted (and reordered) to ``attributes``, rows untouched.

        Structural only — equal projected hypercubes are *not* merged; the
        bag-projection operator (:func:`repro.columnar.operators.project`)
        layers the merge on top.
        """
        schema = self.schema.project(attributes)
        columns = [self.column(name) for name in attributes]
        values = None
        if self._values is not None:
            indices = [self.schema.index_of(name) for name in attributes]
            values = [tuple(row[k] for k in indices) for row in self._values]
        return ColumnarAURelation(
            schema, columns, self.mult_lb, self.mult_sg, self.mult_ub, _values=values
        )

    def with_column(self, column: AttributeColumn) -> "ColumnarAURelation":
        """One computed attribute appended (row-aligned component arrays).

        When the receiver carries the row-major value cache, it is extended
        with the new column's range values (only the appended column pays a
        scalar pass), so boundary conversions after a sort / window /
        extend stage stay as cheap as before the stage.
        """
        values = None
        if self._values is not None:
            lb, sg, ub = column.lb.tolist(), column.sg.tolist(), column.ub.tolist()
            values = [
                base + (RangeValue(lb[i], sg[i], ub[i]),)
                for i, base in enumerate(self._values)
            ]
        return ColumnarAURelation(
            self.schema.extend(column.name),
            self.columns + (column,),
            self.mult_lb,
            self.mult_sg,
            self.mult_ub,
            _values=values,
        )

    def with_multiplicities(
        self, mult_lb: np.ndarray, mult_sg: np.ndarray, mult_ub: np.ndarray
    ) -> "ColumnarAURelation":
        """Same rows under replaced multiplicity triples (selection filtering)."""
        return ColumnarAURelation(
            self.schema, self.columns, mult_lb, mult_sg, mult_ub, _values=self._values
        )

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.mult_lb)

    def column(self, name: str) -> AttributeColumn:
        """The bound-component arrays of one attribute."""
        return self.columns[self.schema.index_of(name)]

    def row_values(self, row: int) -> tuple[RangeValue, ...]:
        """The range values of one row (cached when converted from row-major)."""
        if self._values is not None:
            return self._values[row]
        return tuple(column.value(row) for column in self.columns)

    def multiplicity(self, row: int) -> Multiplicity:
        return Multiplicity(
            int(self.mult_lb[row]), int(self.mult_sg[row]), int(self.mult_ub[row])
        )

    def __iter__(self) -> Iterator[tuple[AUTuple, Multiplicity]]:
        for i in range(len(self)):
            yield AUTuple(self.schema, self.row_values(i)), self.multiplicity(i)

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


def _concat_components(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    return concat_components((left, right))


def concat_relations(partials: Sequence["ColumnarAURelation"]) -> "ColumnarAURelation":
    """Concatenate partial results with one array copy per component.

    The stitch-up of the per-partition window sweeps and the incremental
    layer's appended rows: each bound component concatenates once across
    all partials — a pairwise ``concat`` loop would re-copy the accumulated
    arrays per partial (quadratic in the partial count) — and the row-value
    caches merge when every partial carries one.
    Requires at least one partial; all must share a schema.
    """
    first = partials[0]
    if len(partials) == 1:
        return first
    columns = [
        AttributeColumn(
            column.name,
            concat_components([p.columns[j].lb for p in partials]),
            concat_components([p.columns[j].sg for p in partials]),
            concat_components([p.columns[j].ub for p in partials]),
        )
        for j, column in enumerate(first.columns)
    ]
    values = None
    if all(p._values is not None for p in partials):
        values = [row for p in partials for row in p._values]
    return ColumnarAURelation(
        first.schema,
        columns,
        np.concatenate([p.mult_lb for p in partials]),
        np.concatenate([p.mult_sg for p in partials]),
        np.concatenate([p.mult_ub for p in partials]),
        _values=values,
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
