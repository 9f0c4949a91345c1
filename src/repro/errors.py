"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SchemaError(ReproError):
    """A relation, tuple, or operator was used with an incompatible schema."""


class InvalidRangeError(ReproError):
    """A range-annotated value violates ``lb <= sg <= ub``."""


class InvalidMultiplicityError(ReproError):
    """A multiplicity triple violates ``0 <= lb <= sg`` / ``lb <= ub``."""


class ExpressionError(ReproError):
    """An expression could not be evaluated over a tuple."""


class OperatorError(ReproError):
    """An operator was configured with invalid parameters."""


class WindowSpecError(OperatorError):
    """A window specification (frame bounds, partitioning, ordering) is invalid."""


class PlanError(OperatorError):
    """A :class:`~repro.columnar.plan.ColumnarPlan` was composed incorrectly.

    Raised, for example, when a stage is chained onto a plan result that was
    already materialised with ``.to_rows()`` — the row-major boundary is
    final; wrap the result in a fresh ``ColumnarPlan`` to keep querying it —
    or when a plan, SQL or serving entry point is given ``workers`` other
    than ``1``.
    """


class BoundViolationError(ReproError):
    """An AU-DB relation failed to bound an incomplete relation.

    Raised by verification helpers in :mod:`repro.core.bounding` when asked to
    *assert* (rather than test) a bounding relationship.
    """


class EnumerationLimitError(ReproError):
    """Exact possible-world enumeration would exceed the configured limit.

    The symbolic baseline (:mod:`repro.baselines.symb`) enumerates possible
    worlds exhaustively.  Just like the SMT-based implementation evaluated in
    the paper it is only feasible for small inputs; this error signals that the
    input is too large rather than silently running forever.
    """


class WorkloadError(ReproError):
    """A workload generator received inconsistent parameters."""


class ServingError(ReproError):
    """The serving layer (:mod:`repro.serving`) was misused.

    Raised for malformed queries against a :class:`~repro.serving.QueryServer`
    (unknown template names, parameter tuples that do not fit the template's
    slots) and for cache misconfiguration such as a non-positive capacity.
    """


class SqlError(ReproError):
    """A SQL query failed to tokenize, parse, resolve, or compile.

    Carries the offending query position; the rendered message includes the
    source line with a caret under the offending column::

        unknown column 'vv' at line 1, column 8
          SELECT vv FROM t
                 ^

    ``line`` and ``column`` are 1-based.  Errors raised before a position is
    known (or for whole-query problems) omit the caret block.
    """

    def __init__(
        self,
        reason: str,
        *,
        query: str | None = None,
        line: int | None = None,
        column: int | None = None,
    ):
        self.reason = reason
        self.query = query
        self.line = line
        self.column = column
        super().__init__(self._render())

    def _render(self) -> str:
        if self.line is None or self.column is None:
            return self.reason
        message = f"{self.reason} at line {self.line}, column {self.column}"
        if self.query is not None:
            lines = self.query.splitlines()
            if 1 <= self.line <= len(lines):
                source = lines[self.line - 1]
                caret = " " * (self.column - 1) + "^"
                message += f"\n  {source}\n  {caret}"
        return message
