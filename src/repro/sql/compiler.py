"""Lowering and execution: SQL statements → plan trees → engine stages.

The compiler resolves names (tables, aliases, columns — every failure a
positioned :class:`~repro.errors.SqlError`), lowers a parsed
:class:`~repro.sql.ast.SelectStatement` into the plan tree of
:mod:`repro.plan`, optionally runs the rule-based optimizer
(:mod:`repro.sql.optimizer`), and runs the tree on one of its two
interpreters:

* ``backend="columnar"``: :func:`repro.columnar.plan.run_columnar`, one
  :class:`~repro.columnar.plan.ColumnarPlan` stage per node (factorised
  joins by default);
* ``backend="python"``: :func:`repro.plan.run_python`, the row-at-a-time
  reference operators, the oracle the SQL-differential property suite
  compares against.  This path imports no NumPy.

The *unoptimized* lowering deliberately pins ``method="grid"`` on every
join and prunes nothing, so the optimized/unoptimized pair brackets what
the rules buy without changing a single output bit.

>>> from repro.core.relation import AURelation
>>> catalog = {"t": AURelation.from_rows(["k", "v"], [((1, 10), 1), ((2, 5), 1)])}
>>> for tup, mult in run_sql("SELECT v FROM t WHERE k = 2", catalog):
...     print(tup.value("v"), mult)
5 (1,1,1)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro import plan as L
from repro.core.expressions import (
    Arithmetic, BooleanOp, Comparison, Expression, Not, attr, const,
)
from repro.core.relation import AURelation
from repro.core.schema import Schema
from repro.errors import SqlError, WindowSpecError
from repro.plan import PlanSpec, children, plan_schema, require_serial, run_python
from repro.sql.ast import (
    BinaryOp, ColumnRef, FuncCall, Literal, NotExpr, SelectStatement, SqlExpr,
)
from repro.sql.parser import parse
from repro.window import WindowSpec

__all__ = ["CompiledQuery", "compile_sql", "run_sql", "sql_to_spec", "lower"]

_AGGREGATE_FUNCTIONS = frozenset({"sum", "count", "avg", "min", "max"})
_ARITHMETIC_OPS = frozenset({"+", "-", "*"})
_COMPARISON_MAP = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


# -- name resolution ---------------------------------------------------------


@dataclass
class _Source:
    """One FROM/JOIN table in scope: original column → physical name."""

    names: tuple[str, ...]          # alias (if any) + table name
    columns: dict[str, str]


class _Scope:
    def __init__(self, query: str):
        self.query = query
        self.sources: list[_Source] = []
        self.schema = Schema(())

    def error(self, reason: str, node) -> SqlError:
        return SqlError(
            reason, query=self.query,
            line=getattr(node, "line", None), column=getattr(node, "column", None),
        )

    def source_for(self, name: str) -> Optional[_Source]:
        for source in self.sources:
            if name in source.names:
                return source
        return None

    def resolve(self, ref: ColumnRef) -> str:
        """The physical (post-disambiguation) attribute a column ref names."""
        if ref.table is not None:
            source = self.source_for(ref.table)
            if source is None:
                raise self.error(f"unknown table or alias {ref.table!r}", ref)
            physical = source.columns.get(ref.name)
            if physical is None:
                raise self.error(f"unknown column {ref.table!r}.{ref.name!r}", ref)
            return physical
        candidates = [
            source.columns[ref.name]
            for source in self.sources
            if ref.name in source.columns
        ]
        if not candidates:
            raise self.error(f"unknown column {ref.name!r}", ref)
        if len(candidates) > 1:
            raise self.error(
                f"ambiguous column {ref.name!r}; qualify it with a table name", ref
            )
        return candidates[0]


# -- lowering ----------------------------------------------------------------


class _Lowering:
    def __init__(self, query: str, statement: SelectStatement, schemas: Mapping[str, Schema]):
        self.query = query
        self.statement = statement
        self.schemas = schemas
        self.scope = _Scope(query)
        self._fresh = 0

    def error(self, reason: str, node) -> SqlError:
        return self.scope.error(reason, node)

    def fresh(self, prefix: str) -> str:
        self._fresh += 1
        return f"_sql{prefix}{self._fresh}"

    # -- FROM / JOIN ---------------------------------------------------------

    def _scan(self, table) -> L.Scan:
        schema = self.schemas.get(table.name)
        if schema is None:
            known = ", ".join(sorted(self.schemas)) or "none"
            raise self.error(
                f"unknown table {table.name!r} (catalog has: {known})", table
            )
        return L.Scan(table.name, schema)

    def _add_source(self, table, schema: Schema, physicals: Sequence[str]) -> None:
        names = (table.alias,) if table.alias else (table.name,)
        if any(self.scope.source_for(n) for n in names):
            raise self.error(f"duplicate table name or alias {names[0]!r}", table)
        self.scope.sources.append(
            _Source(names, dict(zip(schema.attributes, physicals)))
        )

    def lower_from(self) -> PlanSpec:
        statement = self.statement
        scan = self._scan(statement.source)
        self._add_source(statement.source, scan.schema, scan.schema.attributes)
        self.scope.schema = scan.schema
        plan: PlanSpec = scan
        for clause in statement.joins:
            right = self._scan(clause.table)
            combined = self.scope.schema.concat(right.schema, disambiguate=True)
            post_right = combined.attributes[len(self.scope.schema):]
            right_scope_cols = dict(zip(right.schema.attributes, post_right))
            on_keys: list[str] = []
            predicates: list[Expression] = []
            for conjunct in _split_and(clause.condition):
                key = self._equi_key(conjunct, clause.table, right)
                if key is not None:
                    on_keys.append(key)
                    continue
                right_names = (clause.table.alias,) if clause.table.alias else (clause.table.name,)
                predicates.append(
                    self._lower_scalar(
                        conjunct, extra=(right_names, right_scope_cols), boolean=True
                    )
                )
            predicate = _and_all(predicates)
            plan = L.Join(
                plan, right,
                on=tuple(on_keys) or None, predicate=predicate, method="grid",
            )
            self._add_source(clause.table, right.schema, post_right)
            self.scope.schema = combined
        return plan

    def _equi_key(self, conjunct, table, right: L.Scan) -> Optional[str]:
        """The shared ``on`` key name a conjunct encodes, if it does.

        ``left.k = right.k`` (same column name on both sides, one per input)
        becomes an ``on`` key the kernel planner can anchor on; everything
        else stays a join predicate.
        """
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            return None
        sides = conjunct.left, conjunct.right
        if not all(isinstance(side, ColumnRef) for side in sides):
            return None
        right_names = (table.alias,) if table.alias else (table.name,)
        for a, b in (sides, sides[::-1]):
            left_physical = self._try_resolve_left(a)
            right_name = self._try_resolve_right(b, right_names, right)
            if left_physical is not None and right_name == left_physical:
                return left_physical
        return None

    def _try_resolve_left(self, ref: ColumnRef) -> Optional[str]:
        try:
            return self.scope.resolve(ref)
        except SqlError:
            return None

    def _try_resolve_right(
        self, ref: ColumnRef, right_names: tuple[str, ...], right: L.Scan
    ) -> Optional[str]:
        if ref.table is not None and ref.table not in right_names:
            return None
        if ref.name in right.schema.attributes:
            return ref.name
        return None

    # -- expressions ---------------------------------------------------------

    def _lower_scalar(
        self,
        expression: SqlExpr,
        *,
        extra: tuple[tuple[str, ...], Mapping[str, str]] | None = None,
        boolean: bool = False,
    ) -> Expression:
        """Lower a parsed expression to a core expression tree.

        ``extra`` is ``(right_names, mapping)`` for the table currently
        being joined — its visible names plus original column → post-join
        physical — used while lowering ``ON`` conditions, before the right
        table enters the scope.  ``boolean`` permits comparisons and
        AND/OR/NOT (predicates); scalar positions reject them.
        """
        if isinstance(expression, Literal):
            return const(expression.value)
        if isinstance(expression, ColumnRef):
            if extra is not None:
                right_names, mapping = extra
                if expression.table is not None and expression.table in right_names:
                    physical = mapping.get(expression.name)
                    if physical is None:
                        raise self.error(
                            f"unknown column {expression.table!r}.{expression.name!r}",
                            expression,
                        )
                    return attr(physical)
                if expression.table is None and expression.name in mapping:
                    if self._try_resolve_left(expression) is not None:
                        raise self.error(
                            f"ambiguous column {expression.name!r}; qualify it "
                            "with a table name",
                            expression,
                        )
                    return attr(mapping[expression.name])
            return attr(self.scope.resolve(expression))
        if isinstance(expression, BinaryOp):
            if expression.op in _ARITHMETIC_OPS:
                return Arithmetic(
                    expression.op,
                    self._lower_scalar(expression.left, extra=extra),
                    self._lower_scalar(expression.right, extra=extra),
                )
            if expression.op in _COMPARISON_MAP:
                if not boolean:
                    raise self.error(
                        "comparisons are not allowed in a scalar position", expression
                    )
                return Comparison(
                    _COMPARISON_MAP[expression.op],
                    self._lower_scalar(expression.left, extra=extra),
                    self._lower_scalar(expression.right, extra=extra),
                )
            if expression.op in ("AND", "OR"):
                if not boolean:
                    raise self.error(
                        "AND/OR are not allowed in a scalar position", expression
                    )
                return BooleanOp(
                    expression.op.lower(),
                    self._lower_scalar(expression.left, extra=extra, boolean=True),
                    self._lower_scalar(expression.right, extra=extra, boolean=True),
                )
            raise self.error(f"unsupported operator {expression.op!r}", expression)
        if isinstance(expression, NotExpr):
            if not boolean:
                raise self.error("NOT is not allowed in a scalar position", expression)
            return Not(self._lower_scalar(expression.operand, extra=extra, boolean=True))
        if isinstance(expression, FuncCall):
            raise self.error(
                f"aggregate {expression.name!r} is not allowed here", expression
            )
        raise self.error("unsupported expression", expression)

    # -- SELECT list ---------------------------------------------------------

    def lower(self) -> PlanSpec:
        statement = self.statement
        plan = self.lower_from()
        if statement.where is not None:
            plan = L.Filter(plan, self._lower_scalar(statement.where, boolean=True))

        output: list[tuple[str, SqlExpr]] = []  # (output name, item expression)
        for item in statement.items:
            if item.alias is not None:
                name = item.alias
            elif isinstance(item.expression, ColumnRef):
                name = item.expression.name
            else:
                node = item.expression
                raise self.error("computed select items need an alias (AS name)", node)
            output.append((name, item.expression))
        names = [name for name, _ in output]
        for name in names:
            if names.count(name) > 1:
                raise self.error(f"duplicate output column {name!r}", statement.items[0].expression)

        aggregated = bool(statement.group_by) or any(
            call.window is None for _n, e in output for call in _calls(e)
        )
        group_keys: list[str] = []
        if aggregated:
            plan, value_of = self._lower_aggregated(plan, output, group_keys)
        else:
            plan, value_of = self._lower_plain(plan, output)

        alias_to_physical = dict(zip(names, value_of))
        plan = self._lower_order_limit(plan, alias_to_physical)

        plan = L.Project(plan, tuple(_dedupe_keep_first(value_of)))
        mapping = tuple(
            sorted((physical, name) for name, physical in alias_to_physical.items() if physical != name)
        )
        if mapping:
            plan = L.Rename(plan, mapping)
        return plan

    def _lower_plain(self, plan, output):
        """SELECT list without grouping: base columns, scalars, windows."""
        value_of: list[str] = []
        for name, expression in output:
            plan, physical = self._lower_item(plan, expression, resolve=self._resolve_base)
            value_of.append(physical)
        return plan, value_of

    def _lower_aggregated(self, plan, output, group_keys: list[str]):
        statement = self.statement
        for ref in statement.group_by:
            physical = self.scope.resolve(ref)
            if physical not in group_keys:
                group_keys.append(physical)

        aggregates: list[tuple[str, Optional[str], str]] = []
        agg_names: dict[tuple, str] = {}

        def aggregate_output(call: FuncCall) -> str:
            if call.name not in _AGGREGATE_FUNCTIONS:
                raise self.error(
                    f"unknown aggregate {call.name!r}; supported: "
                    f"{', '.join(sorted(_AGGREGATE_FUNCTIONS))}", call
                )
            nonlocal plan
            if call.star or call.arg is None:
                if call.name != "count":
                    raise self.error(f"{call.name}(*) is not supported; name a column", call)
                source = None
            elif isinstance(call.arg, ColumnRef):
                source = self.scope.resolve(call.arg)
            else:
                if _calls(call.arg):
                    raise self.error("nested aggregates are not supported", call)
                source = self.fresh("arg")
                plan = L.Extend(plan, source, self._lower_scalar(call.arg))
            key = (call.name, source)
            if key not in agg_names:
                out = self.fresh("agg")
                agg_names[key] = out
                aggregates.append((call.name, source, out))
            return agg_names[key]

        # First pass: collect every plain aggregate call (extends land
        # below the Aggregate node) before the node itself is built.
        rewritten: list[tuple[str, SqlExpr, dict[int, str]]] = []
        for name, expression in output:
            call_outputs: dict[int, str] = {}
            for call in _calls(expression):
                if call.window is None:
                    call_outputs[id(call)] = aggregate_output(call)
            rewritten.append((name, expression, call_outputs))

        plan = L.Aggregate(plan, tuple(group_keys), tuple(aggregates))
        visible = set(plan_schema(plan).attributes)

        def resolve_post(ref: ColumnRef) -> str:
            physical = self.scope.resolve(ref)
            if physical not in visible:
                raise self.error(
                    f"column {ref.name!r} must appear in GROUP BY or inside an aggregate",
                    ref,
                )
            return physical

        value_of: list[str] = []
        for name, expression, call_outputs in rewritten:
            plan, physical = self._lower_item(
                plan, expression, resolve=resolve_post, call_outputs=call_outputs
            )
            visible = set(plan_schema(plan).attributes)
            value_of.append(physical)
        return plan, value_of

    def _lower_item(self, plan, expression, *, resolve, call_outputs=None):
        """Lower one SELECT item onto ``plan``; returns (plan, physical name).

        Window calls become :class:`~repro.sql.ast.Window` nodes; any other
        computed expression becomes an :class:`~repro.sql.ast.Extend` with a
        fresh internal name (the final Rename restores the alias).
        """
        call_outputs = dict(call_outputs or {})
        for call in _calls(expression):
            if id(call) not in call_outputs:
                plan, out = self._lower_window(plan, call, resolve)
                call_outputs[id(call)] = out

        def lower(e: SqlExpr) -> Expression:
            if isinstance(e, FuncCall):
                return attr(call_outputs[id(e)])
            if isinstance(e, Literal):
                return const(e.value)
            if isinstance(e, ColumnRef):
                return attr(resolve(e))
            if isinstance(e, BinaryOp) and e.op in _ARITHMETIC_OPS:
                return Arithmetic(e.op, lower(e.left), lower(e.right))
            raise self.error("select items must be scalar expressions", e)

        if isinstance(expression, ColumnRef):
            return plan, resolve(expression)
        if isinstance(expression, FuncCall):
            return plan, call_outputs[id(expression)]
        name = self.fresh("expr")
        return L.Extend(plan, name, lower(expression)), name

    def _lower_window(self, plan, call: FuncCall, resolve):
        clause = call.window
        if call.name not in _AGGREGATE_FUNCTIONS:
            raise self.error(f"unknown window aggregate {call.name!r}", call)
        if call.star or call.arg is None:
            if call.name != "count":
                raise self.error(f"{call.name}(*) is not supported; name a column", call)
            attribute = None
        elif isinstance(call.arg, ColumnRef):
            attribute = resolve(call.arg)
        else:
            raise self.error("window aggregates take a plain column argument", call)
        partition = tuple(resolve(ref) for ref in clause.partition_by)
        order_by = tuple(resolve(item.expression) for item in clause.order_by)
        directions = {item.descending for item in clause.order_by}
        if len(directions) > 1:
            raise self.error("window ORDER BY cannot mix ASC and DESC", clause)
        output = self.fresh("win")
        try:
            spec = WindowSpec(
                call.name, attribute, output, order_by,
                partition_by=partition,
                frame=clause.frame if clause.frame is not None else (0, 0),
                descending=directions.pop() if directions else False,
            )
        except WindowSpecError as exc:
            raise self.error(f"invalid window: {exc}", clause) from exc
        return L.Window(plan, spec), output

    def _resolve_base(self, ref: ColumnRef) -> str:
        return self.scope.resolve(ref)

    # -- ORDER BY / LIMIT ----------------------------------------------------

    def _lower_order_limit(self, plan, alias_to_physical: Mapping[str, str]):
        statement = self.statement
        if not statement.order_by:
            if statement.limit is not None:
                raise self.error(
                    "LIMIT requires ORDER BY (bag results have no first rows)",
                    statement.items[0].expression,
                )
            return plan
        visible = set(plan_schema(plan).attributes)
        order_physicals: list[str] = []
        directions: list[bool] = []
        for item in statement.order_by:
            ref = item.expression
            if ref.table is None and ref.name in alias_to_physical:
                physical = alias_to_physical[ref.name]
            else:
                physical = self.scope.resolve(ref)
            if physical not in visible:
                raise self.error(
                    f"ORDER BY column {ref.name!r} is not visible in the result", ref
                )
            order_physicals.append(physical)
            directions.append(item.descending)
        if len(set(directions)) > 1:
            raise self.error(
                "ORDER BY cannot mix ASC and DESC directions",
                statement.order_by[0].expression,
            )
        position = "_sqlpos"
        while position in visible:
            position += "_"
        if statement.limit is not None:
            return L.TopK(
                plan, tuple(order_physicals), statement.limit, position,
                descending=directions[0],
            )
        return L.Sort(
            plan, tuple(order_physicals), position, descending=directions[0]
        )


def _split_and(expression: SqlExpr) -> list[SqlExpr]:
    if isinstance(expression, BinaryOp) and expression.op == "AND":
        return _split_and(expression.left) + _split_and(expression.right)
    return [expression]


def _and_all(predicates: Sequence[Expression]) -> Optional[Expression]:
    combined: Optional[Expression] = None
    for predicate in predicates:
        combined = predicate if combined is None else combined.and_(predicate)
    return combined


def _calls(expression: SqlExpr) -> list[FuncCall]:
    """Every FuncCall in the expression, in source order."""
    if isinstance(expression, FuncCall):
        return [expression]
    if isinstance(expression, (BinaryOp,)):
        return _calls(expression.left) + _calls(expression.right)
    if isinstance(expression, NotExpr):
        return _calls(expression.operand)
    return []


def _dedupe_keep_first(names: Sequence[str]) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for name in names:
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def lower(
    query: str, statement: SelectStatement, schemas: Mapping[str, Schema]
) -> PlanSpec:
    """Resolve names and lower a parsed statement into a plan tree.

    The result is the *unoptimized* plan: filters sit above the join tree,
    every join requests the grid kernel, and no columns are pruned.  Each
    ``FROM`` / ``JOIN`` table becomes a :class:`~repro.plan.Scan` leaf.
    """
    return _Lowering(query, statement, schemas).lower()


# -- public API --------------------------------------------------------------


def _schema_of(table: str, relation) -> Schema:
    schema = getattr(relation, "schema", None)
    if schema is None:
        raise SqlError(
            f"catalog table {table!r} is not a relation: got {type(relation).__name__}"
        )
    return schema if isinstance(schema, Schema) else Schema(schema)


@dataclass
class CompiledQuery:
    """A parsed, lowered (and optionally optimized) SQL query, ready to run.

    ``plan`` is the plan tree that :meth:`run` executes; ``unoptimized``
    keeps the pre-rewrite lowering so callers (tests, benchmarks) can run
    both sides of the differential.  ``join_kernels`` records, per join in
    execution order, the pair-enumeration kernel the last :meth:`run` chose
    (``auto`` joins resolve to searchsorted / sweep / band / grid).
    """

    query: str
    statement: SelectStatement
    plan: PlanSpec
    unoptimized: PlanSpec
    backend: str
    catalog: Mapping = field(repr=False)
    join_kernels: tuple[str, ...] = ()

    def run(self) -> AURelation:
        if self.backend == "python":
            return run_python(self.plan, lambda scan: self.catalog[scan.table])
        from repro.columnar.plan import ColumnarPlan, run_columnar

        kernels: list[str] = []
        result = run_columnar(
            self.plan, lambda scan: ColumnarPlan(self.catalog[scan.table]), kernels
        ).to_rows()
        self.join_kernels = tuple(kernels)
        return result

    def explain(self) -> str:
        """A one-line-per-node rendering of the plan (top node first)."""
        lines: list[str] = []

        def render(node, depth):
            detail = {
                L.Scan: lambda n: n.table,
                L.Narrow: lambda n: ", ".join(n.attributes),
                L.Join: lambda n: f"on={list(n.on) if n.on else None} method={n.method}",
                L.Aggregate: lambda n: f"by {list(n.group_by)}",
                L.Project: lambda n: ", ".join(n.attributes),
            }.get(type(node))
            suffix = f" [{detail(node)}]" if detail else ""
            lines.append("  " * depth + type(node).__name__ + suffix)
            for child in children(node):
                render(child, depth + 1)

        render(self.plan, 0)
        return "\n".join(lines)


def compile_sql(
    query: str,
    catalog: Mapping,
    *,
    optimize: bool = True,
    backend: str = "columnar",
    workers: int = 1,
) -> CompiledQuery:
    """Parse, resolve, lower and (by default) optimize a SQL query.

    ``catalog`` maps table names to relations (:class:`AURelation` or
    columnar).  ``optimize=False`` keeps the literal lowering — grid joins,
    no pushdown, no pruning — which the differential suite and benchmarks
    use as the semantics baseline.  ``workers`` is accepted for
    compatibility only; any value but ``1`` raises
    :class:`~repro.errors.PlanError`.
    """
    require_serial(workers)
    if backend not in ("columnar", "python"):
        raise SqlError(f"unknown backend {backend!r}; expected 'columnar' or 'python'")
    statement = parse(query)
    schemas = {name: _schema_of(name, rel) for name, rel in catalog.items()}
    unoptimized = lower(query, statement, schemas)
    plan = unoptimized
    if optimize:
        from repro.sql.optimizer import optimize_plan

        plan = optimize_plan(unoptimized)
    return CompiledQuery(
        query=query, statement=statement, plan=plan, unoptimized=unoptimized,
        backend=backend, catalog=catalog,
    )


def run_sql(
    query: str,
    catalog: Mapping,
    *,
    optimize: bool = True,
    backend: str = "columnar",
) -> AURelation:
    """Compile and execute ``query`` against ``catalog`` in one call."""
    return compile_sql(query, catalog, optimize=optimize, backend=backend).run()


# -- serving templates --------------------------------------------------------


def sql_to_spec(query: str, schema: Schema) -> PlanSpec:
    """Lower a single-table SQL template into its (unoptimized) plan tree.

    The tree plugs into :class:`repro.serving.server.QueryServer`: its
    constants become shape-key slots, so differently-bound parameters share
    one cached plan shape.  ``schema`` is the base relation's schema; the
    query's ``FROM`` table (any name) is the tree's one input, which
    :meth:`~repro.plan.PlanSpec.apply` feeds with the base relation.  Joins
    are rejected: a served view reads one base relation.
    """
    statement = parse(query)
    if statement.joins:
        raise SqlError(
            "SQL templates for the serving layer must read a single table",
            query=query,
            line=statement.joins[0].table.line, column=statement.joins[0].table.column,
        )
    return lower(query, statement, {statement.source.name: schema})
