"""The plan workload registry: each backend-comparison workload, declared once.

:data:`WORKLOADS` maps a harness id to a frozen :class:`Workload` that
declares

* ``inputs(size, seed=...)`` — the row-major input tuple (a generator of
  :mod:`repro.workloads.pipeline`);
* its labelled :class:`Contender` runners — python or columnar, quadratic
  or not, on row-major or pre-converted columnar inputs, timed or only
  checked for agreement;
* its smoke gates — :class:`Speedup` pairs with their floors,
  :class:`Ceiling` pair counts and a planned-kernel assertion;
* its harness default sizes and ratio columns, and its bench sizes.

The agreement check is the same for every plan workload: each contender's
result must equal the first contender's under :func:`same_rows`
(:func:`divergent` lists the ones that do not).  Three thin layers read the
registry: the ``pipeline`` … ``factjoin`` harness tables
(:func:`repro.harness.figures.workload_table`), the CI smoke gate
(``benchmarks/smoke_backends.py``) and the pytest benchmarks
(``benchmarks/bench_pipeline_ops.py``).

The serving mix and the SQL scaling query keep their own table and smoke
code: their tables report QPS, p99 latency, a delta speedup and join
kernels rather than per-contender milliseconds, and their smoke lines print
those figures.  Only their strict-mode floors live here
(:data:`SERVE_SPEEDUP`, :data:`SQL_SPEEDUP`).

Importing this module does not import NumPy; running a columnar contender
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

from repro.core.expressions import attr, const
from repro.core.relation import AURelation
from repro.workloads.pipeline import (
    equijoin_inputs,
    factjoin_inputs,
    multiwindow_inputs,
    pipeline_inputs,
    rangejoin_inputs,
    run_factjoin_columnar,
    run_factjoin_python,
    run_groupby_pipeline_columnar,
    run_groupby_pipeline_python,
    run_join_columnar,
    run_join_python,
    run_multiwindow_columnar,
    run_multiwindow_python,
    run_multiwindow_roundtrip_columnar,
    run_pipeline_columnar,
    run_pipeline_python,
)

__all__ = [
    "CEILING_FACTOR",
    "Contender",
    "Speedup",
    "Ceiling",
    "Workload",
    "WORKLOADS",
    "SERVE_SPEEDUP",
    "SQL_SPEEDUP",
    "same_rows",
    "divergent",
    "columnar_inputs",
]

#: A :class:`Ceiling` fails unless ``pairs * CEILING_FACTOR < grid_pairs``.
CEILING_FACTOR = 8


@dataclass(frozen=True)
class Contender:
    """One way to run a workload.

    ``label`` heads the harness column; ``name`` names the contender in bench
    ids, smoke lines and agreement failures.  A ``columnar`` contender needs
    NumPy and is skipped under ``REPRO_BACKEND=python`` (a python one under
    ``columnar``).  A ``quadratic`` one is capped above the harness
    ``quadratic_ceiling`` and benchmarked at ``bench_sizes`` only.
    ``row_inputs`` runs it on the row-major inputs instead of their columnar
    copies.  A contender that is not ``timed`` is only checked for
    agreement.
    """

    label: str
    name: str
    run: Callable[..., AURelation]
    columnar: bool = True
    quadratic: bool = False
    row_inputs: bool = False
    timed: bool = True

    def __call__(self, args: tuple, columnar_args: tuple) -> AURelation:
        """Run on the row-major ``args`` or their ``columnar_args`` copies."""
        return self.run(*(args if self.row_inputs else columnar_args))


def _python(run: Callable[..., AURelation], *, quadratic: bool = False) -> Contender:
    """The tuple-at-a-time contender (harness column ``Imp``)."""
    return Contender("Imp", "python", run, columnar=False, quadratic=quadratic, row_inputs=True)


@dataclass(frozen=True)
class Speedup:
    """Smoke gate: ``baseline`` wall time over ``contender`` wall time.

    Each side is timed best of ``reps``.  The ratio must reach ``floor`` from
    ``from_rows`` rows up and parity below; a miss warns, and fails under
    ``REPRO_SMOKE_STRICT_PERF=1``.
    """

    path: str
    baseline: str
    contender: str
    floor: float = 1.0
    from_rows: int = 0
    reps: int = 5

    def required(self, rows: int) -> float:
        return self.floor if rows >= self.from_rows else 1.0


@dataclass(frozen=True)
class Ceiling:
    """Smoke gate on a pair count, always fatal.

    ``count(*columnar_inputs)`` returns ``(pairs, grid_pairs)``: what the
    output-sensitive path enumerated or materialised, against the pair grid
    of the quadratic contender.  ``pairs * CEILING_FACTOR`` must stay below
    ``grid_pairs``.  The smoke prints both under ``label`` / ``grid_label``.
    """

    label: str
    grid_label: str
    count: Callable[..., tuple[int, int]]


@dataclass(frozen=True)
class Workload:
    """One plan workload: inputs, contenders, gates and default sizes.

    ``ratios`` are the harness ratio columns, ``(header, baseline,
    contender)`` by contender name.  The benchmark times every contender at
    ``bench_sizes`` (where agreement is checked too), non-quadratic ones also
    at ``bench_large``.  The smoke runs at ``max(rows, smoke_min_rows)`` and,
    given ``planned_kernel = (expected, plan)``, asserts that
    ``plan(*columnar_inputs)``, the kernel ``method="auto"`` plans, is
    ``expected``.
    """

    name: str
    description: str
    inputs: Callable[..., tuple]
    contenders: tuple[Contender, ...]
    harness_sizes: tuple[int, ...]
    bench_sizes: tuple[int, ...]
    bench_large: tuple[int, ...] = ()
    ratios: tuple[tuple[str, str, str], ...] = ()
    speedups: tuple[Speedup, ...] = ()
    ceilings: tuple[Ceiling, ...] = ()
    planned_kernel: tuple[str, Callable[..., str]] | None = None
    smoke_min_rows: int = 0

    def contender(self, name: str) -> Contender:
        return next(c for c in self.contenders if c.name == name)


def same_rows(left: AURelation, right: AURelation, *, ordered: bool = False) -> bool:
    """Bit-for-bit equality: same schema, same annotated rows.

    ``ordered`` also compares the row order, for results a next stage or a
    client reads in order (top-k, served answers).
    """
    if left.schema != right.schema:
        return False
    if ordered:
        return list(left._rows.items()) == list(right._rows.items())
    return left._rows == right._rows


def divergent(results: Mapping[str, AURelation]) -> list[str]:
    """Names of the contenders whose result differs from the first one's."""
    reference = next(iter(results.values()), None)
    return [name for name, result in results.items() if not same_rows(reference, result)]


def columnar_inputs(args: tuple) -> tuple:
    """``args`` with every row-major relation converted to the columnar layout."""
    from repro.columnar.relation import ColumnarAURelation

    return tuple(
        ColumnarAURelation.from_relation(arg) if isinstance(arg, AURelation) else arg
        for arg in args
    )


def _sweep_candidates(left, right) -> tuple[int, int]:
    """Candidate pairs the range join's sweep enumerates, and ``|L|·|R|``."""
    from repro.columnar.operators import candidate_key_pairs

    grid = len(left) * len(right)
    candidates = candidate_key_pairs(
        [left.column("k")], [right.column("k")], kernels=("sweep",)
    )
    return (len(candidates[0]) if candidates is not None else grid), grid


def _planned_range_kernel(left, right) -> str:
    from repro.columnar.operators import planned_join_kernel

    return planned_join_kernel(left, right, on=["k"])


def _factorised_pair_rows(left, right, v_threshold: int, w_threshold: int) -> tuple[int, int]:
    """Pair rows the factorised chain materialises, and the grid's ``|σ(L)|·|R|``."""
    from repro.columnar.factorised import pair_rows_materialised, reset_pair_rows
    from repro.columnar.operators import select

    reset_pair_rows()
    run_factjoin_columnar(left, right, v_threshold, w_threshold)
    pairs = pair_rows_materialised()
    return pairs, len(select(left, attr("v").ge(const(v_threshold)))) * len(right)


#: The plan workloads, by harness id.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="pipeline",
            description="Multi-operator RA+ pipeline runtime (ms): select -> join -> project -> window",
            inputs=pipeline_inputs,
            contenders=(
                _python(run_pipeline_python),
                Contender("Imp-Col", "columnar", run_pipeline_columnar),
            ),
            harness_sizes=(64, 128, 256, 512),
            bench_sizes=(64, 128, 256, 512),
            ratios=(("speedup", "python", "columnar"),),
            speedups=(Speedup("pipeline", "python", "columnar"),),
        ),
        Workload(
            name="groupby",
            description="Groupby pipeline runtime (ms): select -> join -> groupby -> window",
            inputs=pipeline_inputs,
            contenders=(
                _python(run_groupby_pipeline_python),
                Contender("Imp-Col", "columnar", run_groupby_pipeline_columnar),
            ),
            harness_sizes=(64, 128, 256, 512),
            bench_sizes=(64, 128, 256, 512),
            ratios=(("speedup", "python", "columnar"),),
            speedups=(Speedup("groupby-pipeline", "python", "columnar"),),
        ),
        # The round trip calls the columnar kernels stage by stage through the
        # backend="columnar" entry points, row-major in and out of every stage;
        # the chained plan converts once, at .to_rows().
        Workload(
            name="multiwindow",
            description=(
                "Multi-window RA+ plan runtime (ms): select -> join -> window -> select -> window"
            ),
            inputs=multiwindow_inputs,
            contenders=(
                _python(run_multiwindow_python),
                Contender(
                    "Imp-Col-RT", "roundtrip", run_multiwindow_roundtrip_columnar, row_inputs=True
                ),
                Contender("Imp-Col", "columnar", run_multiwindow_columnar),
            ),
            harness_sizes=(128, 256, 512, 1024),
            bench_sizes=(256, 1024),
            ratios=(("RT-speedup", "roundtrip", "columnar"), ("Imp-speedup", "python", "columnar")),
            speedups=(
                Speedup("multiwindow", "python", "columnar"),
                Speedup("multiwindow-roundtrip", "roundtrip", "columnar"),
            ),
        ),
        Workload(
            name="equijoin",
            description="Equi-join runtime (ms): python / columnar grid / columnar searchsorted",
            inputs=equijoin_inputs,
            contenders=(
                _python(run_join_python, quadratic=True),
                Contender("Grid", "grid", partial(run_join_columnar, method="grid"), quadratic=True),
                Contender(
                    "SearchSorted",
                    "searchsorted",
                    partial(run_join_columnar, method="searchsorted"),
                ),
            ),
            harness_sizes=(256, 1024, 4096),
            bench_sizes=(256, 1024),
            bench_large=(4096,),
            speedups=(Speedup("equijoin", "python", "searchsorted"),),
        ),
        # Keys are uncertain ranges on both sides, so searchsorted never
        # qualifies: method="auto" must plan the interval-overlap sweep.
        Workload(
            name="rangejoin",
            description="Range-key join runtime (ms): python / columnar grid / columnar sweep",
            inputs=rangejoin_inputs,
            contenders=(
                _python(run_join_python, quadratic=True),
                Contender("Grid", "grid", partial(run_join_columnar, method="grid"), quadratic=True),
                Contender("Sweep", "sweep", partial(run_join_columnar, method="sweep")),
                Contender("Auto", "auto", run_join_columnar, timed=False),
            ),
            harness_sizes=(256, 1024, 4096),
            bench_sizes=(256, 1024),
            bench_large=(4096,),
            speedups=(Speedup("rangejoin", "grid", "sweep"),),
            ceilings=(Ceiling("sweep candidates", "grid", _sweep_candidates),),
            planned_kernel=("sweep", _planned_range_kernel),
            smoke_min_rows=512,
        ),
        Workload(
            name="factjoin",
            description="select-join-select-window runtime (ms): python / expanded grid / factorised",
            inputs=factjoin_inputs,
            contenders=(
                _python(run_factjoin_python, quadratic=True),
                Contender("Grid", "grid", partial(run_factjoin_columnar, method="grid"), quadratic=True),
                Contender("Factorised", "factorised", run_factjoin_columnar),
            ),
            harness_sizes=(256, 1024, 4096),
            bench_sizes=(64, 128, 512),
            bench_large=(4096,),
            speedups=(Speedup("factjoin", "grid", "factorised"),),
            ceilings=(Ceiling("factorised pair-rows", "grid pair-grid", _factorised_pair_rows),),
            smoke_min_rows=512,
        ),
    )
}

#: Patched deltas against view rebuilds over the serving mix.
SERVE_SPEEDUP = Speedup("serve", "rebuilt", "patched", floor=3.0, from_rows=4096)

#: The optimized SQL plan against the unoptimized lowering.
SQL_SPEEDUP = Speedup("sql", "unoptimized", "optimized", floor=5.0, from_rows=1024, reps=3)
