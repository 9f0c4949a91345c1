"""Plan-workload microbenchmarks: every contender of every registry workload.

Cases come from :data:`repro.workloads.registry.WORKLOADS` — the RA⁺ plans
(select→join→project→window, select→join→groupby→window, the multi-window
plan past a window stage with its per-stage round trip), the equi-join and
range×range join kernels, and the factorised join chain:

* ``test_timing[<workload>-<contender>-<size>]`` times one contender at one
  size, on pre-converted columnar inputs unless the contender runs on the
  row-major tables (the python backend, the multi-window round trip).  Every
  contender runs at the workload's ``bench_sizes``; the output-sensitive
  ones (searchsorted, sweep, factorised) also at ``bench_large``, where the
  quadratic contenders stay off.
* ``test_agree_bit_for_bit[<workload>-<size>]`` is not a timing: at each
  ``bench_sizes`` entry every contender, the untimed range-join
  ``method="auto"`` included, must return the first contender's relation.

Harness ids: ``pipeline``, ``groupby``, ``multiwindow``, ``equijoin``,
``rangejoin``, ``factjoin``.
"""

import pytest

from repro.workloads.registry import WORKLOADS, columnar_inputs, divergent

TIMINGS = [
    pytest.param(workload, contender, size, id=f"{workload.name}-{contender.name}-{size}")
    for workload in WORKLOADS.values()
    for contender in workload.contenders
    if contender.timed
    for size in workload.bench_sizes + (() if contender.quadratic else workload.bench_large)
]

AGREEMENT = [
    pytest.param(workload, size, id=f"{workload.name}-{size}")
    for workload in WORKLOADS.values()
    for size in workload.bench_sizes
]


def _inputs(workload, size, *, columnar):
    args = workload.inputs(size, seed=0)
    if not columnar:
        return args, args
    pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
    return args, columnar_inputs(args)


@pytest.mark.parametrize("workload, contender, size", TIMINGS)
def test_timing(benchmark, workload, contender, size):
    args, columnar_args = _inputs(workload, size, columnar=contender.columnar)
    benchmark(contender, args, columnar_args)


@pytest.mark.parametrize("workload, size", AGREEMENT)
def test_agree_bit_for_bit(workload, size):
    args, columnar_args = _inputs(workload, size, columnar=True)
    results = {c.name: c(args, columnar_args) for c in workload.contenders}
    assert divergent(results) == []
