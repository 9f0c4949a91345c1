"""Unit tests for the experiment harness (adapters, reporting, CLI wiring)."""

import dataclasses
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.harness.adapters import (
    audb_from_workload,
    audb_sort_bounds,
    audb_window_bounds,
    extract_bounds,
)
from repro.harness.cli import main
from repro.harness.figures import ALL_EXPERIMENTS, heap_table
from repro.harness.report import ExperimentResult, format_table
from repro.harness.runner import timed, timed_ms
from repro.window.spec import WindowSpec
from repro.workloads.synthetic import SyntheticConfig, generate_sort_table, generate_window_table


class TestRunner:
    def test_timed_returns_result_and_duration(self):
        result, seconds = timed(lambda: 41 + 1)
        assert result == 42 and seconds >= 0

    def test_timed_ms(self):
        _result, ms = timed_ms(lambda: None)
        assert ms >= 0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["col", "value"], [["a", 1.23456], ["bb", 2]])
        lines = text.splitlines()
        assert lines[0].startswith("col")
        assert "1.235" in text

    def test_experiment_result_add_and_text(self):
        result = ExperimentResult("exp", "a description", ["x", "y"])
        result.add(1, 2)
        text = result.to_text()
        assert "exp" in text and "a description" in text and "1" in text


class TestAdapters:
    def test_sort_bounds_cover_selected_guess_positions(self):
        workload = generate_sort_table(SyntheticConfig(rows=30, uncertainty=0.2, attribute_range=20, domain=200, seed=4))
        audb = audb_from_workload(workload)
        bounds = audb_sort_bounds(audb, ["a"], key_attribute="rid")
        assert set(bounds) == set(range(30))
        for low, high in bounds.values():
            assert 0 <= low <= high <= 30

    def test_window_bounds_keys(self):
        workload = generate_window_table(
            SyntheticConfig(rows=20, uncertainty=0.2, attribute_range=10, domain=100, seed=4),
            partitions=1,
        )
        audb = audb_from_workload(workload)
        spec = WindowSpec("sum", "v", "s", order_by=("o",), frame=(-1, 0))
        for method in ("native", "rewrite"):
            bounds = audb_window_bounds(audb, spec, key_attribute="rid", method=method)
            assert set(bounds) == set(range(20))

    def test_extract_bounds_hulls_duplicates(self):
        from repro.core.relation import AURelation
        from repro.core.ranges import RangeValue

        relation = AURelation.from_rows(
            ["rid", "x"],
            [((1, RangeValue(0, 1, 2)), 1), ((1, RangeValue(5, 6, 7)), 1)],
        )
        bounds = extract_bounds(relation, "rid", "x")
        assert bounds == {1: (0.0, 7.0)}


class TestExperimentsRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "heap_table",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "pipeline",
            "groupby",
            "multiwindow",
            "equijoin",
            "rangejoin",
            "factjoin",
            "serve",
            "sql",
        }
        assert expected == set(ALL_EXPERIMENTS)

    def test_heap_table_runs_small(self):
        result = heap_table(items=200, seed=1)
        assert len(result.rows) == 6
        assert all(len(row) == 5 for row in result.rows)

    def test_groupby_pipeline_driver_runs_small(self):
        pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
        from repro.harness.figures import groupby_pipeline_scaling

        result = groupby_pipeline_scaling(sizes=(16, 32), seed=1)
        assert len(result.rows) == 2
        assert all(len(row) == 4 for row in result.rows)

    def test_equijoin_driver_runs_small_and_caps_quadratic_kernels(self):
        pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
        from repro.harness.figures import equijoin_scaling

        result = equijoin_scaling(sizes=(16, 64), quadratic_ceiling=16, seed=1)
        assert len(result.rows) == 2
        small, large = result.rows
        assert small[1] != "-" and small[2] != "-"
        assert large[1] == "-" and large[2] == "-" and large[3] != "-"

    def test_rangejoin_driver_runs_small_and_caps_quadratic_kernels(self):
        pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
        from repro.harness.figures import rangejoin_scaling

        result = rangejoin_scaling(sizes=(16, 64), quadratic_ceiling=16, seed=1)
        assert len(result.rows) == 2
        small, large = result.rows
        assert small[1] != "-" and small[2] != "-"
        assert large[1] == "-" and large[2] == "-" and large[3] != "-"

    def test_cli_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])


class TestCliFlags:
    """Validation and env plumbing of ``--backend``."""

    def test_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["heap_table", "--backend", "rust"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_flags_set_env_for_the_run_and_restore_it(self, monkeypatch, capsys):
        from repro.harness import cli

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        seen = []

        class FakeResult:
            def to_text(self):
                return "fake"

        def fake_experiment():
            seen.append(os.environ.get("REPRO_BACKEND"))
            return FakeResult()

        monkeypatch.setattr(cli, "ALL_EXPERIMENTS", {"fake": fake_experiment})
        assert main(["fake", "--backend", "columnar"]) == 0
        # The override is scoped to the run: an unset variable is unset
        # again, a pre-existing one is back to its previous value.
        assert "REPRO_BACKEND" not in os.environ
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert main(["fake", "--backend", "columnar"]) == 0
        assert os.environ["REPRO_BACKEND"] == "python"
        assert seen == ["columnar", "columnar"]
        assert "fake" in capsys.readouterr().out

    def test_backend_enabled_rejects_unknown_env_value(self, monkeypatch):
        from repro.errors import ReproError
        from repro.harness.figures import backend_enabled

        monkeypatch.setenv("REPRO_BACKEND", "rust")
        with pytest.raises(ReproError, match="REPRO_BACKEND must be one of"):
            backend_enabled("columnar")

    def test_backend_enabled_filters_the_named_backend(self, monkeypatch):
        from repro.harness.figures import backend_enabled

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert backend_enabled("python") and backend_enabled("columnar")
        monkeypatch.setenv("REPRO_BACKEND", "python")
        assert backend_enabled("python") and not backend_enabled("columnar")


#: Per harness table: the options for two tiny sizes (16 and 32 rows,
#: with the quadratic ceiling between them), the table's header, and the
#: columns capped above the ceiling.
TABLES = {
    "pipeline": ({}, ["Size", "Imp", "Imp-Col", "speedup"], ()),
    "groupby": ({}, ["Size", "Imp", "Imp-Col", "speedup"], ()),
    "multiwindow": (
        {},
        ["Size", "Imp", "Imp-Col-RT", "Imp-Col", "RT-speedup", "Imp-speedup"],
        (),
    ),
    "equijoin": (
        {"quadratic_ceiling": 16}, ["Size", "Imp", "Grid", "SearchSorted"], ("Imp", "Grid")
    ),
    "rangejoin": ({"quadratic_ceiling": 16}, ["Size", "Imp", "Grid", "Sweep"], ("Imp", "Grid")),
    "factjoin": (
        {"quadratic_ceiling": 16}, ["Size", "Imp", "Grid", "Factorised"], ("Imp", "Grid")
    ),
    "serve": (
        {"queries": 6, "deltas": 2},
        ["Size", "Inc QPS", "Direct QPS", "Inc p99", "Direct p99", "delta speedup"],
        (),
    ),
    "sql": (
        {"quadratic_ceiling": 16}, ["Size", "Imp", "Unopt", "Opt", "Kernels"], ("Imp", "Unopt")
    ),
}


def _load_smoke():
    path = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "smoke_backends.py"
    spec = importlib.util.spec_from_file_location("smoke_backends", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _drops_first_row(run):
    """``run`` with the first row of its result removed."""

    def dropped(*args):
        result = run(*args).copy()
        del result._rows[next(iter(result._rows))]
        return result

    return dropped


class TestWorkloadTables:
    """Every harness table runs small, and the registry gates fail when they should."""

    @pytest.mark.parametrize("experiment", sorted(TABLES))
    def test_table_runs_small_and_caps_quadratic_contenders(self, experiment, monkeypatch):
        pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        options, headers, capped = TABLES[experiment]
        result = ALL_EXPERIMENTS[experiment](sizes=(16, 32), seed=1, **options)
        assert result.headers == headers
        assert [row[0] for row in result.rows] == [16, 32]
        assert all(len(row) == len(headers) for row in result.rows)
        small, large = result.rows
        for header, below, above in zip(headers[1:], small[1:], large[1:]):
            assert below != "-", header
            assert (above == "-") == (header in capped), header

    def test_tables_print_dashes_for_columnar_contenders_without_numpy(self):
        code = (
            "import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from repro.harness.figures import ALL_EXPERIMENTS\n"
            f"tables = {({name: spec[0] for name, spec in TABLES.items()})!r}\n"
            "print(json.dumps({name: ALL_EXPERIMENTS[name](sizes=(16,), **options).rows[0]\n"
            "                  for name, options in tables.items()}))\n"
        )
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("REPRO_BACKEND", None)
        completed = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        rows = json.loads(completed.stdout)
        for name in ("pipeline", "groupby", "multiwindow", "equijoin", "rangejoin", "factjoin"):
            imp, *columnar = rows[name][1:]
            assert isinstance(imp, float), name
            assert columnar == ["-"] * len(columnar), name
        # Serving is columnar only; the SQL compiler imports the columnar
        # package even for the python backend.
        assert rows["serve"][1:] == ["-"] * 5
        assert rows["sql"][1:] == ["-"] * 4

    @pytest.mark.parametrize("change", ["drop", "ceiling", "kernel"])
    def test_smoke_gates_fail(self, change, monkeypatch, capsys):
        """A dropped row, a breached pair-count ceiling (8·8 ≥ 64) or a wrong
        planned kernel is one smoke failure, even outside strict mode."""
        pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
        from repro.workloads import registry

        monkeypatch.delenv("REPRO_SMOKE_STRICT_PERF", raising=False)
        workload = registry.WORKLOADS["pipeline"]
        python, columnar = workload.contenders
        broken, message = {
            "drop": (
                {"contenders": (python, dataclasses.replace(
                    columnar, run=_drops_first_row(columnar.run)))},
                "FAIL: pipeline rows=32: columnar diverges from python",
            ),
            "ceiling": (
                {"ceilings": (registry.Ceiling("pairs", "grid", lambda *args: (8, 64)),)},
                "FAIL: pipeline: pairs=8 is not below grid=64 / 8",
            ),
            "kernel": (
                {"planned_kernel": ("sweep", lambda *args: "grid")},
                "FAIL: method='auto' planned 'grid' for pipeline, not 'sweep'",
            ),
        }[change]
        monkeypatch.setitem(
            registry.WORKLOADS, "pipeline", dataclasses.replace(workload, **broken)
        )
        assert _load_smoke().smoke_workload("pipeline", 32) == 1
        assert message in capsys.readouterr().out

    def test_table_raises_on_divergence(self, monkeypatch):
        pytest.importorskip("numpy", reason="the columnar backend requires NumPy")
        from repro.errors import ReproError
        from repro.harness.figures import pipeline_scaling
        from repro.workloads import registry

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        workload = registry.WORKLOADS["pipeline"]
        python, columnar = workload.contenders
        dropping = dataclasses.replace(columnar, run=_drops_first_row(columnar.run))
        monkeypatch.setitem(
            registry.WORKLOADS,
            "pipeline",
            dataclasses.replace(workload, contenders=(python, dropping)),
        )
        with pytest.raises(ReproError, match="pipeline: contender 'columnar' .* at size 32"):
            pipeline_scaling(sizes=(32,))
