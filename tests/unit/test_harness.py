"""Unit tests for the experiment harness (adapters, reporting, CLI wiring)."""

import os

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
