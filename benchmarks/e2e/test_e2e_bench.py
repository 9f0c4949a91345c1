"""Small-size checks of the end-to-end benchmark (inputs of 128 rows).

Each workload runs in this process with ``seconds=0`` and a handful of
requests, so the whole module stays quick enough for the tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2e import compare, run
from e2e.workloads import WORKLOADS

ROWS = 128
REQUESTS = 10


def _run(name: str, *, seed: int = 0, trace: bool = False, spans: str | None = None) -> dict:
    # serve_mix needs one read past the tenth to reach its first delta.
    requests = REQUESTS + 1 if name == "serve_mix" else REQUESTS
    return run.run_workload(
        name, seed=seed, seconds=0, trace=trace, rows=ROWS, min_requests=requests, spans=spans
    )


@pytest.fixture(scope="module")
def spec() -> dict:
    return run.load_spec()


@pytest.fixture(scope="module")
def plain() -> dict:
    return {name: _run(name) for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> tuple[dict, Path]:
    spans = tmp_path_factory.mktemp("spans")
    return {name: _run(name, trace=True, spans=str(spans)) for name in WORKLOADS}, spans


def test_spec_names_every_workload(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["benchmarks/e2e"]


def test_every_metric_is_emitted_with_its_unit(plain, traced, spec):
    for records, trace in ((plain, False), (traced[0], True)):
        for name, record in records.items():
            line = run.result_line(record, spec, trace)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            entries = spec["per_layer"] if trace else spec["end_to_end"]
            assert {m: v["unit"] for m, v in line["metrics"].items()} == {
                entry["name"]: entry["unit"] for entry in entries
            }, name
            assert all(isinstance(v["value"], float) for v in line["metrics"].values())
            json.dumps(line)


def test_end_to_end_metrics_are_never_zero(plain):
    for name, record in plain.items():
        assert all(value > 0 for value in record["metrics"].values()), name


def test_error_rate_is_zero(plain, traced):
    for records in (plain, traced[0]):
        for name, record in records.items():
            assert record["correct"] and record["failed"] == 0, name
            assert record["attempted"] >= REQUESTS


def test_fingerprints_repeat_per_seed_and_inputs_differ_across_seeds(plain):
    for name, first in plain.items():
        again = _run(name)
        assert again["input_fingerprint"] == first["input_fingerprint"], name
        assert again["result_fingerprint"] == first["result_fingerprint"], name
        other = _run(name, seed=1)
        assert other["input_fingerprint"] != first["input_fingerprint"], name


def test_trace_spans_nest_and_self_times_add_up(traced):
    records, spans_dir = traced
    for name, record in records.items():
        dump = json.loads((spans_dir / f"{name}-seed0.json").read_text())
        spans = dump["spans"]
        assert spans and len(dump["requests"]) == len({s["request"] for s in spans})
        for span in spans:
            assert span["self"] >= -1e-9, (name, span)
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
                assert parent["request"] == span["request"]
            else:
                assert span["name"].startswith("request.")
        roots = [s for s in spans if s["parent"] < 0]
        wall = sum(s["end"] - s["start"] for s in roots)
        assert sum(s["self"] for s in spans) <= wall + 1e-6, name


def test_traced_layers_see_their_workloads(traced):
    records = traced[0]
    layer = {name: record["metrics"] for name, record in records.items()}
    assert layer["rank_topk"]["plan.sort_ms"] > 0
    assert layer["rank_topk"]["sql.parse_ms"] > 0
    assert layer["sql_join_agg"]["plan.groupby_ms"] > 0
    assert 0 < layer["sql_join_agg"]["join.match_ratio"] <= 1
    assert layer["range_join_rows"]["boundary.to_relation_ms"] > layer["range_join_rows"]["plan.join_ms"]
    assert layer["range_join_rows"]["factorised.pair_rows"] > 0
    assert layer["window_chain"]["plan.window_rows"] > 0
    assert layer["serve_mix"]["serving.hit_ratio"] > 0
    assert layer["serve_mix"]["incremental.merge_delta_ms"] > 0
    assert layer["serve_mix"]["incremental.patched_frac"] == 1.0
    assert "join.kernel=sweep" in records["range_join_rows"]["labels"]


def test_a_wrong_result_counts_as_a_failure(monkeypatch):
    from repro.columnar.plan import ColumnarPlan
    from repro.core.relation import AURelation

    # range_join_rows repeats one request: the oracle check makes the first
    # call, each set-up one more; corrupt from the second measured call on.
    clean_calls = 1 + run.SETUP_REPEATS + 1
    calls = []
    original = ColumnarPlan.to_rows

    def to_rows(self):
        result = original(self)
        calls.append(1)
        if len(calls) > clean_calls:
            return AURelation(result.schema, list(result)[1:])
        return result

    monkeypatch.setattr(ColumnarPlan, "to_rows", to_rows)
    record = _run("range_join_rows")
    assert not record["correct"]
    assert record["failed"] == record["samples"]["reads"] - 1


def _record(latency: float, seed: int = 0) -> dict:
    runs = {}
    for name in WORKLOADS:
        runs[name] = {
            "seed": seed, "failed": 0, "attempted": 100,
            "input_fingerprint": "in", "result_fingerprint": "out",
            "metrics": {"setup_s": 1.0, "latency_p50_ms": latency, "latency_p90_ms": 2 * latency,
                        "throughput_rps": 50.0, "peak_rss_mb": 80.0},
        }
    return {"seed": seed, "workloads": runs}


def _write(path: Path, records: list[dict]) -> str:
    path.mkdir()
    for index, record in enumerate(records):
        (path / f"{index}.json").write_text(json.dumps(record))
    return str(path)


def test_compare_flags_a_latency_regression(tmp_path, spec, capsys):
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "latency_p50_ms")
    base = _write(tmp_path / "base", [_record(10.0, seed) for seed in range(3)])
    worse = 10.0 * (1 + bound + 0.05)
    slower = _write(tmp_path / "slower", [_record(worse, seed) for seed in range(3)])
    assert compare.main([base, slower], spec) == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if "latency_p50_ms" in line]
    assert rows and all(line.endswith("regressed") for line in rows)
    assert compare.main([base, base], spec) == 0
    assert "regressed" not in capsys.readouterr().out


def test_compare_checks_fingerprints(tmp_path, spec, capsys):
    changed = _record(10.0)
    changed["workloads"]["rank_topk"]["result_fingerprint"] = "other"
    base = _write(tmp_path / "base", [_record(10.0)])
    change = _write(tmp_path / "change", [changed])
    assert compare.main([base, change], spec) == 1
    assert "fingerprint mismatch: rank_topk seed 0" in capsys.readouterr().out


def test_run_fails_without_the_program_source(tmp_path):
    """Beside only BENCHMARK.json and this directory, a run exits non-zero, printing no result."""
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "rank_topk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout
