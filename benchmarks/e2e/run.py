"""End-to-end benchmark: five workloads from request to rows.

Run from the repository root (``README.md`` beside this file has the
details)::

    python3 benchmarks/e2e/run.py --seed 0 --out a.json        # every workload
    python3 benchmarks/e2e/run.py --workload rank_topk --seed 3 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --trace 1 --spans spans/   # per-layer run
    python3 benchmarks/e2e/run.py compare base/ change/

One workload runs in one process.  Without ``--workload`` every workload
runs, one after another, each in a fresh child process.  A run generates
its inputs from ``--seed``, checks every distinct request against the python
oracle at a small size, sets up (catalog load plus warm-up) several times,
then sends requests from one closed-loop client for ``--seconds`` and checks
every result.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics.
The exit code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Reads every run makes at least, so p90 has >= 10 samples beyond it.
MIN_REQUESTS = 100
DEFAULT_SECONDS = 15
TRACE_BLOCK_OPERATIONS = 5
#: Prefix of the line that carries a child run's full record.
DETAIL = "# detail "


def _use_program_source() -> None:
    """Import the benchmark package and the program from this checkout only."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: the program's source is missing ({src / 'repro'})")
    # The script's own directory would shadow the standard library's
    # ``trace``; the benchmark imports its modules as the ``e2e`` package.
    if sys.path and Path(sys.path[0]).resolve() == BENCH_DIR:
        sys.path[0] = str(BENCH_DIR.parent)
    for path in (str(src), str(BENCH_DIR.parent)):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool = False,
    rows: int | None = None,
    min_requests: int = MIN_REQUESTS,
    spans: str | None = None,
) -> dict:
    """Run one workload in this process; returns its record (see ``README.md``)."""
    from e2e.trace import Tracer
    from e2e.workloads import (
        WORKLOADS, combined_fingerprint, fingerprint, inputs_fingerprint, row_digest,
    )

    os.environ.pop("REPRO_WORKERS", None)
    workload = WORKLOADS[name](rows)
    oracle_attempted, oracle_failed = workload.oracle_check(seed)
    inputs = workload.generate(seed)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        state = workload.load(inputs)
        for op in workload.warmup(state):
            workload.execute(state, op)
        setup_times.append(perf_counter() - start)

    tracer = Tracer(lambda: workload.probes(state)) if trace else None
    timeline: list[tuple[str, bool, float]] = []   # (kind, traced, seconds) per operation
    first: dict = {}           # read → digest of its first result
    leading: list[str] = []    # fingerprints of the first reads, in order
    failed = reads = 0
    operations = workload.operations(inputs, seed)
    started = perf_counter()
    # Traced runs alternate traced and untraced blocks of whole cycles, at
    # least five operations long: a collector that fires every other request
    # must not land in the untraced half only.
    block = workload.cycle * -(-TRACE_BLOCK_OPERATIONS // workload.cycle)
    for index, op in enumerate(operations):
        traced = tracer is not None and (index // block) % 2 == 0
        if traced:
            tracer.install()
            root = tracer.begin_request(op.kind)
        began = perf_counter()
        try:
            result = workload.execute(state, op)
        except Exception:  # a failed request counts against error_rate; keep going
            failed += 1
            result = None
            traceback.print_exc(file=sys.stderr)
        finally:
            elapsed = perf_counter() - began
            if traced:
                tracer.end_request(root)
                tracer.uninstall()
        timeline.append((op.kind, traced, elapsed))
        if op.kind == "read":
            reads += 1
            if result is not None:
                if workload.repeatable:
                    digest = row_digest(result)
                    failed += first.setdefault(op.arg, digest) != digest
                if len(leading) < workload.fingerprint_reads:
                    leading.append(fingerprint(result))
        if perf_counter() - started >= seconds and reads >= min_requests:
            break
    final_attempted, final_failed = workload.final_check(state)

    def latencies(kind: str | None, traced: bool) -> list[float]:
        return [s for k, t, s in timeline if t == traced and kind in (None, k)]

    attempted = oracle_attempted + len(timeline) + final_attempted
    failed += oracle_failed + final_failed
    if trace:
        metrics = tracer.layer_metrics()
        untraced, traced_reads = latencies("read", False), latencies("read", True)
        metrics["trace.overhead_pct"] = (
            (statistics.median(traced_reads) / statistics.median(untraced) - 1) * 100
            if untraced and traced_reads else 0.0
        )
        deltas = [s * 1000 for s in latencies("delta", False)]
        metrics["serving.delta_p50_ms"] = statistics.median(deltas) if deltas else 0.0
        metrics["serving.delta_p90_ms"] = percentile(deltas, 90) if deltas else 0.0
        if spans:
            Path(spans).mkdir(parents=True, exist_ok=True)
            tracer.write(str(Path(spans) / f"{name}-seed{seed}.json"))
    else:
        read_ms = [s * 1000 for s in latencies("read", False)]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": statistics.median(read_ms),
            "latency_p90_ms": percentile(read_ms, 90),
            "throughput_rps": len(timeline) / sum(latencies(None, False)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "workload": name,
        "seed": seed,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {"reads": reads, "deltas": len(timeline) - reads,
                    "setups": len(setup_times)},
        "input_fingerprint": inputs_fingerprint(inputs),
        "result_fingerprint": combined_fingerprint(leading),
        "labels": sorted(tracer.labels) if tracer else [],
    }


def metric_names(spec: dict, trace: bool) -> list[dict]:
    return spec["per_layer"] if trace else spec["end_to_end"]


def result_line(record: dict, spec: dict, trace: bool) -> dict:
    """The final JSON line: exactly correct / attempted / failed / metrics."""
    metrics = {
        entry["name"]: {"value": record["metrics"][entry["name"]], "unit": entry["unit"]}
        for entry in metric_names(spec, trace)
    }
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def describe(record: dict, spec: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    samples = record["samples"]
    lines = [
        f"== {record['workload']}  seed {record['seed']}  inputs {record['input_fingerprint']}"
        f"  results {record['result_fingerprint']}"
    ]
    for entry in metric_names(spec, trace):
        value = record["metrics"][entry["name"]]
        note = ""
        if entry["name"].startswith("latency_"):
            note = f"  (n={samples['reads']} reads)"
        lines.append(f"  {entry['name']:<26} {value:>14.4f} {entry['unit']}{note}")
    error_rate = record["failed"] / record["attempted"]
    lines.append(
        f"  {'error_rate':<26} {error_rate:>14.4f} fraction  "
        f"({record['failed']} of {record['attempted']} operations and checks)"
    )
    if record["labels"]:
        lines.append(f"  labels: {', '.join(record['labels'])}")
    return lines


def run_children(args, spec: dict) -> int:
    """Every workload in its own fresh child process, one after another."""
    from e2e.workloads import WORKLOADS

    environment = {k: v for k, v in os.environ.items() if k != "REPRO_WORKERS"}
    record = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cpus": os.cpu_count(), "python": platform.python_version(), "workloads": {},
    }
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.spans:
            command += ["--spans", args.spans]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=environment)
        lines = child.stdout.splitlines()
        details = [line for line in lines if line.startswith(DETAIL)]
        if not details:
            print(f"run.py: workload {name} exited {child.returncode} without a result",
                  file=sys.stderr)
            return 1
        record["workloads"][name] = json.loads(details[-1][len(DETAIL):])
        for line in lines[:-1]:
            if not line.startswith(DETAIL):
                print(line, flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
    return 1 if any(w["failed"] for w in record["workloads"].values()) else 0


def main(argv: list[str]) -> int:
    _use_program_source()
    if argv[:1] == ["compare"]:
        from e2e.compare import main as compare_main

        return compare_main(argv[1:], load_spec())
    from e2e.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the run's record as JSON")
    parser.add_argument("--spans", help="with --trace 1: directory for the span dumps")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.workload is None:
        return run_children(args, spec)

    record = run_workload(
        args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        spans=args.spans,
    )
    for line in describe(record, spec, bool(args.trace)):
        print(line)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "workloads": {args.workload: record}}, handle, indent=1)
    print(DETAIL + json.dumps(record))
    print(json.dumps(result_line(record, spec, bool(args.trace))), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
