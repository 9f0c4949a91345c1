"""``run.py compare BASE CHANGE``: two sets of runs, metric by metric.

Each side is one record written by ``run.py --out`` or a directory of them;
several records make several runs per side.  For every end-to-end metric of
``BENCHMARK.json`` and every workload it prints each side's median and
quartiles and one verdict against the metric's bound (a share of the base
median):

* ``regressed`` — the change's median is worse by more than the bound, and
  the runs' spread is within the bound or every change run is worse than
  every base run;
* ``unresolved`` — otherwise, when either side's spread (quartile distance
  over median) is wider than the bound, unless every change run is better
  than every base run (``improved``);
* ``improved`` — better by more than the bound;
* ``unchanged`` — otherwise.

Runs with the same seed must agree on input and result fingerprints, and no
run may have failed a check.  The exit code is non-zero on a regression, an
unresolved metric, a fingerprint mismatch or a failed run.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load_records(path: str) -> list[dict]:
    """The records in a file, or in every ``*.json`` file of a directory."""
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    records = []
    for file in files:
        with open(file) as handle:
            records.append(json.load(handle))
    if not records:
        raise SystemExit(f"compare: no records in {path}")
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], bound: float, better: str) -> str:
    sign = 1 if better == "lower" else -1
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    worse = sign * (c2 - b2) / b2  # > 0: the change reads worse
    spread = max((b3 - b1) / b2, (c3 - c1) / c2)
    all_better = all(sign * c < sign * b for c in change for b in base)
    all_worse = all(sign * c > sign * b for c in change for b in base)
    if worse > bound and (spread <= bound or all_worse):
        return "regressed"
    if spread > bound:
        return "improved" if all_better else "unresolved"
    if worse < -bound:
        return "improved"
    return "unchanged"


def fingerprint_mismatches(records: list[dict]) -> list[str]:
    seen: dict[tuple, set] = defaultdict(set)
    for record in records:
        for name, run in record["workloads"].items():
            key = (name, run["seed"])
            seen[key].add((run["input_fingerprint"], run["result_fingerprint"]))
    return [
        f"{name} seed {seed}: {sorted(prints)}"
        for (name, seed), prints in sorted(seen.items())
        if len(prints) > 1
    ]


def main(argv: list[str], spec: dict) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: run.py compare BASE CHANGE  (record files or directories)")
    base, change = load_records(argv[0]), load_records(argv[1])
    workloads = [w["name"] for w in spec["workloads"]]
    problems = 0
    print(f"base: {len(base)} run(s)   change: {len(change)} run(s)")
    print(f"{'workload':<16} {'metric':<16} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'change':>8}  verdict")
    for name in workloads:
        for metric in spec["end_to_end"]:
            values = [
                [r["workloads"][name]["metrics"][metric["name"]]
                 for r in side if name in r["workloads"]]
                for side in (base, change)
            ]
            if not all(values):
                continue
            outcome = verdict(values[0], values[1], metric["bound"], metric["better"])
            problems += outcome in ("regressed", "unresolved")
            (b1, b2, b3), (c1, c2, c3) = quartiles(values[0]), quartiles(values[1])
            print(
                f"{name:<16} {metric['name']:<16} "
                f"{f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':>32} "
                f"{f'{c2:.4g} [{c1:.4g}, {c3:.4g}]':>32} "
                f"{(c2 - b2) / b2:>+8.1%}  {outcome}"
            )
    mismatches = fingerprint_mismatches(base + change)
    for line in mismatches:
        print(f"fingerprint mismatch: {line}")
    failed = [
        f"{name} seed {run['seed']}: {run['failed']} of {run['attempted']}"
        for record in base + change
        for name, run in record["workloads"].items()
        if run["failed"]
    ]
    for line in failed:
        print(f"failed checks: {line}")
    return 1 if problems or mismatches or failed else 0
