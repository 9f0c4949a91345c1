"""Command-line entry point: ``python -m repro.harness`` / ``repro-harness``.

Runs one (or all) of the paper's experiments and prints the corresponding
table.  Example::

    python -m repro.harness fig11
    python -m repro.harness all
    python -m repro.harness multiwindow --backend columnar

``--backend`` restricts which backends the backend-comparison experiments
time (the skipped side prints ``-``).  It works by setting the
``REPRO_BACKEND`` environment variable for the duration of the run, so
scripted callers can set the variable directly instead.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.harness.figures import ALL_EXPERIMENTS, BACKEND_CHOICES, BACKEND_ENV

__all__ = ["main"]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Reproduce the tables and figures of the paper's evaluation (Section 9).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(ALL_EXPERIMENTS) + ["all"],
        help="experiment id (figure number) or 'all'",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default=None,
        help="backends to time in the backend-comparison experiments "
        "(default: all; the skipped backend's columns print '-')",
    )
    args = parser.parse_args(argv)

    previous = os.environ.get(BACKEND_ENV)
    if args.backend is not None:
        os.environ[BACKEND_ENV] = args.backend
    try:
        names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        for name in names:
            result = ALL_EXPERIMENTS[name]()
            print(result.to_text())
            print()
    finally:
        if previous is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = previous
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
