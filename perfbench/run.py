"""Entry point: ``python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]``.

Run from the repository root.  The program under test is imported from
``src/``; a tree without it makes the run exit with status 2 before any
measurement.  The numeric libraries' thread pools are pinned to one
thread before numpy is first imported, so the workload's own load
threads are the only busy ones.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment variables that size numpy/scipy's native thread pools.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def build_parser() -> argparse.ArgumentParser:
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    loadavg = os.getloadavg()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # the script's own directory would shadow nothing useful; import the
    # benchmark as a package and the program from src/
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    args = build_parser().parse_args(argv)
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"

    from perfbench import harness

    return harness.main(args, ROOT, loadavg)


if __name__ == "__main__":
    sys.exit(main())
