#!/usr/bin/env python3
"""The repository's end-to-end, per-layer benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload forms_master_detail --seed 1 \\
        --seconds 20 --trace 0

Each run prints a readable report, writes it to ``perfbench/results/``, and
ends with one JSON line.  The exit status is 1 when any result was wrong
and 2 when the program under ``src/`` cannot be imported.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(HERE, ".work")


def pin_to_one_cpu() -> None:
    """Run the benchmark and every thread it starts on one CPU.

    CPython runs one thread's bytecode at a time.  With the threads of
    ``oltp_session_disk`` spread over the vCPUs of a shared virtual
    machine, every hand-over of the interpreter lock also waited for the
    host to run the other vCPU, and the workload's throughput spread
    about twice as far between runs as on one CPU.  Blocking I/O (fsync,
    pread) still overlaps with the other thread's work.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-1:])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    import driver
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        report = driver.measure(WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    driver.print_report(report)
    print(f"results: {driver.write_report(report)}")
    print(json.dumps(report["line"]))
    return 0 if report["line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
