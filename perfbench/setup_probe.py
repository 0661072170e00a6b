"""Set up one workload in a fresh interpreter and print the monotonic clock.

    python3 perfbench/setup_probe.py <workload>

`run.py` reads the clock before spawning this script; the difference is the
workload's set-up time: interpreter start, importing slicelab, loading and
validating the reference scenario, and building the workload's allocation.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(workloads.import_slicelab())
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
