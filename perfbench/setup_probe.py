"""One set-up measurement in a fresh process: import the galdescent CLI, then
read and parse every document of a workload.  Prints the time taken in
reference seconds (see hostclock.py), from calibration runs just before and
just after.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import statistics
import sys
import time

import hostclock
import workloads

sys.path.insert(0, str(workloads.SRC_DIR))
speed = [hostclock.kernel_seconds() for _ in range(5)]
start = time.perf_counter()
from galdescent.cli import parse  # noqa: E402

for text in {case.name: case.text for case in
             workloads.cases(sys.argv[1], int(sys.argv[2]))}.values():
    parse(text)
raw = time.perf_counter() - start
speed += [hostclock.kernel_seconds() for _ in range(5)]
print(raw * hostclock.REFERENCE_KERNEL_S / statistics.median(speed))
