"""Time one set-up in a fresh interpreter and print it in seconds.

Set-up is importing qct plus building the workload's inputs from the seed.
``run.py`` starts this several times per run and reports the median, since an
import can only be timed once per process.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import benchenv  # noqa: E402  (pins BLAS threads before numpy loads)

benchenv.import_qct()
import workloads  # noqa: E402

workloads.build(sys.argv[1], benchenv.ROOT, int(sys.argv[2]))
print(repr(time.perf_counter() - T0))
