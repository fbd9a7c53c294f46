"""One set-up sample: import specgraph and make one tiny call of a workload.

Run by run.py in a fresh interpreter, from the root of a checkout:
``python3 bench/setup_probe.py <workload>``.  Prints the seconds from before
the import to the end of the warm-up call, so interpreter start-up is not
counted.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(workload):
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import specgraph  # noqa: F401  (the import is what is timed)
    warm_up(workload)
    print(repr(time.perf_counter() - t0))


def warm_up(workload):
    """First call of the workload's code path at the tiny size."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    call = next(workloads.plan(workload, 0, workloads.TINY))
    workloads.run_call(workload, call, scratch)


if __name__ == "__main__":
    main(sys.argv[1])
