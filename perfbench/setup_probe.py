"""Time one set-up of an in-process workload in a fresh interpreter.

Prints the seconds from before ``import ikwave`` to the end of one untimed
warm-up request, the set-up that every user of the library pays once.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT), str(ROOT / "src")]


def main(workload, seed, workdir):
    start = time.perf_counter()
    import ikwave  # noqa: F401  (timed on purpose)
    from perfbench.workloads import REQUESTS, InProcess
    runner = InProcess(workdir)
    request = next(REQUESTS[workload](int(seed)))
    runner.execute(request)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(*sys.argv[1:])
