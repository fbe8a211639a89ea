"""Host speed, measured next to every timing, and the scaling it implies.

The benchmark runs on a shared two-core host whose speed changes by half
within seconds and by a third between sets of runs minutes apart, for
serial code as much as for threads.  Measured times alone then spread by
more than any useful bound.  So every timed request is preceded by a fixed
reference task of the same kind of work, and the end-to-end times are
scaled to the host speed at which that task takes its reference time:

    scaled = measured * reference time / time of the task near that request

In-process requests use a small kernel of Python float arithmetic, small
numpy operations and float formatting; cold-process requests use a child
interpreter that imports numpy and scipy.integrate, which is most of what
an ``ikwave`` command does before its own work.  Neither task runs ikwave,
so a change to the program moves the scaled times exactly as it moves the
measured ones, while a slower or faster host moves both and cancels.  The
measured values are kept in the run report.
"""

import statistics
import subprocess
import sys
import time

import numpy as np

KERNEL_REF_S = 1e-4           # nominal kernel time
CHILD_REF_S = 0.5             # nominal reference-child time
KERNEL_REPS = 5
LOCAL_HALF_WIDTH = 5          # requests on each side sharing one estimate
CHILD_CODE = "import numpy, scipy.integrate"


def _kernel():
    y0, y1, y2 = 0.1, 0.2, 0.3
    for _ in range(150):
        a = y0 * 1.0001 + y1 * 0.5
        b = y1 - y2 * 0.3
        c = (a * a + b * b + 1.0) ** 0.5
        y0, y1, y2 = a / c, b / c, y2 + 1e-4
    v = np.linspace(0.0, 1.0, 32)
    for _ in range(10):
        v = np.sqrt(v * v + 1e-3)
    return ",".join(repr(float(t)) for t in v)


def kernel_factor():
    """Reference over measured time of the in-process kernel (median of
    KERNEL_REPS runs); above 1 when the host runs fast."""
    samples = []
    for _ in range(KERNEL_REPS):
        start = time.perf_counter()
        _kernel()
        samples.append(time.perf_counter() - start)
    return KERNEL_REF_S / statistics.median(samples)


def child_factor(env):
    """Reference over measured wall time of one reference child."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_CODE], env=env, check=True,
                   stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
    return CHILD_REF_S / (time.perf_counter() - start)


def local(factors):
    """Per request, the median factor of its neighbours in the run."""
    h = LOCAL_HALF_WIDTH
    return [statistics.median(factors[max(i - h, 0):i + h + 1])
            for i in range(len(factors))]
