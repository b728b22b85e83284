"""The calibration kernel that end-to-end times are expressed in.

The benchmark runs on small shared virtual machines whose speed drifts by
tens of percent in phases of seconds to minutes, so a raw wall time from
one run says as much about the host as about the code.  Timing this fixed
kernel right before and after every op, and dividing the op's wall time
by the kernel's, cancels the drift: the ratio is the op's cost in kernel
units (ku).  The kernel mixes the two kinds of work radialgeo does, a
pure-Python floating-point loop like a solver step and small numpy array
operations like a quadrature panel.  It must never change, or ku stops
being comparable across commits.
"""

from __future__ import annotations

import time

import numpy as np

_NODES = np.linspace(0.0, 1.0, 15)


def _kernel() -> float:
    f, fp, h = 0.0, 1.0, 1e-3
    for _ in range(2000):
        k1 = -0.3 * f
        mid = f + 0.5 * h * fp
        k2 = -0.3 * mid
        f, fp = f + h * fp + 0.5 * h * h * k1, fp + 0.5 * h * (k1 + k2)
    s = 0.0
    for i in range(150):
        s += float(np.dot(np.sin(_NODES * i), _NODES))
    return f + s


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
