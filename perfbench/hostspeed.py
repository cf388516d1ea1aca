"""Host-speed scaling of request times for a shared, noisy host.

On a shared 2-core x86-64 host the same requests took up to 1.9 times longer
from one minute to the next, in CPU time as much as in wall time.  The
slowdown hits the program and a fixed reference loop shaped like it alike:
over 30 repeats of one 16-request `spectrum_generic` batch the batch time
had IQR/median 0.19, the batch time over the reference time 0.04.  So the
closed loop times the reference loop every REF_EVERY seconds and reports
each duration scaled to a host on which the reference loop takes
REF_NOMINAL seconds.

The reference loop is a frozen copy of pairtrap's F integral as it stood
when the benchmark was written (the integrand of `spectral.f_integral` under
`numerics.integrate_semi_infinite_with_error`'s split quadpack calls), at
fixed points.  It imports nothing from pairtrap, so a change to the program
cannot move it.
"""

import bisect
import math
import os
import statistics
import subprocess
import sys
import time

from scipy import integrate

REF_NOMINAL = 1.3e-3   # s, the reference time on that host when it is busy
REF_EVERY = 0.05       # s between reference timings
REF_POINTS = ((0.7, 2.37), (1.3, 0.61), (2.1, 1.7), (0.9, 3.3))
# Set-up time is mostly interpreter start and dependency imports, which a
# slow host slows unlike the reference loop; it is scaled by its own
# reference, a fresh interpreter importing only pairtrap's dependencies.
IMPORT_NOMINAL = 0.75  # s, about that reference's median CPU time on that host
IMPORT_REFERENCE = ("import time, numpy, scipy.integrate, scipy.optimize; "
                    "print(time.process_time())")


def _lnq(s):
    if s < 1e-300:
        return 0.0
    if s > 40.0:
        return -math.log(s)
    return math.log(-math.expm1(-s) / s)


def reference_loop():
    """F(x, eta) by the defining integral at REF_POINTS; returns their sum."""
    total = 0.0
    for x, eta in REF_POINTS:
        def integrand(t):
            return t ** -1.5 * math.expm1(-x * t - 0.5 * _lnq(t) - _lnq(eta * t))

        total += integrate.quad(lambda u: 2.0 * u * integrand(u * u), 0.0, 1.0,
                                epsabs=1e-12, epsrel=1e-10, limit=200)[0]
        total += integrate.quad(integrand, 1.0, math.inf,
                                epsabs=1e-12, epsrel=1e-10, limit=200)[0]
    return total


def cpu_seconds():
    """CPU time of this process and of its waited-for children.

    Unlike wall time it leaves out the time the host gives the CPU to
    others; on the shared host single requests ran up to 3.6 times longer in
    wall time than in CPU time.
    """
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def import_reference(cwd):
    """CPU seconds a fresh interpreter takes to start and import numpy and
    the scipy modules pairtrap uses; runs no pairtrap code."""
    out = subprocess.run([sys.executable, "-c", IMPORT_REFERENCE], cwd=cwd,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout)


class HostSpeed:
    """Reference-loop timings over a run, and the scale factor they imply."""

    def __init__(self):
        self.starts = []
        self.seconds = []
        reference_loop()  # the first call pays scipy's lazy set-up

    def sample(self):
        self.starts.append(time.perf_counter())
        c0 = cpu_seconds()
        reference_loop()
        self.seconds.append(cpu_seconds() - c0)

    def due(self):
        return (not self.starts
                or time.perf_counter() - self.starts[-1] >= REF_EVERY)

    def factor(self, when):
        """REF_NOMINAL over the median of the two reference timings before
        `when` and the two after it, so one disturbed timing does not move
        the factor."""
        i = bisect.bisect_right(self.starts, when)
        return REF_NOMINAL / statistics.median(self.seconds[max(i - 2, 0):i + 2])
