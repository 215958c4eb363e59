"""Speed-calibrated timing.

The benchmark runs on shared hosts whose CPU speed drifts by up to 2x over
seconds to minutes while the process is never descheduled (CPU time equals
wall time), so raw timings of the same code spread far more than any useful
regression bound.  A fixed calibration loop, run in short slices right next
to the measured work, slows down by the same factor.  Each measured interval
is therefore scaled by (calibration rate seen around it) / REFERENCE_RATE,
which gives the time the work would take on a host running the calibration
loop at REFERENCE_RATE units per second.  A change to the program moves
these figures as it moves raw time; a change in host speed largely cancels.
"""

import time

# calibration units per second on the reference host (a quiet 2-CPU
# x86-64 container, Python 3.11, numpy 2.4); only a scale factor
REFERENCE_RATE = 40000.0

# each calibration slice lasts this share of the interval it calibrates,
# and at least MIN_SLICE seconds
SLICE_SHARE = 0.1
MIN_SLICE = 0.001


class Calibrator:
    def __init__(self):
        import numpy as np
        self._a = (np.arange(40 * 40, dtype=np.int64).reshape(40, 40)
                   * 7919) % 251
        self._v = np.arange(40, dtype=np.int64)

    def _unit(self):
        # a mix of interpreter work (int arithmetic, dict and list
        # updates) and a small int64 numpy product, like the program's
        # own inner loops
        acc = 0
        d = {}
        for i in range(60):
            acc = (acc * 31 + i) % 1000003
            d[i & 15] = acc
        v = self._v
        for _ in range(2):
            v = (self._a @ v) % 251
        return acc + int(v[0])

    def rate(self, seconds):
        """Run calibration units for about `seconds`; units per second."""
        seconds = max(seconds, MIN_SLICE)
        n = 0
        t0 = time.perf_counter()
        while True:
            self._unit()
            n += 1
            dt = time.perf_counter() - t0
            if dt >= seconds:
                return n / dt

    def scale(self, raw, rate):
        """Raw seconds measured at `rate` as reference seconds."""
        return raw * rate / REFERENCE_RATE
