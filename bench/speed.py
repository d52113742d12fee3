"""Machine-speed correction for timed runs.

On the 2-core virtual machine this benchmark was built on, CPU speed moves
between states up to 1.75x apart, for seconds to minutes at a time, with
load the benchmark does not control; a whole run can fall in a slow state.
So timed runs sample a fixed pure-Python reference loop between items and
report each item's time scaled to one reference speed:

    reported = measured * REFERENCE_S / (median reference-loop time within
                                         WINDOW_S of the item's midpoint)

The loop uses no quivpush code, so a change to quivpush does not move it.
On a quiet machine the scale is constant and only sets the unit.
"""

from __future__ import annotations

import bisect
import statistics
import time

# the reference-loop time that reported times assume: about what the loop
# takes on the machine above in its faster state
REFERENCE_S = 400e-6
EVERY_S = 0.05
WINDOW_S = 0.25


def reference_loop():
    """Fixed interpreter work: tuple-keyed dict inserts, str() and a sort."""
    table = {}
    for i in range(600):
        table[(i, i * 7 % 13)] = [i, str(i)]
    return sorted(table.items(), key=lambda kv: (kv[1][1], kv[0]))


class Speedometer:
    def __init__(self):
        self.at = []
        self.cost = []
        self.due = 0.0

    def sample(self):
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.at.append(start)
        self.cost.append(end - start)
        self.due = end + EVERY_S

    def tick(self):
        """Sample the reference loop if the last sample is EVERY_S old."""
        if time.perf_counter() >= self.due:
            self.sample()

    def scale(self, t):
        """Factor that brings a time measured around t to reference speed."""
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        window = self.cost[lo:hi]
        if not window:
            nearest = min(range(len(self.at)), key=lambda i: abs(self.at[i] - t))
            window = [self.cost[nearest]]
        return REFERENCE_S / statistics.median(window)
