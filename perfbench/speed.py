"""Machine-speed reference for normalising job times.

The benchmark machine's speed drifts by up to half over tens of seconds
(shared hosts), which no run length here can average out.  A fixed
pure-Python reference task, timed every REF_INTERVAL_S between jobs, tracks
that drift; a job's time is scaled by REF_NOMINAL_S over the median
reference time measured within REF_WINDOW_S of the job.  The scaled times
are what the job would take on a machine running the reference task in
REF_NOMINAL_S.  The reference is the benchmark's own code, so no change to
the package moves it.
"""

import bisect
import statistics
import time

REF_NOMINAL_S = 0.004
REF_INTERVAL_S = 0.25
REF_WINDOW_S = 1.0

_TABLE = list(range(3600))


def reference_task():
    """Table lookups, set inserts, tuple slices and calls, as the package's
    counters do; about 4 ms on a 2 GHz Xeon core."""
    table, seen, acc = _TABLE, set(), 0
    for i in range(6000):
        a = table[(i * 37) % 3600]
        acc += a
        seen.add(a % 97)
        tuple(table[i % 50:i % 50 + 4])
    return acc


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.durations = []

    def sample(self):
        t0 = time.perf_counter()
        reference_task()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def maybe_sample(self):
        if not self.starts or \
                time.perf_counter() - self.starts[-1] >= REF_INTERVAL_S:
            self.sample()

    def scale(self, t0, t1):
        """Factor turning a time measured over [t0, t1] into nominal time."""
        lo = bisect.bisect_left(self.starts, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + REF_WINDOW_S)
        if lo == hi:  # no sample nearby: take the nearest one
            lo = min(max(lo - 1, 0), len(self.starts) - 1)
            hi = lo + 1
        return REF_NOMINAL_S / statistics.median(self.durations[lo:hi])
