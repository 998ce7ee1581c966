"""Scaling of timings to a fixed reference speed.

The machines this runs on are shared virtual machines whose speed swings
within seconds: a fixed pure-Python loop took 34 to 55 ms from one
5-second window to the next on a 2-vCPU Xeon VM, and the raw wall time of
one job list ranged from 8.0 to 15.3 s over ten runs (bench/README.md).
So a reference kernel is timed alongside the work, and a timed interval is
scaled by REFERENCE_S / (median kernel time around it).  A change to
nracks moves the scaled times as it moves the raw ones; a change in the
machine's speed moves the kernel too and cancels out.  The kernel is pure
interpreter work, like nracks, and touches nothing of the package.

In the workload loop a Monitor times the kernel every TICK_S seconds from
a SIGALRM handler, also in the middle of a call, so that a call of several
seconds is scaled by the speed the machine had while it ran, not only by
samples taken before and after it.
"""

import signal
import statistics
import time

# Kernel time at the reference speed: about its median on the 2-vCPU Xeon VM
# above, so scaled times read as seconds on that machine.
REFERENCE_S = 0.00045
# Seconds between two kernel samples of a Monitor, and the fewest samples
# an interval is scaled by.  A sample takes about 1% of the time between
# two; sampling every 0.05 s rather than every 0.2 s left the scaled times
# of single calls 10 to 20% less spread.
TICK_S = 0.05
MIN_TICKS = 5


def kernel_seconds() -> float:
    """Time one run of the fixed reference loop (about REFERENCE_S)."""
    start = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i
    return time.perf_counter() - start


def sample() -> float:
    """Median kernel time over ten runs."""
    return statistics.median(kernel_seconds() for _ in range(10))


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * REFERENCE_S / ((kernel_before + kernel_after) / 2)


class Monitor:
    """Kernel samples every TICK_S seconds while it is entered.

    The handler runs between two bytecodes of whatever is running, so it
    changes no state of the code it interrupts.  spent is the total time
    spent in the handler; a caller subtracts its growth over an interval
    from the interval's duration.  A Monitor that was never entered takes
    no samples and spent stays 0.
    """

    def __init__(self):
        self.ticks = []  # (perf_counter at the sample, kernel seconds)
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.ticks.append((start, kernel_seconds()))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S / median kernel time of the samples taken between
        start and end; when fewer than MIN_TICKS fell there, of the
        MIN_TICKS samples nearest to the interval's middle, before or
        after it.  Call it once sampling is over."""
        inside = [k for t, k in self.ticks if start <= t <= end]
        if len(inside) < MIN_TICKS:
            middle = (start + end) / 2
            nearest = sorted(self.ticks, key=lambda tick: abs(tick[0] - middle))
            inside = [k for _, k in nearest[:MIN_TICKS]]
        return REFERENCE_S / statistics.median(inside)
