"""The host's current speed, from a fixed pure-Python reference kernel.

On a shared machine the same code runs at different speeds from one minute
to the next. On a 2-core shared VM, pinned to one CPU, one osra-reference
task repeated on one seed took times with a coefficient of variation of
0.20; scaled by this kernel, timed just before and after each repetition,
0.12. Over ten 20 s runs of audit-overload-poisson the median task took
0.245-0.346 s while task time over kernel time stayed within 90-100.

Timings are therefore reported at the speed of a reference host, one on
which the kernel takes REFERENCE_S: raw seconds times REFERENCE_S over the
kernel's mean time, measured in the same process just before and just after
the timed work and, since the speed also moves within a second, every
SAMPLE_EVERY_S during it (see `Stopwatch`). The kernel belongs to the
benchmark, never to slicelab, so no change to the program moves it.
"""
import random
import signal
import statistics
import time

REFERENCE_S = 0.003
REPS = 5           # kernel passes per measurement, ~15 ms in all
SAMPLE_EVERY_S = 0.2
_RNG = random.Random(0)
_ARRIVALS = [_RNG.random() * 2.0 for _ in range(50_000)]


def kernel_seconds():
    """Time one pass of a FIFO departure recursion over fixed inputs."""
    t0 = time.perf_counter()
    prev, out = -1.0, []
    for t in _ARRIVALS:
        prev = (t if t > prev else prev) + 1.0
        out.append(prev)
    return time.perf_counter() - t0


def measure():
    """Median time of REPS kernel passes, taken back to back."""
    return statistics.median(kernel_seconds() for _ in range(REPS))


def scale(*kernel_s):
    """Factor that turns raw seconds of work into seconds at reference
    speed, from kernel times taken around and during the work."""
    return REFERENCE_S / statistics.fmean(kernel_s)


class Stopwatch:
    """Wall seconds of the work done in a `with` block.

    With sample=True a SIGALRM handler times one kernel pass every
    SAMPLE_EVERY_S of the block, into `kernel`; the handler's own time is
    left out of `seconds`. The handler runs between bytecodes, so it never
    changes what the timed code computes.
    """

    def __init__(self, sample=False):
        self.sample = sample
        self.kernel = []
        self.seconds = 0.0
        self._spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel.append(kernel_seconds())
        self._spent += time.perf_counter() - t0

    def __enter__(self):
        if self.sample:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.sample:  # disarmed first: a late tick falls inside the timed span
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.seconds = time.perf_counter() - self._start - self._spent
        return False
