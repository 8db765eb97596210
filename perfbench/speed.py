"""Machine-speed correction.

On a shared machine the same Python code runs up to a third slower for
tens of seconds at a time, which no median inside a 15-second run can
remove.  The benchmark therefore times a fixed calibration unit -- pure
Python tuple building and recursive walking, the same kind of work as the
program's -- next to the operations it measures, and scales each measured
time by ``REFERENCE_S / (the calibration time measured around it)``.  A
scaled time reads as the time the operation would take on a machine
where the unit takes ``REFERENCE_S``; with a faster program it falls, and
with a busier machine it stays.  The unit runs between operations, never
inside a timed interval.
"""

from __future__ import annotations

import bisect
import statistics
import time

# about the median time of unit() on a 2-core x86-64 cloud VM, Python 3.11
REFERENCE_S = 0.001


def _build(depth: int):
    return ("and", _build(depth - 1), _build(depth - 1)) if depth else ("atom", "p")


def _walk(node) -> int:
    if node[0] == "atom":
        return 1
    return _walk(node[1]) + _walk(node[2])


def unit() -> int:
    tree = _build(9)
    table = {}
    for i in range(3000):
        table[(i, i % 7)] = str(i)
    return sum(_walk(tree) for _ in range(3)) + len(table)


def sample() -> float:
    """Seconds one calibration unit takes now."""
    start = time.perf_counter()
    unit()
    return time.perf_counter() - start


def samples(count: int = 5) -> list:
    return [sample() for _ in range(count)]


def factor(seconds) -> float:
    """REFERENCE_S over the median of calibration times ``seconds``."""
    return REFERENCE_S / statistics.median(seconds)


def scale(times, durations, cal_times, cal_samples, near: int = 5) -> list:
    """Scale each duration, ending at ``times[i]``, by the median of the
    ``near`` calibration samples taken closest to it in time."""
    if not cal_samples:
        raise ValueError("no calibration samples")
    out = []
    for t, d in zip(times, durations):
        j = bisect.bisect(cal_times, t)
        lo = max(0, min(j - near // 2, len(cal_times) - near))
        out.append(d * factor(cal_samples[lo:lo + near]))
    return out


def timed(fn, *args, **kwargs):
    """(scaled seconds, result) of one call, calibrated just before and
    just after it."""
    before = samples()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds = time.perf_counter() - start
    return seconds * factor(before + samples()), result
