"""Host speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose cores drift in speed, each on its
own, by tens of percent within a minute, for every instruction alike.  A fixed
pure-Python loop, timed next to each measured piece of work, tracks that
drift; a time divided by the loop's time and multiplied by REF_SECONDS reads
as it would have on a host where the loop takes REF_SECONDS.  The loop uses
nothing from the package under test, so a change to the package cannot move
it.  This module imports nothing heavy, so a fresh interpreter can time the
loop before it imports the package.
"""

import statistics
import time

REF_LOOPS = 60000
# About the loop's median time on a 2-core 2.1 GHz Xeon VM with Python 3.11.
# Only ratios to it matter, so it stays fixed.
REF_SECONDS = 0.006


def reference_seconds():
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    if acc < 0:
        raise AssertionError("reference loop overflowed")
    return time.perf_counter() - start


def reference_block(seconds):
    """Median time of the loop, run until the runs add up to ``seconds``
    (once at least)."""
    times = [reference_seconds()]
    while sum(times) < seconds:
        times.append(reference_seconds())
    return statistics.median(times)


def at_reference_speed(seconds, ref):
    """``seconds`` measured while the reference loop took ``ref`` seconds."""
    return seconds * REF_SECONDS / ref
