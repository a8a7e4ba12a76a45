"""A fixed reference job, timed beside the workload, to correct timings
for the host's speed.

The benchmark shares a few cores of a host whose speed changes by tens of
percent within seconds and minutes, in process CPU time as much as in
wall time. A slowdown of the host slows this job about as much as it
slows the program. So the benchmark times the job before and after each
set-up and each CLI call, and once a second inside a call, and scales
the wall seconds between two job runs by REF_S over the mean of their
times: that gives seconds at reference speed, the speed at which the job
takes REF_S. The job mixes
what the program spends its time on: interpreted loops, numpy calls on
small and large arrays, and zlib compression. It uses nothing from the
program, so no change to the program changes it.
"""

import signal
import statistics
import time
import zlib

# About the job's median on the 2-core Xeon VM the benchmark was written
# on, so scaled figures read as seconds there.
REF_S = 0.06
SAMPLES = 5  # job runs per sample; their median is the sample
TICK_S = 1.0  # inside a timed call, the job runs once this often


def _job(np, data, small, big):
    acc = {}
    for i in range(20000):  # interpreted loop with dict traffic
        acc[i % 97] = acc.get(i % 97, 0) + i * i % 7
    for _ in range(150):  # many numpy calls on small arrays
        order = np.argsort(small, axis=0, kind="stable")
        np.cumsum(np.take_along_axis(small, order, axis=0), axis=0)
    np.sort(big)  # one numpy call on a large array
    zlib.compress(data, 6)
    return acc


def _inputs():
    import numpy as np
    rng = np.random.default_rng(0)
    small = rng.standard_normal((40, 45))
    big = rng.standard_normal(200_000)
    data = np.round(rng.standard_normal(150_000) * 15).astype(np.int16).tobytes()
    return np, data, small, big


_INPUTS = None
_TIMES = []  # every job run of this process, for the record


def sample():
    """Seconds the job takes now: the median of SAMPLES runs."""
    global _INPUTS
    if _INPUTS is None:
        _INPUTS = _inputs()
        _job(*_INPUTS)  # warm up
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _job(*_INPUTS)
        times.append(time.perf_counter() - start)
    _TIMES.extend(times)
    return statistics.median(times)


def to_reference(seconds, before, after):
    """Wall seconds timed between two samples, in seconds at reference speed."""
    return seconds * REF_S / ((before + after) / 2.0)


def timed(fn):
    """Call fn(); returns (its wall seconds, the same at reference speed, its result).

    A sample is taken before and after, and an interval timer runs the job
    once every TICK_S while fn runs, between two of its bytecodes. Each
    stretch of fn between two job runs is scaled by the mean of their
    times, so a change of speed within a long call is followed. The job's
    own time is left out of both results.
    """
    ticks, busy = [], [False]

    def tick(signum, frame):
        if busy[0]:
            return
        busy[0] = True
        start = time.perf_counter()
        _job(*_INPUTS)
        ticks.append((start, time.perf_counter()))
        busy[0] = False

    first = sample()
    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    last = sample()
    wall = reference = 0.0
    t, speed = start, first
    for tick_start, tick_end in ticks + [(end, None)]:
        job_s = tick_end - tick_start if tick_end is not None else last
        wall += tick_start - t
        reference += (tick_start - t) * REF_S / ((speed + job_s) / 2.0)
        t, speed = tick_end, job_s
    _TIMES.extend(b - a for a, b in ticks)
    return wall, reference, result


def record():
    return {"ref_s": REF_S, "job_runs": len(_TIMES),
            "job_median_s": statistics.median(_TIMES)}
