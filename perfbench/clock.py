"""Host-speed sampling, so that timings of one commit agree from run to run on
a shared host.

On a host shared with other tenants the same CPU-bound Python code runs at
different speeds from one moment to the next (on a 2-vCPU Intel Xeon VM, a
fixed loop took 1.5 ms in one stretch of 20-200 ms and 2.5 ms in the next),
and the share of slow stretches drifts over minutes.  A ``Sampler`` thread
measures that speed while a task runs.  Every few milliseconds it takes the
interpreter lock and times one burst of a fixed reference kernel in its own
thread CPU time; the running task loses the lock for that burst only.  A
task's CPU time scaled by

    (REF_BURST_S / mean burst CPU time while the task ran) ** SPEED_EXPONENT

is what the task would have taken on a host running the kernel at the
reference speed.  The kernel does the kind of arithmetic qfodc does (sparse
integer polynomial products and a gcd by pseudo-remainders) but none of
qfodc's code, so a slow stretch slows both alike, while a change to qfodc
changes the task and not the kernel.  This only holds when the sampler runs
on the CPU the task runs on: ``pin_to_one_cpu`` keeps the whole process there.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time

# CPU time of one burst on a quiet vCPU of the host the benchmark was tuned
# on (Intel Xeon, 2 vCPUs, Python 3); only sets the scale of the results.
REF_BURST_S = 2.2e-4
# The tasks slow down a little less than the kernel: over 13 passes of six
# lie-rank and certify tasks on that host, the slope of log task time on log
# sampled speed was -0.87 to -0.91.
SPEED_EXPONENT = 0.9
PERIOD_S = 0.002  # sleep between bursts; the lock then comes back within 5 ms


def _pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return out


def _primitive(a):
    g = 0
    for c in a:
        g = math.gcd(g, c)
    return [c // g for c in a] if g > 1 else a


def _prem(a, b):
    """Pseudo-remainder of dense integer polynomials (ascending order)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        a = [c * lb for c in a]
        for i in range(db + 1):
            a[da - db + i] -= la * b[i]
        while a and a[-1] == 0:
            a.pop()
    return a


def kernel():
    """A fixed burst of integer polynomial arithmetic: two sparse products
    with a common factor, then their gcd by a primitive remainder sequence."""
    h = {0: 1, 1: 2, 2: -1}
    for _ in range(8):
        f = _pmul({0: 3, 1: -5, 2: 7, 3: 1, 5: -2}, h)
        g = _pmul({0: -4, 2: 9, 3: 1, 4: 6}, h)
        a = [f.get(i, 0) for i in range(max(f) + 1)]
        b = [g.get(i, 0) for i in range(max(g) + 1)]
        while b:
            a, b = b, _primitive(_prem(a, b))
    return a


def pin_to_one_cpu():
    """Keep this process, its threads and its children on one CPU, so that the
    sampler measures the CPU the tasks run on."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux, or not allowed: run unpinned
        pass


def speed(bursts):
    """(REF_BURST_S / mean burst time) ** SPEED_EXPONENT, the mean taken over
    the middle 90% of the bursts (the ends hold interrupts and timer ticks)."""
    xs = sorted(bursts)
    cut = len(xs) // 20
    return (REF_BURST_S / statistics.fmean(xs[cut:len(xs) - cut])) ** SPEED_EXPONENT


class Sampler(threading.Thread):
    """Times bursts of ``kernel`` until ``stop``; ``bursts`` is the list of
    burst CPU times, in order, so a caller can slice out the bursts that ran
    during one task by its length before and after."""

    def __init__(self):
        super().__init__(daemon=True, name="perfbench-sampler")
        self.bursts = []
        self._halt = threading.Event()

    def run(self):
        clock = time.thread_time
        while not self._halt.is_set():
            t0 = clock()
            kernel()
            self.bursts.append(clock() - t0)
            time.sleep(PERIOD_S)

    def stop(self):
        self._halt.set()
        self.join()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
