"""The reference kernel that calibrates item latencies against the host's speed.

The benchmark runs on shared cores whose speed changes by up to 2x for
seconds to minutes at a time.  The cause lies outside the process, and CPU
time shows it as much as wall time.  No estimator within one run removes
it, because a whole run can fall inside one slow stretch.  So the
benchmark times a fixed piece of work, this kernel, after every item.  Each
item's latency is then scaled by how fast the kernel ran around it:

    calibrated = latency * REF_MS / median(kernel times of the items within WINDOW)

The kernel is a fixed mix of what alglab spends its time on: interpreted
integer loops with dict stores, and small int64 numpy products taken mod p.
It does not import alglab, so no change to the program can change it.  A
change that makes alglab do less work lowers every calibrated latency by
the same share as it lowers the wall-clock one.  REF_MS fixes the unit: it
is the kernel's time on the 2-core sandbox where the first baseline was
taken, in that host's fast state.  So calibrated times read as milliseconds
at that speed.  Set-up time is calibrated the same way, by kernel runs made
right after set-up.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

REF_MS = 0.5     # the kernel's time in the fast state of the baseline host
WINDOW = 5       # kernel samples on each side of an item that set its speed

_M = np.arange(64, dtype=np.int64).reshape(8, 8)


def _kernel() -> int:
    acc, slots = 0, {}
    for i in range(3000):
        acc += i * i % 7
        slots[i & 63] = acc
    for _ in range(40):
        acc += int((_M @ _M % 5).sum())
    return acc


def time_kernel() -> float:
    """Seconds one run of the kernel takes now.  The collector is held off
    so that garbage left by the items is not collected on the kernel's clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrate_now(seconds: float) -> float:
    """seconds of work just done, calibrated to ms by as many kernel runs,
    made now, as the window around an item holds."""
    local = statistics.median(time_kernel() for _ in range(2 * WINDOW + 1))
    return seconds * REF_MS / local


def calibrate(latencies: list[float], kernel_s: list[float]) -> list[float]:
    """Calibrated latencies in ms.  kernel_s[j] was timed right after item j,
    so the window around item j holds kernel runs from both sides of it."""
    out = []
    for j, lat in enumerate(latencies):
        local = statistics.median(kernel_s[max(0, j - WINDOW): j + WINDOW + 1])
        out.append(lat * REF_MS / local)
    return out
