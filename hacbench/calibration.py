"""Host-speed calibration for the timed operations.

On a shared host the speed of this process drifts by up to a quarter, in
spells from about a second to tens of seconds, and every operation slows
together. A median over one run cannot average that away. So each timed call
is bracketed by a fixed pure-Python loop, made of the work the engines' inner
loops do (tuple heap pushes and pops, dict reads and writes, float division).
The call's wall time is divided by the mean of the two loop times around it,
and multiplied by REFERENCE_S, the loop's time at the reference speed. What is
left is the call's time at that speed. The loop does not touch graphhac, so a
change to the program moves the scaled time as much as the wall time.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import Callable, TypeVar

T = TypeVar("T")

_RNG = random.Random(0)
_KEYS = [_RNG.random() for _ in range(4000)]
# About the median time of one _loop() on a 2-core shared Linux VM running
# Python 3.11.7 (its quartiles there were 3.6 and 5.1 ms). Scaled times are
# in seconds at that speed.
REFERENCE_S = 0.0045


def _loop() -> float:
    heap: list[tuple[float, int, int]] = []
    cut: dict[int, float] = {}
    for i, k in enumerate(_KEYS):
        heapq.heappush(heap, (k, i, i + 1))
        cut[i] = cut.get(i - 1, 0.0) + k
    total = 0.0
    while heap:
        _k, i, j = heapq.heappop(heap)
        total += cut.get(i, 0.0) / j
    return total


def loop_s() -> float:
    """Wall time of one calibration loop, with the collector off so that
    neither the program's garbage nor its gc settings reach it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed(fn: Callable[[], T]) -> tuple[T, float, float]:
    """Run `fn` once; returns its result, its wall time and its wall time
    scaled to the reference speed."""
    before = loop_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = loop_s()
    return result, wall, wall * REFERENCE_S * 2.0 / (before + after)
