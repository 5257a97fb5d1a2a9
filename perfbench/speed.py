"""Machine speed, measured inside each run.

The benchmark's host shares its CPUs with other work, and the same solve
reads up to 30% apart from one half-minute to the next. A fixed loop of
pure-Python set, heap and tuple work slows down with it, so the benchmark
times this loop around every pass and scales each reported time by
``REFERENCE_S / loop time``: a time reads as the seconds it would have taken
on a host where the loop takes ``REFERENCE_S``. The loop runs no qosd code,
so no change to the program moves it; the collector is off while it runs,
so the program's heap size does not either.
"""

from __future__ import annotations

import gc
import random
import time
from heapq import heappop, heappush

# median loop time on the 2-CPU host the README's reference figures come from
REFERENCE_S = 0.08


def loop_seconds() -> float:
    """Wall time of one run of the fixed loop: random draws, a set of tuples
    and a heap, the kinds of work the instance builders and solvers do."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(1)
        seen: set[tuple[int, int]] = set()
        heap: list[tuple[float, int]] = []
        for i in range(40_000):
            seen.add((rng.randrange(10_000), rng.randrange(10_000)))
            heappush(heap, (rng.random(), i))
        while heap:
            heappop(heap)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
