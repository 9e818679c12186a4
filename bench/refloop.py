"""The fixed reference loop that end-to-end timings are scaled by.

The host the benchmark was written on changes speed by up to a factor of
two over minutes, independently on each core. A timing divided by the time
per unit of this loop, run just before and just after it on as many
threads as the timed call uses, and multiplied by ``REF_UNIT_S``, reads
about the same whichever speed the host had.

One unit is a pure-Python arithmetic and dict loop plus a small heap-based
event loop, the two kinds of work the congo workloads are made of. It
never changes with the program, so a faster program still reads faster.
"""

from __future__ import annotations

import heapq
import random
import time
from concurrent.futures import ThreadPoolExecutor

# nominal seconds of one unit: the host speed timings are reported at
REF_UNIT_S = 0.01


def _unit() -> float:
    total, seen = 0.0, {}
    for i in range(30_000):
        total += (i * 7 % 13) * 0.5
        seen[i & 255] = total
    rng = random.Random(7)
    events = [(rng.expovariate(1.0), k) for k in range(64)]
    heapq.heapify(events)
    for _ in range(6_000):
        at, k = heapq.heappop(events)
        heapq.heappush(events, (at + rng.expovariate(1.0 + (k & 7)), k))
    return total + at


def reference(units: int, threads: int = 1) -> float:
    """Seconds per unit of the reference loop, run ``units`` times now.

    With ``threads`` > 1 the units run on a thread pool of that size, so
    they contend for the interpreter lock and the cores as ``congo run
    --jobs`` does.
    """
    start = time.perf_counter()
    if threads == 1:
        for _ in range(units):
            _unit()
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(lambda _: _unit(), range(units)))
    return (time.perf_counter() - start) / units
