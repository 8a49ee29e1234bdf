"""A fixed chunk of pure-Python work that tracks the host's speed.

On a shared host the same code runs up to about 1.7 times slower for
seconds to minutes at a time, as other tenants load the machine.  The
benchmark times this chunk between requests (and between the fresh
interpreters of the set-up measurement) and scales each time it reports by
NOMINAL_MS over the median of the chunk times around it: the time the work
would have taken with the host at its nominal speed.  The chunk does what
the package does most, interpreted integer arithmetic and big-integer
products, allocates no containers (so it never triggers the cyclic garbage
collector, whose cost would depend on the program's heap) and calls nothing
in the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import statistics
import time

#: Median chunk time on the reference host, a 2-vCPU x86-64 VM under
#: Python 3.11.7, in its faster periods.  Scaled times read as times on
#: that host at that speed.
NOMINAL_MS = 1.2
#: Chunks timed in each gap between two timed items; the first after a
#: wait runs on cold caches.
CHUNKS_PER_GAP = 5
#: Gaps on each side of an item whose median scales it.
REACH = 3

_MODULUS = 3**2100 + 1


def chunk_ms() -> float:
    """Run the reference chunk once; its wall time in milliseconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(18000):
        s += (i * i) % 7
    x = 7**1500 + s
    for _ in range(72):
        x = (x * 1234567891011) % _MODULUS
    return (time.perf_counter() - t0) * 1000


def gap_ms() -> float:
    """The median of CHUNKS_PER_GAP chunks: the host's speed between two timed items."""
    return statistics.median(chunk_ms() for _ in range(CHUNKS_PER_GAP))


def scale(times: list[float], chunks: list[float]) -> list[float]:
    """Scale ``times[i]`` to the nominal speed by the gaps timed around it.

    ``chunks[i]`` is the gap timed just before item i and ``chunks[-1]``
    the one after the last item, so ``len(chunks) == len(times) + 1``.
    """
    assert len(chunks) == len(times) + 1
    return [
        t * NOMINAL_MS / statistics.median(chunks[max(0, i - REACH + 1):i + REACH + 1])
        for i, t in enumerate(times)
    ]
