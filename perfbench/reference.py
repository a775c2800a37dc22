"""A fixed reference computation that measures the host's current speed.

The benchmark runs on shared hosts whose speed swings by 20-45% over
seconds to minutes, so that the same job takes very different times from
one run to the next.  A run therefore times this computation too, between
jobs and between set-ups, and reports every time at the reference speed:

    reported seconds = measured seconds * REFERENCE_S / median(reference times)

The reference is a small signature refinement on dicts, lists and tuples,
the kind of work the library does, so host slow-downs hit both alike.  It
does not depend on the library, the seed or the workload; a change to the
program under test cannot change it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# About the median time of one reference() on the host the baseline was
# taken on (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7).  A fixed
# constant: it only sets the scale, so that reported times read as seconds
# on that host at its usual speed.
REFERENCE_S = 0.014

SAMPLES = 3  # references per sampling point
INTERVAL_S = 0.5  # at most one sampling point per this many seconds


def reference(n=3000, rounds=12) -> int:
    """Refine a labelled cycle by successor signatures; returns the blocks."""
    succ = {i: (i + 1) % n for i in range(n)}
    block = {i: i % 3 for i in range(n)}
    sig = {}
    for _ in range(rounds):
        sig = {}
        for i in range(n):
            sig.setdefault((block[i], block[succ[i]]), []).append(i)
        block = {}
        for b, (_, members) in enumerate(sorted(sig.items())):
            for i in members:
                block[i] = b
    return len(sig)


class Speed:
    """Reference times taken at points through one phase of a run.

    Each point is the median of ``SAMPLES`` references.  A job (or set-up)
    is scaled by the mean of the point taken just before it and the first
    point taken after it, so that it is compared with the host's speed at
    the time it ran: the swings last seconds.
    """

    def __init__(self):
        self.points = []
        self.last = None

    def sample(self):
        times = []
        for _ in range(SAMPLES):
            t = perf_counter()
            reference()
            times.append(perf_counter() - t)
        self.points.append(statistics.median(times))
        self.last = perf_counter()

    def maybe_sample(self):
        if self.last is None or perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def mark(self) -> int:
        """The point before the work that starts now; pass it to scale()."""
        return len(self.points) - 1

    def scale(self, seconds, mark) -> float:
        """``seconds`` measured after ``mark``, at the reference speed."""
        after = min(mark + 1, len(self.points) - 1)
        return seconds * REFERENCE_S / ((self.points[mark] + self.points[after]) / 2)
