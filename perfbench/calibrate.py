"""Host-speed calibration: express host times in reference seconds.

The benchmark runs on a few cores of a shared host whose speed drifts by
a quarter or more over seconds to minutes, per core.  Raw host times of
one unchanged campaign spread 9-20% (CV) from run to run; that hides
any change smaller than the drift.

A :class:`Calibrator` interleaves a fixed pure-Python reference burst
with the campaign, in the campaign's own process: a ``SIGALRM`` timer
runs the burst every ``PERIOD_S`` host seconds.  Each burst measures the
speed of the core the campaign is on at that moment.  A host-time window
is then converted piece by piece: the time between two bursts, minus
the bursts themselves, is scaled by ``REF_BURST_S / burst_s`` of the
burst that opened the piece.  The result is the time the window would
have taken on a host where the reference burst takes exactly
``REF_BURST_S``: "reference seconds".

The burst has two halves, because the campaign slows down more than
cache-resident code when the host is contended: dict stores and lookups
on 256 keys, and a pointer chase around a ring of ``RING_NODES`` objects
linked in random order (larger than a core's L2 cache).  On a 2-core
x86 VM, in four sets of ten campaigns of one seed, host time spread
9-16% (CV) and reference seconds 2-5%; the dict half alone gave 2-6%,
the ring alone 2-6%, a ring of ints in a list 8% and a large-dict
probe 8%.

The burst is perfbench code, not program code, so a change to the
program moves the campaign's reference seconds and not the yardstick.
The bursts take 3-4% of the campaign's host time; they are cut out of
the window, not counted.  The ring adds its own size to the process's
peak RSS; ``ring_mb`` is that size, so that the caller can take it back
out.
"""

from __future__ import annotations

import gc
import random
import signal
import sys
import time

#: host seconds between two reference bursts
PERIOD_S = 0.05
#: nominal duration of one burst: the unit of reference seconds
REF_BURST_S = 1.2e-3
#: dict operations, and ring hops, in one burst
BURST_OPS = 4000
#: objects in the pointer-chase ring
RING_NODES = 200_000


class _Node:
    __slots__ = ("nxt", "v")


def _ring() -> _Node:
    """A ring of ``RING_NODES`` nodes, linked in a fixed random order."""
    nodes = [_Node() for _ in range(RING_NODES)]
    order = list(range(RING_NODES))
    random.Random(1).shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        nodes[a].nxt = nodes[b]
        nodes[a].v = a & 255  # a cached small int: no object per node
    return nodes[0]


class Calibrator:
    """Runs reference bursts on a timer and converts host-time windows."""

    def __init__(self) -> None:
        #: (start, end, burst_s) per burst, in perf_counter time
        self.samples: list[tuple[float, float, float]] = []
        self._node = _ring()
        # Move the ring, and the little else alive yet, out of the
        # cyclic GC's sight: tracked, it would slow every full
        # collection of the campaign's heap.
        gc.freeze()
        #: the ring's size; the temporaries that built it are freed
        self.ring_mb = RING_NODES * sys.getsizeof(self._node) / 2**20

    def burst(self) -> int:
        """The reference work: dict operations, then ring hops."""
        d: dict[int, int] = {}
        s = 0
        for i in range(BURST_OPS):
            d[i & 255] = i
            s += d.get((i * 7) & 255, 0)
        node = self._node
        for _ in range(BURST_OPS):
            node = node.nxt
            s += node.v
        self._node = node
        return s

    def sample(self, *_args) -> None:
        start = time.perf_counter()
        self.burst()
        end = time.perf_counter()
        self.samples.append((start, end, end - start))

    def start(self) -> None:
        """Take one burst now, then one every ``PERIOD_S``."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_s(self, begin: float, end: float) -> float:
        """Reference seconds of the host-time window ``[begin, end]``.

        Every piece is scaled by the last burst that started before it;
        a burst inside the window is cut out of it.
        """
        rate = None
        pos = begin
        total = 0.0
        for s_start, s_end, burst_s in self.samples:
            if s_start >= end:
                break
            if s_start > pos:
                if rate is None:
                    rate = REF_BURST_S / burst_s
                total += (s_start - pos) * rate
            rate = REF_BURST_S / burst_s
            pos = max(pos, s_end)
        if rate is None:
            raise ValueError("no reference burst before the window ends")
        return total + max(0.0, end - pos) * rate
