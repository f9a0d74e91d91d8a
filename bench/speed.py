"""Machine speed, sampled on the benchmark's own CPU while it works.

On a shared host the same riemplan command can take up to twice as long
for minutes at a time, while the process runs without a pause: the
core it runs on gets slower.  A run can not wait that out.  So
while the benchmark measures, a timer interrupts it every ``INTERVAL_S``
and times a small fixed chunk of work, shaped like riemplan's (an
interpreter loop, small-array numpy calls, small dense solves).  The
benchmark takes the chunk time out of each operation's wall time, then
divides by the slowdown the chunks showed during that operation.  A time
so rescaled is in reference seconds: seconds on a machine that runs one
chunk in ``REF_CHUNK_S``.  The chunk uses no riemplan code, so a faster
riemplan still reads faster.
"""

from __future__ import annotations

import signal
import statistics
from time import monotonic

import numpy as np

# one chunk's wall time on the reference machine: the middle of the 4-9 ms
# it takes on a shared 2-CPU x86 VM (Python 3.11, numpy 2.4, one BLAS thread)
REF_CHUNK_S = 0.006
INTERVAL_S = 0.2
# chunks a window needs; shorter windows borrow the chunks around them
MIN_CHUNKS = 5

_rng = np.random.default_rng(20220111)
_G = _rng.standard_normal((2, 2, 2))
_X = _rng.standard_normal((4, 2))
_A = _rng.standard_normal((200, 200)) + 20.0 * np.eye(200)
_B = _rng.standard_normal((200, 4))


def chunk():
    """The fixed work, about a third each of loop, small arrays and solves."""
    s = 0
    for i in range(16_000):
        s += i * i % 7
    x = _X
    for _ in range(180):
        x = 0.999 * x + 1e-3 * np.einsum("ijk,nj,nk->ni", _G, x, x)
    for _ in range(4):
        np.linalg.solve(_A, _B)
    return s, x


class Speedometer:
    """Chunk (start, end) times, taken on a timer until close()."""

    def __init__(self):
        self.chunks = []
        for _ in range(MIN_CHUNKS):  # warm up; the first calls are slower
            chunk()
        for _ in range(MIN_CHUNKS):
            self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _tick(self, *_):
        t0 = monotonic()
        chunk()
        self.chunks.append((t0, monotonic()))

    def _inside(self, t0, t1):
        return [(s, e) for s, e in self.chunks if t0 <= s and e <= t1]

    def busy(self, t0, t1):
        """Chunk time inside [t0, t1], to take out of that window's wall time."""
        return sum(e - s for s, e in self._inside(t0, t1))

    def slowdown(self, t0, t1):
        """Median chunk time over REF_CHUNK_S for chunks inside [t0, t1].

        A window with fewer than MIN_CHUNKS chunks takes the MIN_CHUNKS
        chunks that end nearest its middle.
        """
        inside = self._inside(t0, t1)
        if len(inside) < MIN_CHUNKS:
            mid = 0.5 * (t0 + t1)
            inside = sorted(self.chunks, key=lambda c: abs(c[1] - mid))[:MIN_CHUNKS]
        return statistics.median(e - s for s, e in inside) / REF_CHUNK_S

    def close(self):
        """Stop the timer; calling it again does nothing."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
