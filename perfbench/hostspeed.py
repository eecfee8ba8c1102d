"""Host-speed reference for normalising times on a shared host.

The benchmark runs on a few cores of a shared machine whose speed changes
by up to 2x within seconds, from the load of its other tenants; CPU time
changes with it, so it is not a way out.  Raw batch times then differ by
about 20% between two 25-second runs of the same code.  The same swings
slow down any code running at that moment, so the benchmark times a fixed
reference kernel between short segments of each workload and reports every
segment's time at a nominal host speed:

    normalised = raw * REF_S / reference

where ``reference`` is the mean of the kernel's times just before and just
after the segment.  ``REF_S`` is a constant: the kernel's time on the
development host when it ran fast (2-core Intel Xeon VM at 2.0 GHz, numpy
with single-threaded OpenBLAS).  Normalised seconds are therefore seconds on
that host at its fast speed.  On the development host the median normalised
batch time of ten 20-second runs spread 3-6% (quartiles over the median);
raw mean batch times had spread 10-24% over ten 25-second runs.

The kernel touches none of the program.  It mixes the kinds of work the
workloads do: interpreted Python, small numpy operations, a 64x64 SVD and a
dense matrix-vector product.  ``svd`` is bound at import, so a traced run
that wraps ``numpy.linalg.svd`` does not count the kernel's calls.
"""

from time import perf_counter

import numpy as np

REF_S = 0.020
# Workload operations are timed in segments of at least this long, with the
# reference kernel between segments.
SEGMENT_S = 0.1

_svd = np.linalg.svd
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 64))
_M = _rng.standard_normal((96, 24))
_v = _rng.standard_normal(24)


def _kernel():
    s = 0.0
    for i in range(40000):
        s += (i % 7) * 0.5
    x = np.zeros(16)
    for _ in range(1500):
        x = np.sign(x + 0.1) * 0.5
        x * 2.0 + 1.0
    for _ in range(12):
        _svd(_A)
    for _ in range(3000):
        _M @ _v
    return s


def reference_s():
    """Time of one pass of the reference kernel, in seconds."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def normalise(raw_s, ref_before, ref_after):
    """``raw_s`` at the nominal host speed, from the reference times around it."""
    return raw_s * REF_S * 2.0 / (ref_before + ref_after)


class SegmentClock:
    """Times a sequence of operations in segments of at least ``SEGMENT_S``.

    ``run(op)`` calls ``op`` and adds its time to the open segment; once the
    segment is long enough, or at ``close()``, the reference kernel runs and
    the segment is normalised.  ``raw_s`` and ``normalised_s`` are the totals.
    An operation longer than ``SEGMENT_S`` (a parallel sweep) is a segment
    of its own.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.normalised_s = 0.0
        self.references = []
        self._segment_s = 0.0
        self._before = self._reference()

    def _reference(self):
        t = reference_s()
        self.references.append(t)
        return t

    def run(self, op):
        t0 = perf_counter()
        result = op()
        self._segment_s += perf_counter() - t0
        if self._segment_s >= SEGMENT_S:
            self._close_segment()
        return result

    def _close_segment(self):
        after = self._reference()
        self.raw_s += self._segment_s
        self.normalised_s += normalise(self._segment_s, self._before, after)
        self._segment_s = 0.0
        self._before = after

    def close(self):
        if self._segment_s > 0.0:
            self._close_segment()
