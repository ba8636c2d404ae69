"""A fixed reference kernel, timed next to every op to factor out host speed.

The benchmark shares a small host whose speed drifts by up to 1.5x in
phases of seconds to minutes, slowing the program and this kernel alike.
The runner times the kernel right before each op and each set-up step and
reports ``NOMINAL_S * (step time / kernel time)``, the kernel time being
the median of its last three samples: seconds on a host where the kernel
takes ``NOMINAL_S``.  A change to the program moves the step time and not
the kernel, so it moves the reported figure in proportion.

The kernel mixes the two costs the workloads are made of -- NumPy gathers
and reductions over CSR-sized arrays, and interpreter work -- and allocates
nothing above glibc's mmap threshold (128 KiB), so it leaves the
allocator's state, and with it the ops' page faults, as it found it.
"""

import statistics
import time

import numpy as np

__all__ = ["NOMINAL_S", "HostSpeed"]

#: The kernel's median time on the quiet 2-vCPU x86-64 host the benchmark
#: was calibrated on (Python 3.11, NumPy 2.4).
NOMINAL_S = 0.035

_N = 8000
_DEGREE = 32


class HostSpeed:
    """Times the reference kernel and keeps every sample."""

    def __init__(self):
        rng = np.random.default_rng(20180723)
        self._table = rng.integers(0, 1 << 20, _N)
        self._index = rng.integers(0, _N, _N * _DEGREE)
        self._gathered = np.empty(_N * _DEGREE, dtype=np.int64)
        self._rows = np.empty(_N, dtype=np.int64)
        self.samples = []

    def _kernel(self):
        total = 0
        for _ in range(20):
            np.take(self._table, self._index, out=self._gathered)
            np.min(self._gathered.reshape(_N, _DEGREE), axis=1, out=self._rows)
            np.bitwise_and(self._rows, 1023, out=self._rows)
            total += int(np.bincount(self._rows, minlength=1024).argmax())
            counts = {}
            for v in range(4000):
                counts[v & 255] = counts.get(v & 255, 0) + v
            total += len(counts)
        return total

    def sample(self):
        """Run the kernel once; returns (and keeps) its wall time."""
        start = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def scale(self, seconds):
        """``seconds`` measured just after the latest sample, in nominal seconds.

        One sample is short enough to catch a scheduler hiccup the measured
        step averages out, so the scale is the median of the last three.
        """
        return seconds * NOMINAL_S / statistics.median(self.samples[-3:])
