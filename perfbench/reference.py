"""A fixed reference kernel that tracks how fast this machine runs Python right now.

On a shared machine the speed of one core drifts by tens of percent over a
few seconds, as other processes come and go; a run measured in a slow spell
would read as a regression.  The benchmark therefore times this kernel
between slices of the workload and scales each slice's times by
nominal / (kernel time around the slice).  Timings then read as if the
machine ran at the speed where the kernel takes its nominal time, and a
change to the library still moves them one for one, since the kernel does
not use it.

The kernel mixes what the library spends its time on: integer loops, and
products of small polynomials with Fraction coefficients held in dicts.
Work done in fresh interpreters (set-up, whole CLI invocations) is scaled
by the same kernel run in a fresh interpreter, which adds process start and
imports to it: `python3 perfbench/reference.py`.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# about the kernel's times on a 2-CPU x86-64 VM with Python 3.11
NOMINAL_INLINE_S = 0.010
NOMINAL_PROCESS_S = 0.100

_POOL = [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2), Fraction(3, 11)]


def kernel() -> int:
    s = 0
    for i in range(40000):
        s += i * i % 7
    a = {i: _POOL[i % 4] for i in range(8)}
    acc = {0: Fraction(1)}
    for _ in range(10):
        nxt: dict[int, Fraction] = {}
        for e1, c1 in acc.items():
            for e2, c2 in a.items():
                e = e1 + e2
                if e < 24:
                    nxt[e] = nxt.get(e, 0) + c1 * c2
        acc = nxt
    return s + len(acc)


def sample_inline() -> float:
    """Seconds the kernel takes now, in this process."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def sample_process() -> float:
    """Seconds a fresh interpreter takes to start, import and run the kernel
    four times: about as much start-up as computation, like the CLI mix."""
    t0 = perf_counter()
    subprocess.run([sys.executable, __file__], check=True)
    return perf_counter() - t0


class Scaler:
    """Kernel samples at slice boundaries, and a scale factor per slice.

    Slice j lies between samples j and j+1; its factor uses the median of
    the samples j-1 .. j+2, since one sample alone is noisier than the
    drift it tracks.
    """

    def __init__(self, in_process: bool = True):
        self._sample = sample_inline if in_process else sample_process
        self._nominal = NOMINAL_INLINE_S if in_process else NOMINAL_PROCESS_S
        self.samples = [self._sample()]

    def mark(self) -> int:
        """Sample the kernel again; the index of the slice that just closed."""
        self.samples.append(self._sample())
        return len(self.samples) - 2

    def factor(self, j: int) -> float:
        return self._nominal / statistics.median(self.samples[max(0, j - 1):j + 3])


if __name__ == "__main__":
    for _ in range(4):
        kernel()
