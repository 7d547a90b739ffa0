"""A fixed piece of reference work, timed next to the program to read the
machine's speed at that moment.

On a shared machine a core runs the same code up to twice as slowly for
seconds at a time while its neighbours are busy, and process CPU time
slows with it, so neither wall time nor CPU time of one run repeats.  The
benchmark therefore times ``reference_work`` on the same CPU right before
each scene and reports every timing in *reference seconds*: the measured
time scaled by ``REFERENCE_S`` over the reference's measured time.  On a
quiet core the two are equal; a change to the program moves the scaled
time exactly as it moves the wall time, because the reference uses only
the standard library and none of the program's code.

The work mixes what ``brocard`` spends its time on: ``Fraction`` arithmetic
on numbers of about a hundred bits, which the default caps give, and
products of integers of about a thousand bits, which the large caps give.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Time of one reference_work() call on a quiet core of a 2-vCPU x86-64 VM
# with CPython 3.11; a scale for the reported numbers, not a measurement.
REFERENCE_S = 0.0022

_MASK = (1 << 112) - 1
_BIG = 3 ** 600 + 1  # about 950 bits


def reference_work() -> int:
    x = Fraction(1, 3)
    for i in range(1, 201):
        y = Fraction(i * 7919 % 1000003 + 1, i + 13)
        z = x * y + Fraction(3, i)
        x = Fraction((z.numerator & _MASK) + 1, (z.denominator & _MASK) + 1)
    acc = x.numerator
    for i in range(1, 301):
        acc = (acc * (_BIG + i)) % (_BIG - i)
    return acc


def reference_s() -> float:
    """Wall time of one reference_work() call."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
