"""A fixed pure-Python kernel that gauges how fast the machine runs code like
the program's at the moment it is sampled.

The host this benchmark was written on, a 2-vCPU shared VM, ran the same work
at speeds up to 1.7x apart in phases lasting minutes: neighbours on the host
share its cores and caches, and ``time.process_time`` slows with wall time,
so no choice of clock removes it.  A run therefore samples this kernel between
the checks it times and states its times at the speed where the kernel takes
``REFERENCE_S`` (see ``run.py``).

The kernel does what the program's hot paths do, with its own code, so no
change to ``ringinv`` can move it: integer row reduction of small matrices
(as in ``lattices.hermite_form``) and closing a set of tuples under addition
(as in subgroup enumeration).  Never change the kernel or ``REFERENCE_S``: it
is the unit every time metric is stated in, and runs before and after such a
change could not be compared.
"""

from __future__ import annotations

import random
import time

# mean kernel time on the 2-vCPU Xeon (2.1 GHz) VM with no other load in
# the VM
REFERENCE_S = 0.0023

_RNG = random.Random(1704)
_MATRICES = [[[_RNG.randrange(-9, 10) for _ in range(6)] for _ in range(8)]
             for _ in range(12)]
_MODULI = (4, 6, 9)
_GENERATORS = ((1, 0, 3), (0, 1, 2), (2, 3, 1))


def _hermite(rows, width: int) -> tuple:
    a = [list(r) for r in rows if any(r)]
    m, r = len(a), 0
    for c in range(width):
        while True:
            nz = [i for i in range(r, m) if a[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            a[r], a[i0] = a[i0], a[r]
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            clean = True
            for i in range(r + 1, m):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    clean = clean and not a[i][c]
            if clean:
                break
        if r < m and a[r][c]:
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    return tuple(tuple(row) for row in a[:r])


def _closure(gens) -> int:
    seen = {(0, 0, 0)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % m for a, b, m in zip(x, g, _MODULI))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def kernel() -> int:
    """The fixed work; returns a checksum so it cannot be skipped."""
    return sum(len(_hermite(m, 6)) for m in _MATRICES) + _closure(_GENERATORS)


KERNEL_CHECKSUM = 288


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    if kernel() != KERNEL_CHECKSUM:
        raise RuntimeError("the calibration kernel gave a wrong result")
    return time.perf_counter() - start
