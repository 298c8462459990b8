"""Reference kernel that rescales measured times to a fixed machine speed.

The speed of the host the benchmark was defined on drifts by a factor of
about 1.6, in phases lasting from a fraction of a second to tens of
seconds, because its cores are shared with other machines.  Raw wall times
of two runs of the same code therefore differ by up to 60%.

To cancel the drift, the benchmark times this fixed pure-Python kernel
between units of work (grid rounds, verify families, set-up steps) and
multiplies each unit's time by ``REF_MS / r``, where ``r`` is the mean of
the kernel times measured just before and just after the unit.  Reported
times are thus milliseconds on a machine where the kernel takes ``REF_MS``.
The kernel mixes the library's three kinds of work: integer row
elimination, ``Fraction`` arithmetic and set/list updates.  On the host
above, its time tracks the slowdown of each workload's own work to within
about 12%, against 60% for raw times.

The kernel is the benchmark's own code and never calls the library, so a
change to the library moves the rescaled times exactly as it moves the raw
ones.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Time of reference() on an idle core of the defining host
# (Intel Xeon, 2.0 GHz, Python 3.11.7).
REF_MS = 2.7


def _integer_elimination() -> None:
    p = 1_000_003
    rows = [[(i * 7919 + j * 104729 + i * j) % 97 for j in range(24)] for i in range(24)]
    for c in range(24):
        pivot = rows[c]
        inv = pow(pivot[c] or 1, -1, p)
        for k in range(c + 1, 24):
            f = rows[k][c] * inv % p
            rows[k] = [(a - f * b) % p for a, b in zip(rows[k], pivot)]


def _fraction_rref() -> None:
    n = 6
    rows = [[Fraction((i * 31 + j * 17) % 11 - 5, 1 + (i + j) % 3) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((k for k in range(c, n) if rows[k][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        lead = rows[c][c]
        rows[c] = [v / lead for v in rows[c]]
        for k in range(n):
            if k != c and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[c])]


def _set_walk() -> None:
    sets = [set(range(i, i + 8)) for i in range(64)]
    lists = [sorted(s) for s in sets]
    x = 12345
    for _ in range(1200):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i, j = x % 64, (x >> 8) % 64
        k, l = lists[i][(x >> 16) % 8], lists[j][(x >> 20) % 8]
        if l in sets[i] or k in sets[j]:
            continue
        lists[i][lists[i].index(k)] = l
        lists[j][lists[j].index(l)] = k
        sets[i].discard(k)
        sets[i].add(l)
        sets[j].discard(l)
        sets[j].add(k)


def reference_ms() -> float:
    # With the collector off, the kernel's allocations cannot set off a
    # collection that walks the library's heap; that cost stays in the
    # library's units of work.
    gc.disable()
    try:
        start = perf_counter()
        _integer_elimination()
        _fraction_rref()
        _set_walk()
        return (perf_counter() - start) * 1000.0
    finally:
        gc.enable()


class Speed:
    """Rescaling factors for consecutive units of work.

    Call :meth:`factor` right after each unit; it times the kernel once,
    and the unit's factor uses that time and the one taken before the unit.
    """

    def __init__(self) -> None:
        self._before = reference_ms()
        self.samples = [self._before]

    def factor(self) -> float:
        after = reference_ms()
        self.samples.append(after)
        f = REF_MS / ((self._before + after) / 2.0)
        self._before = after
        return f
