"""Simple switchings on biregular 0/1 matrices.

A switching is an ordered tuple (i, j, k, l) of row indices i, j and column
indices k, l.  It is feasible in A exactly when::

    a[i][k] = a[j][l] = 1      and      a[i][l] = a[j][k] = 0

which forces i != j and k != l.  Applying it flips those four entries
(ones become zeros and vice versa), so row and column sums are preserved
and the result is again d-biregular.  The reverse switching (i, j, l, k)
is feasible in the result and restores the original matrix, and
(i, j, k, l) and (j, i, l, k) always produce the same result, so the set
of feasible switchings comes in mirror pairs of even size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import BoundViolation, InfeasibleSwitchError, NoSwitchError
from .matrix import BiregularMatrix, build

__all__ = [
    "Switch",
    "SwitchCount",
    "can_perform",
    "apply_switch",
    "enumerate_switches",
    "dedup_switches",
    "count_with_bounds",
    "per_entry_counts",
    "random_switch",
]


class Switch(NamedTuple):
    """Ordered switching (i, j, k, l): rows i, j and columns k, l."""

    i: int
    j: int
    k: int
    l: int

    def reverse(self) -> "Switch":
        """The switching that undoes this one after it has been applied."""
        return Switch(self.i, self.j, self.l, self.k)

    def mirror(self) -> "Switch":
        """The companion tuple (j, i, l, k); applying it gives the same result."""
        return Switch(self.j, self.i, self.l, self.k)

    def canonical(self) -> "Switch":
        """Lexicographically smaller of the tuple and its mirror."""
        m = self.mirror()
        return self if self <= m else m


def _check_indices(a: BiregularMatrix, sw: Switch) -> None:
    for v in sw:
        if not (0 <= v < a.n):
            raise IndexError(f"switch index {v} outside [0, {a.n}) in {sw}")


def can_perform(a: BiregularMatrix, sw: Switch) -> bool:
    """True when the feasibility pattern of ``sw`` holds in ``a``."""
    _check_indices(a, sw)
    i, j, k, l = sw
    ri, rj = a.row_supports[i], a.row_supports[j]
    return k in ri and l in rj and l not in ri and k not in rj


def apply_switch(a: BiregularMatrix, sw: Switch) -> BiregularMatrix:
    """Return a new matrix with the four entries of ``sw`` flipped.

    Raises :class:`InfeasibleSwitchError` when the pattern does not hold.
    """
    if not can_perform(a, sw):
        raise InfeasibleSwitchError(f"{sw} is not feasible")
    return build(a.n, a.d, _switched_rows(a, sw))


def _switched_rows(a: BiregularMatrix, sw: Switch) -> tuple[tuple[int, ...], ...]:
    """Row supports of ``a`` after the feasible switching ``sw``, unvalidated:
    l takes k's place in row i and k takes l's place in row j."""
    i, j, k, l = sw
    rows = list(a.row_supports)
    rows[i] = tuple(sorted(l if t == k else t for t in rows[i]))
    rows[j] = tuple(sorted(k if t == l else t for t in rows[j]))
    return tuple(rows)


def enumerate_switches(a: BiregularMatrix) -> Iterator[Switch]:
    """Yield every feasible ordered switching, in deterministic order.

    Order: i ascending, k ascending within row i, then j ascending,
    l ascending within row j.
    """
    supports = a.row_supports
    for i in range(a.n):
        ri = supports[i]
        for k in ri:
            for j in range(a.n):
                if j == i:
                    continue
                rj = supports[j]
                if k in rj:
                    continue
                for l in rj:
                    if l not in ri:
                        yield Switch(i, j, k, l)


def dedup_switches(switches: Iterable[Switch]) -> list[Switch]:
    """Collapse mirror pairs to canonical representatives, sorted.

    On the full feasible set this halves the count: the mirror of a feasible
    switching is feasible, distinct, and produces the same matrix.
    """
    return sorted({sw.canonical() for sw in switches})


@dataclass(frozen=True)
class SwitchCount:
    """Feasible-switching count together with the proved two-sided bounds."""

    total: int
    lower_bound: int
    upper_bound: int


def count_with_bounds(a: BiregularMatrix) -> SwitchCount:
    """Count feasible ordered switchings and check the counting bounds.

    The count always lies in [n(n-d)d^2 - nd(d-1)^2, n(n-d)d^2]; a value
    outside that window raises :class:`BoundViolation`, which would mean
    the counting argument itself is broken (a bug, not bad input).
    """
    return _count_with_bounds(a, enumerate_switches(a))


def _count_with_bounds(a: BiregularMatrix, switches: Iterable[Switch]) -> SwitchCount:
    """:func:`count_with_bounds` over the feasible ``switches`` of ``a``."""
    n, d = a.n, a.d
    total = sum(1 for _ in switches)
    upper = n * (n - d) * d * d
    lower = upper - n * d * (d - 1) * (d - 1)
    if not (lower <= total <= upper):
        raise BoundViolation(
            f"switch count {total} outside [{lower}, {upper}] for n={n}, d={d}"
        )
    return SwitchCount(total=total, lower_bound=lower, upper_bound=upper)


def per_entry_counts(a: BiregularMatrix) -> dict[tuple[int, int], int]:
    """For each one-entry (i, k), the number of feasible (j, l) completions.

    Each per-entry count lies in [(n-d)d - (d-1)^2, (n-d)d]; summing over
    all n*d one-entries gives the total of :func:`count_with_bounds`.
    """
    return _per_entry_counts(a, enumerate_switches(a))


def _per_entry_counts(a: BiregularMatrix, switches: Iterable[Switch]) -> dict[tuple[int, int], int]:
    """:func:`per_entry_counts` over the feasible ``switches`` of ``a``."""
    counts = {(i, k): 0 for (i, k) in a.ones()}
    for sw in switches:
        counts[(sw.i, sw.k)] += 1
    return counts


def random_switch(
    a: BiregularMatrix, rng: np.random.Generator, max_tries: int = 10_000
) -> Switch:
    """Draw a uniform feasible switching by rejection.

    Two one-entries (i, k) and (j, l) are drawn uniformly and independently
    and kept iff the switching (i, j, k, l) is feasible, so each feasible
    switching has the same acceptance probability 1/(nd)^2 per try.  Raises
    :class:`NoSwitchError` once ``max_tries`` proposals were rejected.
    """
    n, d = a.n, a.d
    supports = a.row_supports
    for _ in range(max_tries):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        ki, lj = (int(v) for v in rng.integers(0, d, size=2))
        k = supports[i][ki]
        l = supports[j][lj]
        if l not in supports[i] and k not in supports[j]:
            # l != k and j != i are implied: (j, l) is a one-entry.
            return Switch(i, j, k, l)
    raise NoSwitchError(f"no feasible switching found in {max_tries} tries (n={n}, d={d})")
