"""Executable forms of the rank/switching lemmas and their proof mechanisms.

Each operation here turns one mathematical statement into a checkable
computation on concrete matrices:

* the rank-delta law — a switching moves the rank by at most one, and by
  the step that Meyer's rank-one-update criterion predicts from the two
  kernels;
* K_A — the ordered pairs (i, j) where the kernel equals the orthogonal
  complement of F(A; i, j) = span{rows except i, j; row i + row j};
* the two facts about F(A; i, j) that K_A rests on — a switching on rows i
  and j leaves F unchanged, and ker A lies in F^perp;
* x-bad switchings (x_k = x_l) and the unconditional counting chain
  ``count <= d^2 * sum |L_p|^2 <= n * max|L_p| * d^2`` over level sets L_p;
* the rank-increase mechanism — a feasible switching that is not x-bad
  with (i, j) in K_A raises the rank by exactly one;
* replay of the K_A lower-bound proof, constructing its witnesses
  explicitly and re-verifying every certified pair by the definition;
* the level-set delocalization event, checked on the finite certified
  subset of kernel vectors that the proofs actually consume;
* the double-counting claim and the explicit rank-class relation Q_r
  built from deduped switchings.

F(A; i, j) is handled through the supports of its spanning rows, the
form that :func:`dreglab.linalg.f_rows` expands, never through a basis of
F^perp: f-invariance compares the supports before and after a switching,
kernel containment sums a vector over each support, and K_A compares rank F
with rank A.

A family sweep (:func:`run_family_checks`) reads one memo that lives for
the call.  The memo owns the family's row classes, the members with the
same rows up to order, and its rank census.  A row permutation changes
the outcome of no per-matrix check, so each runs once per class, on its
first member, and counts for every member.  The memo keeps facts for
those first members only: feasible switchings, switched results, K_A and
the replay, each computed once; qr-relation reads the switched results of
the other members there, relabelled.  Their other facts, which its
level-set filter reads, are made when asked and dropped with their
reader.  Ranks and kernels come from a table inside the memo
that runs one Bareiss elimination per row multiset, so the row- and
column-permuted members of a family share them.  The single-matrix
functions are thin wrappers over the same private helpers, each on a
memo of its one matrix, so every check has one implementation.

Everything is exact: kernel vectors are the canonical integer bases of
:mod:`dreglab.linalg`, replay witnesses are integer left-kernel vectors,
and the questions asked of them (orthogonality to
rows, x_k = x_l, level-set sizes) do not depend on how a vector is scaled.
There is no tolerance anywhere.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import (
    BoundViolation,
    ConsistencyError,
    DimensionError,
    NotSingularError,
    PreconditionError,
    SizeGuardError,
    WitnessConstructionError,
)
from .linalg import (
    RATIONAL_THRESHOLD,
    SubspaceBasis,
    _bareiss,
    _f_supports,
    _primitive,
    format_vector,
    rational_rank,
)
from .matrix import BiregularMatrix, build, serialize
from .switching import (
    Switch,
    _count_with_bounds,
    _per_entry_counts,
    _switched_rows,
    apply_switch,
    dedup_switches,
    enumerate_switches,
)

__all__ = [
    "LevelSetProfile",
    "DelocParams",
    "DelocResult",
    "MechanismReport",
    "ReplayWitness",
    "ReplayReport",
    "QrStatsReport",
    "CheckReport",
    "rank_delta_check",
    "compute_KA",
    "count_x_bad",
    "level_sets",
    "deloc_event",
    "rank_increasing_switchings",
    "verify_increase_mechanism",
    "replay_KA_bound",
    "double_count_check",
    "qr_relation_stats",
    "run_family_checks",
]


# ─── level sets and delocalization parameters ──────────────────────────────


@dataclass(frozen=True)
class LevelSetProfile:
    """Sizes of the level sets L_p = {s : x_s = lambda_p} of a vector."""

    sizes: tuple[int, ...]  # descending
    max_size: int
    by_value: tuple[tuple[int | Fraction, int], ...]  # (value, size), value-sorted


def level_sets(x: Sequence[int | Fraction]) -> LevelSetProfile:
    """Group coordinates by exact value.

    Coordinates are counted as given (ints or Fractions, which hash and
    compare by value).
    """
    counts = Counter(x)
    sizes = tuple(sorted(counts.values(), reverse=True))
    return LevelSetProfile(
        sizes=sizes,
        max_size=sizes[0] if sizes else 0,
        by_value=tuple(sorted(counts.items())),
    )


@dataclass(frozen=True)
class DelocParams:
    """The free constant C and the level-set bound it induces.

    The bound theta(n, d) = min(n, C n ln^2(d) / ln(n)) caps at n, so with
    C large enough every check is vacuous; C defaults to 1 and is carried
    into every report rather than hidden.  C may be given as anything
    ``Fraction`` accepts, such as the string ``"3/2"``; a zero denominator,
    or a C too large to convert to a float, is a ValueError like any other
    malformed C.
    """

    C: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        try:
            c = Fraction(self.C)
        except ZeroDivisionError:
            raise ValueError(f"C has a zero denominator: {self.C}") from None
        if c <= 0:
            raise ValueError(f"C must be positive, got {self.C}")
        try:
            float(c)  # beta scales by float(C)
        except OverflowError:
            raise ValueError(f"C is too large for a float: {self.C}") from None
        object.__setattr__(self, "C", c)

    def beta(self, n: int, d: int) -> float:
        """The capped level-set bound (theta); never exceeds n."""
        if n < 2:
            return float(n)
        raw = float(self.C) * n * math.log(d) ** 2 / math.log(n)
        return min(float(n), raw)


@dataclass(frozen=True)
class DelocResult:
    """Outcome of the level-set event on the certified vector subset.

    ``vectors_checked`` counts the vectors read before the event was
    decided: every certified vector when it holds, and the witness's
    1-based position in checking order when it fails.  It is 0 when
    theta >= n: no level set of an n-vector exceeds n, so the event holds
    without a kernel, a replay or a vector being read.
    """

    holds: bool
    theta: float
    C: Fraction
    vectors_checked: int
    witness_vector: tuple[int, ...] | None = None
    witness_value: int | None = None
    witness_size: int | None = None
    witness_source: str | None = None

    def __bool__(self) -> bool:
        return self.holds


# ─── K_A ────────────────────────────────────────────────────────────────────


def _guard(n: int) -> None:
    if n > RATIONAL_THRESHOLD:
        raise SizeGuardError(
            f"n={n} exceeds the exact-arithmetic guard {RATIONAL_THRESHOLD}"
        )


def _family(matrices: Iterable[BiregularMatrix]) -> list[BiregularMatrix]:
    """``matrices`` as a list: nonempty, one (n, d), and within the size guard."""
    pool = list(matrices)
    if not pool:
        raise ValueError("empty matrix family")
    n, d = pool[0].n, pool[0].d
    if any(m.n != n or m.d != d for m in pool):
        raise ValueError("matrix family mixes different (n, d)")
    _guard(n)
    return pool


def compute_KA(a: BiregularMatrix) -> frozenset[tuple[int, int]]:
    """K_A: the ordered pairs (i, j), i != j, with ker A = F(A; i, j)^perp.

    Found by brute force as the pairs with rank F(A; i, j) == rank A, F
    ranked from the row supports of its spanning rows (the form
    :func:`dreglab.linalg.f_rows` expands).  Each
    spanning row of F is a row of A or the sum of two rows, so F lies in the
    row space of A and ker A is contained in F^perp for every A; the
    kernel-containment check of :func:`run_family_checks` confirms this on
    every pair it visits.  The two spaces are therefore equal iff their
    dimensions agree, which means rank F = rank A.  F(A; i, j) = F(A; j, i),
    so the rank runs once per unordered pair and membership is recorded
    symmetrically.

    Closed form: (i, j) is in K_A iff some left-kernel vector y (y^T A = 0)
    has y_i != y_j.  Proof: write r_s for row s of A.  The row space of A is
    F + span{r_i}, because r_j = (r_i + r_j) - r_i, so rank F = rank A iff
    r_i lies in F, that is, iff r_i = c (r_i + r_j) + sum_{s != i, j} c_s r_s
    for some rationals c and c_s.  Such a relation, moved to one side, is a
    left-kernel vector y with y_i = 1 - c, y_j = -c and y_s = -c_s, so
    y_i - y_j = 1.  Conversely, a left-kernel y with y_i != y_j, divided by
    y_i - y_j, has y_i - y_j = 1, and c = -y_j, c_s = -y_s give the relation,
    since r_i - c (r_i + r_j) - sum c_s r_s = sum_s y_s r_s = 0.  A basis
    decides the "some": if every basis vector has y_i = y_j, so does every
    combination.  So K_A is empty at full rank, and its complement is the
    set of pairs in one joint level set of a left-kernel basis.  The tests
    compare the closed form with this function; the checks keep the
    definition, which ka-replay confirms its certified pairs against.
    """
    _guard(a.n)
    return _Memo([a]).of(a).ka


def _ka_set(f: "_Facts") -> frozenset[tuple[int, int]]:
    """K_A of the matrix of ``f``, from the ranks of F(A; i, j) and of A."""
    rows = f.a.row_supports
    pairs: set[tuple[int, int]] = set()
    for i in range(f.a.n):
        for j in range(i + 1, f.a.n):
            if f.table.rank(_f_supports(rows, i, j)) == f.rank:
                pairs.add((i, j))
                pairs.add((j, i))
    return frozenset(pairs)


# ─── the family memo ────────────────────────────────────────────────────────

_Rows = tuple[tuple[int, ...], ...]  # a matrix's row supports, or a sorted multiset of them


class _Table:
    """Exact rank and right kernel of n-column matrices, one Bareiss
    elimination (:func:`dreglab.linalg._bareiss`) per row multiset.

    A matrix is given by its row supports, as ``_bareiss`` reads them: the
    merged row i + j of F(A; i, j) repeats the columns rows i and j share,
    and a zeroed row is ``()``.  Permuting rows
    changes neither the rank nor {x : Bx = 0}, so both are kept under the
    sorted tuple of supports, and every matrix with the same multiset of
    rows reads one entry.  That covers a member, its switched results,
    F(A; i, j) and A with a row zeroed.  The left kernel of A is the right
    kernel of A^T, whose rows are A's columns: permuting A's columns leaves
    it unchanged, and it is read under the multiset of A's columns.

    The right kernel is back-substituted from the same echelon only when
    asked for.  An entry made for its rank alone would be eliminated again
    for its kernel, which a sweep never asks: it reads kernels of members
    and their transposes only, and ranks alone of F and of zeroed rows,
    whose multisets no member has.  The table holds no :class:`_Facts`.
    """

    def __init__(self, n: int):
        self.n = n
        self._known: dict[_Rows, tuple[int, SubspaceBasis | None]] = {}

    def rank(self, rows: Sequence[tuple[int, ...]]) -> int:
        return self.exact(rows)[0]

    def exact(
        self, rows: Sequence[tuple[int, ...]], kernel: bool = False
    ) -> tuple[int, SubspaceBasis | None]:
        """The rank of the matrix with these row supports and, with
        ``kernel``, its right kernel (else None)."""
        key = tuple(sorted(rows))
        got = self._known.get(key)
        if got is None or (kernel and got[1] is None):
            got = self._known[key] = _bareiss(key, self.n, kernel)
        return got


class _Facts:
    """One matrix, with the facts the checks share about it.

    Each fact is computed on first use and kept for as long as the facts
    live, so every check that reads them reads the same switchings,
    kernels, K_A and replay.  The rank and the right kernel are read from
    ``table`` under the multiset of the matrix's rows, the left kernel under
    the multiset of its columns (see :class:`_Table`), so what a row or
    column permutation cannot change is shared with every matrix that has
    it; the switchings, K_A and the replay are the matrix's own.
    ``switched`` holds the facts of the matrix's switched results, and
    ``members`` the family's members by row supports, to find them in; a
    sweep switches its classes' first members only (:meth:`_Memo.first_of`).
    Facts hold no memo and no other facts but their results, so they form no
    reference cycle and are freed with their last reader.
    """

    def __init__(self, a: BiregularMatrix, table: _Table, members: Mapping[_Rows, BiregularMatrix]):
        self.a = a
        self.table = table
        self.members = members
        self._results: dict[Switch, _Facts] = {}

    @cached_property
    def rank(self) -> int:
        # asked with the kernel, so that one elimination gives both
        return self.table.exact(self.a.row_supports, kernel=True)[0]

    @cached_property
    def switches(self) -> list[Switch]:
        """Every feasible ordered switching, in enumeration order."""
        return list(enumerate_switches(self.a))

    @cached_property
    def switched(self) -> dict[Switch, "_Facts"]:
        """Deduped switchings, sorted, each with the facts of its result."""
        return {sw: self.result(sw) for sw in dedup_switches(self.switches)}

    def result(self, sw: Switch) -> "_Facts":
        """Facts after the canonical switching ``sw``, switched once however
        often it is read.  Over a whole family the result is a member and is
        looked up; outside ``members``, as from a partial pool, it is built by
        :func:`apply_switch`, which validates it."""
        g = self._results.get(sw)
        if g is None:
            bar = self.members.get(_switched_rows(self.a, sw))
            if bar is None:
                bar = apply_switch(self.a, sw)
            g = self._results[sw] = _Facts(bar, self.table, self.members)
        return g

    @cached_property
    def right(self) -> SubspaceBasis:
        return self.table.exact(self.a.row_supports, kernel=True)[1]

    @cached_property
    def left(self) -> SubspaceBasis:
        # a full-rank matrix has a zero left kernel and needs no elimination
        if self.rank == self.a.n:
            return SubspaceBasis(self.a.n, ())
        return self.table.exact(self.a.transpose().row_supports, kernel=True)[1]

    @cached_property
    def ka(self) -> frozenset[tuple[int, int]]:
        return _ka_set(self)

    @cached_property
    def _replay_outcome(self) -> "ReplayReport | WitnessConstructionError":
        try:
            return _replay(self)
        except WitnessConstructionError as exc:
            return exc

    def replay(self) -> "ReplayReport":
        """The replay report; a failed replay raises its error on every call."""
        outcome = self._replay_outcome
        if isinstance(outcome, WitnessConstructionError):
            raise outcome
        return outcome


class _Memo:
    """One (n, d) family's row classes, and the facts kept about them, for
    one call.

    A row class is the pool's members with the same rows up to order.
    ``classes`` lists, in order of first appearance, the facts of each
    class's first member with the class's weight, its number of pool
    members, duplicates included.  Those are the only facts the memo keeps:
    :meth:`of` makes any other matrix's facts anew, dropped with their
    reader, and :meth:`first_of` relabels a class's kept facts for a member.
    ``ranks`` is the census: each rank with the members of that rank, in
    pool order.  ``table`` holds the ranks and kernels, which members with
    the same rows or columns up to order share.
    """

    def __init__(self, pool: Sequence[BiregularMatrix]):
        self.table = _Table(pool[0].n)
        self.members = {m.row_supports: m for m in pool}
        self._firsts: dict[_Rows, _Facts] = {}  # row multiset -> its first member's facts
        weights: Counter[_Rows] = Counter()
        self.ranks: dict[int, list[BiregularMatrix]] = {}
        for m in pool:
            key = tuple(sorted(m.row_supports))
            f = self._firsts.get(key)
            if f is None:
                f = self._firsts[key] = _Facts(m, self.table, self.members)
            weights[key] += 1
            self.ranks.setdefault(f.rank, []).append(m)
        self.classes = [(f, weights[key]) for key, f in self._firsts.items()]

    def of(self, a: BiregularMatrix) -> _Facts:
        """The kept facts of a class's first member, or new facts of ``a``."""
        f = self._firsts.get(tuple(sorted(a.row_supports)))
        return f if f is not None and f.a == a else _Facts(a, self.table, self.members)

    def first_of(self, m: BiregularMatrix) -> tuple[_Facts, tuple[int, ...]]:
        """The kept facts of the first member A of ``m``'s class, and a row
        permutation pi with ``m.row_supports[s] == A.row_supports[pi[s]]``:
        m = PA and a switching commutes with P, so m's switched results are
        A's with their rows permuted by pi.  Repeated rows of A may be matched
        either way, since either gives m."""
        f = self._firsts[tuple(sorted(m.row_supports))]
        slots: dict[tuple[int, ...], list[int]] = {}
        for s, row in enumerate(f.a.row_supports):
            slots.setdefault(row, []).append(s)
        return f, tuple(slots[row].pop(0) for row in m.row_supports)


# ─── switchings against a fixed matrix ──────────────────────────────────────


def rank_delta_check(a: BiregularMatrix, sw: Switch) -> int:
    """rank(A after sw) - rank(A), exactly; the law says it is in {-1,0,+1}."""
    bar = apply_switch(a, sw)  # raises InfeasibleSwitchError when not feasible
    return rational_rank(bar) - rational_rank(a)


def _predicted_deltas(f: _Facts, sw: Switch) -> tuple[int, ...]:
    """The rank steps that Meyer's rank-one-update criterion allows for ``sw``.

    The switching is the update A + u v^T with u = e_i - e_j and
    v = e_l - e_k.  u lies outside the column space iff some left-kernel y
    has y_i != y_j, and v outside the row space iff some right-kernel x has
    x_k != x_l (C. D. Meyer, "Generalized inversion of modified matrices",
    SIAM J. Appl. Math. 1973).  Both give +1, exactly one gives 0, and
    neither allows 0 or -1.  A kernel basis decides each "some".
    """
    col = any(y[sw.i] != y[sw.j] for y in f.left.vectors)
    row = any(x[sw.k] != x[sw.l] for x in f.right.vectors)
    if col and row:
        return (1,)
    if col or row:
        return (0,)
    return (0, -1)


def count_x_bad(a: BiregularMatrix, x: Sequence[int | Fraction]) -> int:
    """Number of feasible ordered switchings that are x-bad.

    Asserts the unconditional chain
    ``count <= d^2 * sum_p |L_p|^2 <= n * max_p |L_p| * d^2``
    and raises :class:`BoundViolation` if it ever fails (it cannot, short
    of an implementation bug: an x-bad tuple picks k, l in the same level
    set and at most d rows carry a one in each of those columns).
    """
    return _count_x_bad(a, enumerate_switches(a), x)


def _count_x_bad(a: BiregularMatrix, switches: Iterable[Switch], x: Sequence[int | Fraction]) -> int:
    """:func:`count_x_bad` over the feasible ``switches`` of ``a``."""
    if len(x) != a.n:
        raise DimensionError(f"vector length {len(x)} != n = {a.n}")
    count = sum(1 for sw in switches if x[sw.k] == x[sw.l])
    profile = level_sets(x)
    d2 = a.d * a.d
    middle = d2 * sum(s * s for s in profile.sizes)
    top = a.n * profile.max_size * d2
    if not (count <= middle <= top):
        raise BoundViolation(
            f"x-bad chain failed: count={count}, d^2*sum|L|^2={middle}, "
            f"n*max|L|*d^2={top}"
        )
    return count


def rank_increasing_switchings(a: BiregularMatrix) -> list[Switch]:
    """All feasible ordered tuples whose application raises the rank by one.

    Mirror tuples produce the same matrix, so the rank is evaluated once
    per canonical representative and both orders are emitted.
    """
    _guard(a.n)
    f = _Memo([a]).of(a)
    return sorted(s for sw, g in f.switched.items() if g.rank == f.rank + 1 for s in (sw, sw.mirror()))


# ─── the increase mechanism ─────────────────────────────────────────────────


@dataclass(frozen=True)
class MechanismReport:
    """Exhaustive audit of the rank-increase mechanism on one matrix.

    ``checked`` counts (kernel vector, switching) pairs with (i, j) in K_A;
    each is either x-bad, a confirmed +1, or a violation (never expected).
    """

    n: int
    d: int
    rank: int
    corank: int
    ka_size: int
    checked: int
    x_bad: int
    increased: int
    violations: tuple[dict, ...]


def verify_increase_mechanism(a: BiregularMatrix) -> MechanismReport:
    """Check, for every canonical right-kernel vector x and every feasible
    ordered switching with (i, j) in K_A: not x-bad implies rank goes up
    by exactly one.

    Raises :class:`NotSingularError` on full-rank input (the mechanism has
    nothing to say there; K_A is empty anyway).  Only the switchings it
    reads, those with (i, j) in K_A that some x does not make x-bad, are
    applied and ranked, each once per canonical switching.
    """
    _guard(a.n)
    return _mechanism(_Memo([a]).of(a))


def _mechanism(f: _Facts) -> MechanismReport:
    a, r0 = f.a, f.rank
    corank = a.n - r0
    if corank == 0:
        raise NotSingularError(f"matrix has full rank {r0}")
    ka = f.ka
    basis = f.right.vectors

    checked = x_bad = increased = 0
    violations: list[dict] = []
    for sw in f.switches:
        if (sw.i, sw.j) not in ka:
            continue
        for x in basis:
            checked += 1
            if x[sw.k] == x[sw.l]:
                x_bad += 1
                continue
            delta = f.result(sw.canonical()).rank - r0
            if delta == 1:
                increased += 1
            else:
                violations.append(
                    {"switch": tuple(sw), "x": format_vector(x), "rank_delta": delta}
                )
    return MechanismReport(
        n=a.n,
        d=a.d,
        rank=r0,
        corank=corank,
        ka_size=len(ka),
        checked=checked,
        x_bad=x_bad,
        increased=increased,
        violations=tuple(violations),
    )


# ─── replay of the K_A lower-bound proof ────────────────────────────────────


@dataclass(frozen=True)
class ReplayWitness:
    """Witness constructed for one row i in the support of y.

    ``vector`` is an integer left-kernel vector.  For corank >= 2 it is a z
    with z_i = 0, and ``partners`` = supp(z) (the set J(i)).  For corank = 1
    it is y itself, and ``partners`` = {j : y_j != y_i}: the proof's
    coefficient vector x = -y / y_i has x_i = -1, and x_j != -1 exactly when
    y_j != y_i.  ``zeroed_row_rank`` is the rank of A with row i replaced by
    zeros, which the proof asserts equals rank(A).
    """

    row: int
    vector: tuple[int, ...]
    partners: tuple[int, ...]
    zeroed_row_rank: int


@dataclass(frozen=True)
class ReplayReport:
    """Full transcript of the K_A lower-bound construction on one matrix."""

    n: int
    d: int
    rank: int
    corank: int
    y: tuple[int, ...]
    support: tuple[int, ...]  # I = supp(y)
    witnesses: tuple[ReplayWitness, ...]
    certified_pairs: tuple[tuple[int, int], ...]
    ka_size: int
    bound: int  # |I| * min_i |partners(i)|


def _left_vector_vanishing_at(
    basis: Sequence[Sequence[int]], i: int
) -> tuple[int, ...]:
    """A nonzero combination of left-kernel basis vectors with coordinate i = 0.

    ``basis[0]`` must be nonzero at i; it serves as the pivot that clears
    coordinate i from the others.  The combination exists whenever the basis
    has at least two vectors; deterministic via the canonical basis of the
    eliminated set.  At corank 2 that set is one vector, whose canonical
    basis is the vector divided by its content with a positive lead, so it
    is made so directly.
    """
    pivot = basis[0]
    p = pivot[i]
    reduced = [
        [p * wt - w[i] * pt for wt, pt in zip(w, pivot)]
        for w in basis[1:]
    ]
    if len(reduced) == 1:
        canon = [tuple(_primitive(reduced[0]))] if any(reduced[0]) else []
    else:
        canon = SubspaceBasis(len(pivot), reduced).vectors
    if not canon:
        raise WitnessConstructionError(
            f"no nonzero left-kernel vector vanishes at row {i}"
        )
    return canon[0]


def replay_KA_bound(a: BiregularMatrix) -> ReplayReport:
    """Re-run the K_A lower-bound proof on a concrete singular matrix.

    Constructs y (left kernel), I = supp(y), and per i in I the partner
    witness; verifies rank(A with row i zeroed) = rank(A), checks every
    certified pair against K_A as :func:`compute_KA` finds it, and asserts
    ``|K_A| >= |I| * min_i |partners(i)|``.  Failures of steps the proof
    guarantees raise :class:`WitnessConstructionError`.
    """
    _guard(a.n)
    return _Memo([a]).of(a).replay()


def _replay(f: _Facts) -> ReplayReport:
    a, r0 = f.a, f.rank
    corank = a.n - r0
    if corank == 0:
        raise NotSingularError(f"matrix has full rank {r0}")

    left = f.left
    if left.dim != corank:
        raise ConsistencyError(
            f"left kernel dim {left.dim} != corank {corank}"
        )
    y = left.vectors[0]
    support = tuple(s for s in range(a.n) if y[s] != 0)
    if not support:
        raise WitnessConstructionError("left-kernel vector with empty support")

    ka = f.ka
    rows = a.row_supports
    witnesses: list[ReplayWitness] = []
    certified: set[tuple[int, int]] = set()
    for i in support:
        zr = f.table.rank((*rows[:i], (), *rows[i + 1 :]))
        if zr != r0:
            raise WitnessConstructionError(
                f"zeroing row {i} changed rank {r0} -> {zr}, but row {i} is "
                "a combination of the others (y_i != 0)"
            )
        if corank >= 2:
            vec = _left_vector_vanishing_at(left.vectors, i)
            if vec[i] != 0:
                raise WitnessConstructionError(f"constructed z has z_{i} != 0")
            partners = tuple(j for j in range(a.n) if vec[j] != 0)
        else:
            vec = y
            partners = tuple(j for j in range(a.n) if y[j] != y[i])
        if not partners:
            raise WitnessConstructionError(f"no partner columns for row {i}")
        for j in partners:
            if (i, j) not in ka:
                raise WitnessConstructionError(
                    f"certified pair ({i}, {j}) not confirmed by compute_KA"
                )
            certified.add((i, j))
        witnesses.append(
            ReplayWitness(row=i, vector=vec, partners=partners, zeroed_row_rank=zr)
        )

    bound = len(support) * min(len(w.partners) for w in witnesses)
    if len(ka) < bound:
        raise WitnessConstructionError(
            f"|K_A| = {len(ka)} below certified bound {bound}"
        )
    return ReplayReport(
        n=a.n,
        d=a.d,
        rank=r0,
        corank=corank,
        y=y,
        support=support,
        witnesses=tuple(witnesses),
        certified_pairs=tuple(sorted(certified)),
        ka_size=len(ka),
        bound=bound,
    )


# ─── the delocalization event ───────────────────────────────────────────────


def deloc_event(a: BiregularMatrix, params: DelocParams) -> DelocResult:
    """Level-set bound over the certified subset of kernel vectors.

    Checks, in this order, every canonical basis vector of the right kernel
    and then of the left kernel and, when the matrix is singular, the
    proof-constructed witnesses from :func:`replay_KA_bound`, row by row
    (its y is the first left basis vector).  It stops at the first vector
    whose largest level set exceeds theta, so the left kernel is computed
    only when every right basis vector holds, and the replay only when both
    bases hold; a replay that would fail raises only when it is reached.
    When theta is capped at n it reads nothing and holds.  The underlying event
    quantifies over all (infinitely many, once corank >= 2) kernel vectors;
    this checks the finite subset the proofs consume, which is why reports
    label it a certified subset.
    """
    _guard(a.n)
    return _deloc(_Memo([a]).of(a), params)


def _deloc_candidates(f: _Facts) -> Iterable[tuple[str, tuple[int, ...]]]:
    """The certified vectors of ``f`` with their sources, in checking order.

    A generator, so that the left kernel and the replay are read only once
    every earlier vector has been yielded."""
    yield from (("right-kernel-basis", v) for v in f.right.vectors)
    yield from (("left-kernel-basis", v) for v in f.left.vectors)
    if f.right.dim > 0:
        yield from ((f"replay-row-{w.row}", w.vector) for w in f.replay().witnesses)


def _deloc(f: _Facts, params: DelocParams) -> DelocResult:
    theta = params.beta(f.a.n, f.a.d)
    if theta >= f.a.n:  # no level set exceeds n, so no vector need be read
        return DelocResult(holds=True, theta=theta, C=params.C, vectors_checked=0)
    checked = 0
    for source, vec in _deloc_candidates(f):
        checked += 1
        profile = level_sets(vec)
        if profile.max_size > theta:
            value = next(
                val for val, size in profile.by_value if size == profile.max_size
            )
            return DelocResult(
                holds=False,
                theta=theta,
                C=params.C,
                vectors_checked=checked,
                witness_vector=vec,
                witness_value=value,
                witness_size=profile.max_size,
                witness_source=source,
            )
    return DelocResult(holds=True, theta=theta, C=params.C, vectors_checked=checked)


# ─── double counting and the rank-class relation ────────────────────────────


def double_count_check(
    relation: Iterable[tuple[object, object]],
    s: Mapping[object, int],
    t: Mapping[object, int],
) -> bool:
    """The two-sided counting claim on an explicit finite relation.

    Hypotheses (checked, violation -> :class:`PreconditionError`):
    ``s_b <= |Q(b)|`` for every b with a lower bound, s and t nonnegative,
    and ``|Q^{-1}(b')| <= t_{b'}`` for every right element that occurs.
    Conclusion (a theorem, returned as True): ``sum s <= sum t``.
    """
    edges = set(relation)
    out_deg = Counter(b for b, _ in edges)
    in_deg = Counter(bp for _, bp in edges)
    for b, sb in s.items():
        if sb < 0:
            raise PreconditionError(f"negative lower bound s[{b!r}] = {sb}")
        if out_deg.get(b, 0) < sb:
            raise PreconditionError(
                f"s[{b!r}] = {sb} exceeds out-degree {out_deg.get(b, 0)}"
            )
    for bp, tb in t.items():
        if tb < 0:
            raise PreconditionError(f"negative upper bound t[{bp!r}] = {tb}")
    for bp, deg in in_deg.items():
        if bp not in t:
            raise PreconditionError(f"right element {bp!r} has no upper bound")
        if deg > t[bp]:
            raise PreconditionError(
                f"in-degree {deg} of {bp!r} exceeds t = {t[bp]}"
            )
    total_s = sum(s.values())
    total_t = sum(t.values())
    if total_s > total_t:  # impossible when the hypotheses hold
        raise ConsistencyError(
            f"sum of lower bounds {total_s} exceeds sum of upper bounds {total_t}"
        )
    return True


@dataclass(frozen=True)
class QrStatsReport:
    """The explicit rank-class relation on a fully enumerated family.

    Sources are the matrices of rank exactly r that pass the level-set
    event; edges go to the distinct results of deduped rank-increasing
    switchings (each of rank r + 1).  The printed lower/upper degree
    bounds from the asymptotic argument are reported for context, never
    asserted: they depend on the free constant C.
    """

    n: int
    d: int
    r: int
    theta: float
    C: Fraction
    class_sizes: tuple[tuple[int, int], ...]  # (rank, count)
    source_count: int  # |E_r| passing the event
    skipped_sources: int  # |E_r| failing the event
    edge_count: int
    out_degree_hist: tuple[tuple[int, int], ...]  # (out-degree, multiplicity)
    in_degree_hist: tuple[tuple[int, int], ...]
    asymptotic_out_lower: float  # n(n-3*theta)d^2/2
    asymptotic_in_upper: float  # 3n*theta*d^2/2
    double_count_ok: bool


def qr_relation_stats(
    r: int,
    matrices: Iterable[BiregularMatrix],
    params: DelocParams,
) -> QrStatsReport:
    """Build the rank-r to rank-(r+1) switching relation explicitly.

    ``matrices`` must be the full family for one (n, d) (typically
    ``enumerate_all(n, d)``); r runs over 1..n-2 only.  Every edge is
    verified to connect rank r to rank r + 1, distinct canonical
    switchings are verified to give distinct results, and the exact
    degree maps are fed through :func:`double_count_check`: out-degrees
    from the sources' switchings, in-degrees from the targets' own
    switchings back to a source.  Each row class is switched once, at its
    first member A: a member PA reads A's switched results with the rows
    permuted by P, each looked up among the members.  ``double_count_ok``
    also requires the two totals to be equal; a hypothesis the in-degrees
    break raises :class:`PreconditionError`.
    """
    pool = _family(matrices)
    n = pool[0].n
    if not (1 <= r <= n - 2):
        raise ValueError(f"r must be in 1..{n - 2}, got {r}")
    return _qr_relation(_Memo(pool), r, params)


def _qr_relation(memo: _Memo, r: int, params: DelocParams) -> QrStatsReport:
    first = memo.classes[0][0].a
    n, d = first.n, first.d
    class_sizes = tuple(sorted((rk, len(ms)) for rk, ms in memo.ranks.items()))

    theta = params.beta(n, d)
    sources: list[BiregularMatrix] = []
    skipped = 0
    for m in memo.ranks.get(r, []):
        if _deloc(memo.of(m), params).holds:
            sources.append(m)
        else:
            skipped += 1

    def switched_to(m: BiregularMatrix, rank: int) -> list[_Rows]:
        """Rows of ``m``'s switched results of rank ``rank``: its class's first member's, relabelled."""
        f, pi = memo.first_of(m)
        permute = itemgetter(*pi)  # n >= 3 here, so it returns a tuple
        return [permute(g.a.row_supports) for g in f.switched.values() if g.rank == rank]

    edges: list[tuple[BiregularMatrix, BiregularMatrix]] = []
    out_deg: dict[BiregularMatrix, int] = {}
    for m in sources:
        # found among the members, so that no edge holds a copy
        results = [memo.members.get(rows) or build(n, d, rows) for rows in switched_to(m, r + 1)]
        if len(set(results)) != len(results):
            raise ConsistencyError(
                "distinct canonical switchings produced identical matrices"
            )
        out_deg[m] = len(results)
        edges.extend((m, bar) for bar in results)

    # each target's in-degree counted from its own side: the reverse of a
    # switching is a switching, so its switchings back to a (rank-r) source are its edges
    starts = {m.row_supports for m in sources}
    # without a source no target has an edge, and its switchings need not be read
    t = {
        bar: sum(rows in starts for rows in switched_to(bar, r)) if starts else 0
        for bar in memo.ranks.get(r + 1, [])
    }
    ok = double_count_check(edges, out_deg, t) and sum(out_deg.values()) == sum(t.values())

    in_deg = Counter(bar for _, bar in edges)

    out_hist = tuple(sorted(Counter(out_deg.values()).items()))
    in_hist = tuple(sorted(Counter(in_deg.values()).items()))
    return QrStatsReport(
        n=n,
        d=d,
        r=r,
        theta=theta,
        C=params.C,
        class_sizes=class_sizes,
        source_count=len(sources),
        skipped_sources=skipped,
        edge_count=len(edges),
        out_degree_hist=out_hist,
        in_degree_hist=in_hist,
        asymptotic_out_lower=n * (n - 3 * theta) * d * d / 2,
        asymptotic_in_upper=3 * n * theta * d * d / 2,
        double_count_ok=ok,
    )


# ─── family sweeps with JSON-able reports ───────────────────────────────────


@dataclass
class CheckReport:
    """Uniform report shape for one verification sweep."""

    check_name: str
    params: dict
    instances_checked: int = 0
    violations: int = 0
    witnesses: list = field(default_factory=list)
    wall_time_ms: int = 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_MAX_WITNESSES = 10

_CHECK_NAMES = (
    "switch-count-bounds",
    "rank-delta-law",
    "f-invariance",
    "kernel-containment",
    "x-bad-chain",
    "increase-mechanism",
    "ka-replay",
    "qr-relation",
)


def _witness(rep: CheckReport, item: dict, weight: int = 1) -> None:
    """Count ``weight`` violations, found as ``item``, and keep ``item`` once."""
    rep.violations += weight
    if len(rep.witnesses) < _MAX_WITNESSES:
        rep.witnesses.append(item)


def _switch_witness(m: BiregularMatrix, sw: Switch, note: str) -> dict:
    return {"matrix": serialize(m), "switch": list(sw), "note": note}


def run_family_checks(
    matrices: Iterable[BiregularMatrix],
    params: DelocParams | None = None,
) -> list[CheckReport]:
    """Run every lemma-level check across one (n, d) family of matrices.

    Returns one :class:`CheckReport` per check; a nonzero ``violations``
    count in any of them means an invariant that should be a theorem
    failed on a concrete instance.  Each report keeps the first
    ``_MAX_WITNESSES`` violating instances.

    The checks read one memo that lives for this call (:class:`_Memo`).  It
    groups the pool into row classes by row multiset, in order of first
    appearance, a class weighing its number of pool members, duplicates
    included, and keeps facts for each class's first member only.  Ranks and
    kernels sit in its table (:class:`_Table`), one Bareiss elimination per
    row multiset, so members that are row or column permutations of one
    another, the ranks of F(A; i, j) behind K_A and the zeroed-row ranks of
    the replay share eliminations.

    A row permutation relabels the rows of a member's switchings and of K_A
    and permutes the coordinates of its left kernel, and leaves the rank,
    the right kernel and every rank step alone, so each of the first six
    checks counts the same instances and violations on every member of a
    class.  So does ka-replay: the proof it replays holds for any nonzero
    left-kernel y, and replaying PA, of A's class, from A's y permuted gives
    A's outcome, relabelled.  Each check runs once per class, on its first
    member, adds weight times its instances and violations, and keeps that
    member's witnesses.  qr-relation then runs on the whole family, grouped
    by the memo's rank census.  Its level-set filter decides each member of
    rank r lazily, as :func:`deloc_event` does, and reads a first member's
    kept replay, or its kept replay error, or another member's, made anew
    and dropped once read.  The relation itself switches no member: each
    source and target reads its switched results from its class's first
    member, relabelled.  A switched matrix outside the pool is built and
    validated, by ``apply_switch`` for a first member and by ``build`` for a
    relabelled result.

    rank-delta-law asserts |delta| <= 1 and the exact delta that Meyer's
    rank-one-update criterion predicts from the two kernels.  f-invariance
    and kernel-containment read F(A; i, j) as the row supports that K_A
    ranks: the first compares them before and after a switching, the second
    sums each right-kernel vector over each support.  A report's
    ``wall_time_ms`` is the time spent in its own check, which includes any
    shared fact it is the first to need: the enumeration is charged to
    switch-count-bounds, the ranks, lookups and kernels to rank-delta-law,
    K_A to increase-mechanism and the zeroed-row ranks to ka-replay, all of
    each class's first member, and what the level-set filter reads of other
    members to qr-relation.

    qr-relation reports a hypothesis its double count breaks, or the error
    of a failed replay its level-set filter reads, as a witness
    ``{"r", "error"}``, so the sweep still returns every report.  A replay
    the filter does not need, because an earlier vector already broke the
    event, is not read, and its failure is ka-replay's alone.
    """
    params = params or DelocParams()
    pool = _family(matrices)
    n, d = pool[0].n, pool[0].d
    base_params = {"n": n, "d": d, "matrices": len(pool), "C": str(params.C)}
    reports = [CheckReport(check_name=name, params=dict(base_params)) for name in _CHECK_NAMES]
    counts, delta, f_inv, contain, x_bad, mechanism, replay, qr = reports
    spent: Counter[str] = Counter()
    clock = time.perf_counter()

    def lap(rep: CheckReport) -> None:
        nonlocal clock
        now = time.perf_counter()
        spent[rep.check_name] += now - clock
        clock = now

    memo = _Memo(pool)
    lap(delta)
    lo = (n - d) * d - (d - 1) * (d - 1)
    hi = (n - d) * d
    for f, w in memo.classes:
        m = f.a
        counts.instances_checked += w
        try:
            _count_with_bounds(m, f.switches)
        except BoundViolation as exc:
            _witness(counts, {"matrix": serialize(m), "error": str(exc)}, w)
        else:
            for (i, k), q in _per_entry_counts(m, f.switches).items():
                if not (lo <= q <= hi):
                    _witness(counts, {"matrix": serialize(m), "entry": [i, k], "count": q}, w)
        lap(counts)

        switched = f.switched
        delta.instances_checked += w * len(switched)
        for sw, g in switched.items():
            step = g.rank - f.rank
            allowed = _predicted_deltas(f, sw)
            if step not in (-1, 0, 1):
                _witness(delta, _switch_witness(m, sw, f"delta={step}"), w)
            elif step not in allowed:
                note = f"delta={step}, predicted {' or '.join(map(str, allowed))}"
                _witness(delta, _switch_witness(m, sw, note), w)
        lap(delta)

        f_inv.instances_checked += w * len(switched)
        for sw, g in switched.items():
            if _f_supports(m.row_supports, sw.i, sw.j) != _f_supports(g.a.row_supports, sw.i, sw.j):
                _witness(f_inv, _switch_witness(m, sw, "F(A; i, j) changed"), w)
        lap(f_inv)

        ker = f.right.vectors
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)] if ker else []
        contain.instances_checked += w * (len(pairs) or 1)  # a full-rank matrix counts once
        for i, j in pairs:
            rows = _f_supports(m.row_supports, i, j)
            bad = [x for x in ker if any(sum(map(x.__getitem__, s)) for s in rows)]
            if bad:
                item = {"matrix": serialize(m), "pair": [i, j], "vector": format_vector(bad[0])}
                _witness(contain, item, w)
        lap(contain)

        for x in (*ker, (1,) * n, tuple(range(n))):  # kernel, constant, distinct
            x_bad.instances_checked += w
            try:
                _count_x_bad(m, f.switches, x)
            except BoundViolation as exc:
                item = {"matrix": serialize(m), "x": format_vector(x), "error": str(exc)}
                _witness(x_bad, item, w)
        lap(x_bad)

        if f.rank == n:  # the mechanism and the replay speak of singular matrices only
            continue
        mechanism.instances_checked += w
        for v in _mechanism(f).violations:
            _witness(mechanism, {"matrix": serialize(m), **v}, w)
        lap(mechanism)

        replay.instances_checked += w
        try:
            f.replay()
        except WitnessConstructionError as exc:
            _witness(replay, {"matrix": serialize(m), "error": str(exc)}, w)
        lap(replay)

    for r in range(1, n - 1):
        qr.instances_checked += 1
        try:
            ok = _qr_relation(memo, r, params).double_count_ok
        except (PreconditionError, WitnessConstructionError) as exc:
            _witness(qr, {"r": r, "error": str(exc)})
        else:
            if not ok:
                _witness(qr, {"r": r, "note": "double count failed"})
    lap(qr)

    for rep in reports:
        rep.wall_time_ms = int(spent[rep.check_name] * 1000)
    return reports
