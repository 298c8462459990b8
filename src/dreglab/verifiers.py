"""Executable forms of the rank/switching lemmas and their proof mechanisms.

Each operation here turns one mathematical statement into a checkable
computation on concrete matrices:

* the rank-delta law — a switching moves the rank by at most one;
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

F(A; i, j) is handled through its spanning rows (:func:`dreglab.linalg.f_rows`),
never through a basis of F^perp: f-invariance compares the rows before and
after a switching, kernel containment takes dot products with them, and K_A
compares rank F with rank A.

Everything is exact: kernel vectors are the canonical integer bases of
:mod:`dreglab.linalg`, and the questions asked of them (orthogonality to
rows, x_k = x_l, level-set sizes) do not depend on how a vector is scaled.
There is no tolerance anywhere.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
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
    f_rows,
    format_vector,
    kernel,
    rational_rank,
    rational_rank_rows,
    span_basis,
)
from .matrix import BiregularMatrix, serialize
from .switching import (
    Switch,
    apply_switch,
    count_with_bounds,
    dedup_switches,
    enumerate_switches,
    per_entry_counts,
)

__all__ = [
    "LevelSetProfile",
    "DelocParams",
    "DelocResult",
    "KASet",
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
    """Outcome of the level-set event on the certified vector subset."""

    holds: bool
    theta: float
    C: Fraction
    vectors_checked: int
    witness_vector: tuple[int | Fraction, ...] | None = None
    witness_value: int | Fraction | None = None
    witness_size: int | None = None
    witness_source: str | None = None

    def __bool__(self) -> bool:
        return self.holds


# ─── K_A ────────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class KASet:
    """Ordered pairs (i, j), i != j, with ker A = F(A; i, j)^perp."""

    pairs: frozenset[tuple[int, int]]

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(sorted(self.pairs))


def _guard(n: int) -> None:
    if n > RATIONAL_THRESHOLD:
        raise SizeGuardError(
            f"n={n} exceeds the exact-arithmetic guard {RATIONAL_THRESHOLD}"
        )


def compute_KA(a: BiregularMatrix) -> KASet:
    """Brute-force K_A over all ordered pairs: rank F(A; i, j) == rank A.

    K_A is defined by ker A = F(A; i, j)^perp.  Each spanning row of F is a
    row of A or the sum of two rows, so F lies in the row space of A and
    ker A is contained in F^perp for every A; the kernel-containment check
    of :func:`run_family_checks` confirms this on every pair it visits.  The
    two spaces are therefore equal iff their dimensions agree, which means
    rank F = rank A.  F(A; i, j) = F(A; j, i), so the rank runs once per
    unordered pair and membership is recorded symmetrically.
    """
    _guard(a.n)
    r = rational_rank(a)
    pairs: set[tuple[int, int]] = set()
    for i in range(a.n):
        for j in range(i + 1, a.n):
            if rational_rank_rows(f_rows(a, i, j)) == r:
                pairs.add((i, j))
                pairs.add((j, i))
    return KASet(frozenset(pairs))


# ─── switchings against a fixed matrix ──────────────────────────────────────


def rank_delta_check(a: BiregularMatrix, sw: Switch) -> int:
    """rank(A after sw) - rank(A), exactly; the law says it is in {-1,0,+1}."""
    bar = apply_switch(a, sw)  # raises InfeasibleSwitchError when not feasible
    return rational_rank(bar) - rational_rank(a)


def count_x_bad(a: BiregularMatrix, x: Sequence[int | Fraction]) -> int:
    """Number of feasible ordered switchings that are x-bad.

    Asserts the unconditional chain
    ``count <= d^2 * sum_p |L_p|^2 <= n * max_p |L_p| * d^2``
    and raises :class:`BoundViolation` if it ever fails (it cannot, short
    of an implementation bug: an x-bad tuple picks k, l in the same level
    set and at most d rows carry a one in each of those columns).
    """
    if len(x) != a.n:
        raise DimensionError(f"vector length {len(x)} != n = {a.n}")
    count = sum(1 for sw in enumerate_switches(a) if x[sw.k] == x[sw.l])
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
    out: list[Switch] = []
    for sw in dedup_switches(enumerate_switches(a)):
        if rank_delta_check(a, sw) == 1:
            out.append(sw)
            out.append(sw.mirror())
    return sorted(out)


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
    nothing to say there; K_A is empty anyway).
    """
    _guard(a.n)
    r0 = rational_rank(a)
    corank = a.n - r0
    if corank == 0:
        raise NotSingularError(f"matrix has full rank {r0}")
    ka = compute_KA(a)
    basis = kernel(a, "right").vectors

    rank_after: dict[Switch, int] = {}
    checked = x_bad = increased = 0
    violations: list[dict] = []
    for sw in enumerate_switches(a):
        if (sw.i, sw.j) not in ka:
            continue
        for x in basis:
            checked += 1
            if x[sw.k] == x[sw.l]:
                x_bad += 1
                continue
            key = sw.canonical()
            if key not in rank_after:
                rank_after[key] = rational_rank(apply_switch(a, key))
            delta = rank_after[key] - r0
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

    For corank >= 2, ``vector`` is an integer left-kernel z with z_i = 0 and
    ``partners`` = supp(z) (the set J(i)); for corank = 1 it is the
    coefficient vector x = -y / y_i (so x_i = -1) and ``partners`` =
    {j : x_j != -1}.  ``zeroed_row_rank`` is the rank of A with row i
    replaced by zeros, which the proof asserts equals rank(A).
    """

    row: int
    vector: tuple[int, ...] | tuple[Fraction, ...]
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

    Exists whenever the basis has at least two vectors; deterministic via
    the canonical basis of the eliminated set.
    """
    pivot = next((u for u in basis if u[i] != 0), None)
    if pivot is None:
        return tuple(basis[0])
    p = pivot[i]
    reduced = [
        tuple(p * wt - w[i] * pt for wt, pt in zip(w, pivot))
        for w in basis
        if w is not pivot
    ]
    canon = span_basis(reduced).vectors
    if not canon:
        raise WitnessConstructionError(
            f"no nonzero left-kernel vector vanishes at row {i}"
        )
    return canon[0]


def replay_KA_bound(a: BiregularMatrix) -> ReplayReport:
    """Re-run the K_A lower-bound proof on a concrete singular matrix.

    Constructs y (left kernel), I = supp(y), and per i in I the partner
    witness; verifies rank(A with row i zeroed) = rank(A), checks every
    certified pair against :func:`compute_KA`, and asserts
    ``|K_A| >= |I| * min_i |partners(i)|``.  Failures of steps the proof
    guarantees raise :class:`WitnessConstructionError`.
    """
    _guard(a.n)
    r0 = rational_rank(a)
    corank = a.n - r0
    if corank == 0:
        raise NotSingularError(f"matrix has full rank {r0}")

    left = kernel(a, "left")
    if left.dim != corank:
        raise ConsistencyError(
            f"left kernel dim {left.dim} != corank {corank}"
        )
    y = left.vectors[0]
    support = tuple(s for s in range(a.n) if y[s] != 0)
    if not support:
        raise WitnessConstructionError("left-kernel vector with empty support")

    ka = compute_KA(a)
    dense = a.dense_rows()

    witnesses: list[ReplayWitness] = []
    certified: set[tuple[int, int]] = set()
    for i in support:
        zeroed = [row if s != i else [0] * a.n for s, row in enumerate(dense)]
        zr = rational_rank_rows(zeroed)
        if zr != r0:
            raise WitnessConstructionError(
                f"zeroing row {i} changed rank {r0} -> {zr}, but row {i} is "
                "a combination of the others (y_i != 0)"
            )
        if corank >= 2:
            z = _left_vector_vanishing_at(left.vectors, i)
            if z[i] != 0:
                raise WitnessConstructionError(f"constructed z has z_{i} != 0")
            partners = tuple(j for j in range(a.n) if z[j] != 0)
            vec = z
        else:
            vec = tuple(Fraction(-v, y[i]) for v in y)
            partners = tuple(j for j in range(a.n) if vec[j] != -1)
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

    Checks every canonical basis vector of both kernels and, when the
    matrix is singular, the proof-constructed vectors from
    :func:`replay_KA_bound`.  The underlying event quantifies over all
    (infinitely many, once corank >= 2) kernel vectors; this checks the
    finite subset the proofs consume, which is why reports label it a
    certified subset.
    """
    _guard(a.n)
    theta = params.beta(a.n, a.d)
    candidates: list[tuple[str, tuple[int | Fraction, ...]]] = []
    right = kernel(a, "right")
    left = kernel(a, "left")
    candidates.extend(("right-kernel-basis", v) for v in right.vectors)
    candidates.extend(("left-kernel-basis", v) for v in left.vectors)
    if right.dim > 0:
        replay = replay_KA_bound(a)
        candidates.append(("replay-y", replay.y))
        candidates.extend(
            (f"replay-row-{w.row}", w.vector) for w in replay.witnesses
        )

    for source, vec in candidates:
        profile = level_sets(vec)
        if profile.max_size > theta:
            value = next(
                val for val, size in profile.by_value if size == profile.max_size
            )
            return DelocResult(
                holds=False,
                theta=theta,
                C=params.C,
                vectors_checked=len(candidates),
                witness_vector=vec,
                witness_value=value,
                witness_size=profile.max_size,
                witness_source=source,
            )
    return DelocResult(
        holds=True, theta=theta, C=params.C, vectors_checked=len(candidates)
    )


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
    degree maps are fed through :func:`double_count_check`.
    """
    pool = list(matrices)
    if not pool:
        raise ValueError("empty matrix family")
    n, d = pool[0].n, pool[0].d
    _guard(n)
    if any(m.n != n or m.d != d for m in pool):
        raise ValueError("matrix family mixes different (n, d)")
    if not (1 <= r <= n - 2):
        raise ValueError(f"r must be in 1..{n - 2}, got {r}")

    classes: dict[int, list[BiregularMatrix]] = {}
    for m in pool:
        classes.setdefault(rational_rank(m), []).append(m)
    class_sizes = tuple(sorted((rk, len(ms)) for rk, ms in classes.items()))

    theta = params.beta(n, d)
    sources: list[BiregularMatrix] = []
    skipped = 0
    for m in classes.get(r, []):
        if deloc_event(m, params).holds:
            sources.append(m)
        else:
            skipped += 1

    edges: list[tuple[BiregularMatrix, BiregularMatrix]] = []
    out_deg: dict[BiregularMatrix, int] = {}
    for m in sources:
        switches = dedup_switches(rank_increasing_switchings(m))
        results = []
        for sw in switches:
            bar = apply_switch(m, sw)
            bar_rank = rational_rank(bar)
            if bar_rank != r + 1:
                raise ConsistencyError(
                    f"rank-increasing switching gave rank {bar_rank}, expected {r + 1}"
                )
            results.append(bar)
        if len(set(results)) != len(results):
            raise ConsistencyError(
                "distinct canonical switchings produced identical matrices"
            )
        out_deg[m] = len(results)
        edges.extend((m, bar) for bar in results)

    in_deg = Counter(bar for _, bar in edges)
    ok = double_count_check(edges, out_deg, dict(in_deg))

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
        return {
            "check_name": self.check_name,
            "params": self.params,
            "instances_checked": self.instances_checked,
            "violations": self.violations,
            "witnesses": self.witnesses,
            "wall_time_ms": self.wall_time_ms,
        }


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


def _witness(rep: CheckReport, item: dict) -> None:
    rep.violations += 1
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

    The family is walked once: each matrix runs the seven per-matrix checks
    in report order, sharing its rank, its right kernel and its deduped
    switchings, each applied once; qr-relation then runs on the whole
    family.  A report's ``wall_time_ms`` is the time spent in its own
    check, and applying the switchings is charged to rank-delta-law.
    """
    params = params or DelocParams()
    pool = list(matrices)
    if not pool:
        raise ValueError("empty matrix family")
    n, d = pool[0].n, pool[0].d
    if any(m.n != n or m.d != d for m in pool):
        raise ValueError("matrix family mixes different (n, d)")
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

    lo = (n - d) * d - (d - 1) * (d - 1)
    hi = (n - d) * d
    for m in pool:
        counts.instances_checked += 1
        try:
            count_with_bounds(m)
        except BoundViolation as exc:
            _witness(counts, {"matrix": serialize(m), "error": str(exc)})
        else:
            for (i, k), q in per_entry_counts(m).items():
                if not (lo <= q <= hi):
                    _witness(counts, {"matrix": serialize(m), "entry": [i, k], "count": q})
        lap(counts)

        r0 = rational_rank(m)
        switched = [(sw, apply_switch(m, sw)) for sw in dedup_switches(enumerate_switches(m))]
        for sw, bar in switched:
            delta.instances_checked += 1
            step = rational_rank(bar) - r0
            if step not in (-1, 0, 1):
                _witness(delta, _switch_witness(m, sw, f"delta={step}"))
        lap(delta)

        for sw, bar in switched:
            f_inv.instances_checked += 1
            if f_rows(m, sw.i, sw.j) != f_rows(bar, sw.i, sw.j):
                _witness(f_inv, _switch_witness(m, sw, "F(A; i, j) changed"))
        lap(f_inv)

        ker = kernel(m, "right").vectors
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)] if ker else []
        contain.instances_checked += len(pairs) or 1  # a full-rank matrix counts once
        for i, j in pairs:
            rows = f_rows(m, i, j)
            bad = [x for x in ker if any(sum(map(mul, row, x)) for row in rows)]
            if bad:
                item = {"matrix": serialize(m), "pair": [i, j], "vector": format_vector(bad[0])}
                _witness(contain, item)
        lap(contain)

        for x in (*ker, (1,) * n, tuple(range(n))):  # kernel, constant, distinct
            x_bad.instances_checked += 1
            try:
                count_x_bad(m, x)
            except BoundViolation as exc:
                _witness(x_bad, {"matrix": serialize(m), "x": format_vector(x), "error": str(exc)})
        lap(x_bad)

        if r0 < n:
            mechanism.instances_checked += 1
            for v in verify_increase_mechanism(m).violations:
                _witness(mechanism, {"matrix": serialize(m), **v})
        lap(mechanism)

        if r0 < n:
            replay.instances_checked += 1
            try:
                replay_KA_bound(m)
            except WitnessConstructionError as exc:
                _witness(replay, {"matrix": serialize(m), "error": str(exc)})
        lap(replay)

    for r in range(1, n - 1):
        qr.instances_checked += 1
        if not qr_relation_stats(r, pool, params).double_count_ok:
            _witness(qr, {"r": r, "note": "double count failed"})
    lap(qr)

    for rep in reports:
        rep.wall_time_ms = int(spent[rep.check_name] * 1000)
    return reports
