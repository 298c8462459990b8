"""Exact rank and kernel computations for 0/1 matrices.

Everything here is exact, so reported ranks are never floating-point
guesses.  A rank starts as one sparse elimination over GF(p) for a fixed
prime p just below 2^30, touching only nonzero entries.  A modular rank
never exceeds the rational rank, so a modular rank of n proves full rank
and ends the work there.  A deficient modular rank r_p is proven, up to
``RATIONAL_THRESHOLD``, by a sandwich certificate built from the same
elimination: its echelon gives one kernel vector mod p per free column,
rational reconstruction lifts each to integers, and an exact check of
A x = 0 over Z shows the n - r_p lifted vectors lie in the kernel.  They
are independent by their pattern on the free columns, so the rank is at
most r_p as well.  When a lift or a check fails, a second prime with the
same pivot columns is joined by CRT and the lift is tried again; only
then does fraction-free integer elimination (Bareiss) decide.  Above the
threshold the second prime runs, the two modular ranks deciding when they
agree and Bareiss when they do not.

Vectors are integers from elimination to the caller: integer
back-substitution on the Bareiss echelon and the lifted modular vectors
both give integer vectors, and one fraction-free Gauss-Jordan reduction
turns them into the canonical basis of their span (reduced row echelon
rows scaled to coprime integers, leading entries positive), so the route
never shows in a basis.  :class:`SubspaceBasis` is canonical on
construction and carries its ambient dimension n, so two subspaces are
equal iff their bases compare ``==``.  Vectors from outside may be ints or
``Fraction``s; :func:`span_basis` clears their denominators before
reducing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import ConsistencyError, DimensionError
from .matrix import BiregularMatrix

__all__ = [
    "RankReport",
    "SubspaceBasis",
    "rank_mod_p",
    "rational_rank",
    "rational_rank_rows",
    "rank_exact",
    "kernel",
    "f_rows",
    "f_perp",
    "span_basis",
    "format_vector",
    "RATIONAL_THRESHOLD",
]

# Up to this size a deficient modular rank is certified by lifted kernel
# vectors (Bareiss only when both primes fail); above it the two-prime
# modular consensus stands alone unless the primes disagree.
RATIONAL_THRESHOLD = 128

# The two largest primes below 2^30 (2^30 - 35 and 2^30 - 41).  CPython
# stores ints in 30-bit digits, so every residue is one digit and every
# product two, which keeps the modular core's arithmetic on its fast path.
# A modular rank can only undershoot, so either prime's rank is a lower
# bound on the rational rank.
_PRIMES = (1073741789, 1073741783)


# ─── elimination cores ──────────────────────────────────────────────────────


def _rank_rows_mod_p(
    rows: list[dict[int, int]], p: int
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Forward echelon modulo p of sparse integer rows ``{column: entry}``.

    Structured elimination over GF(p) (LaMacchia & Odlyzko, CRYPTO 1990):
    each column keeps the set of rows that are nonzero in it, columns are
    taken left to right, and the pivot is the candidate row with the fewest
    nonzeros.  A pivot updates only the rows nonzero in its column, and only
    at the pivot row's nonzero columns; entries that cancel are removed.
    The input rows are left unchanged.

    Returns one ``(c, update)`` entry per pivot column c, in increasing c.
    ``update`` lists ``(col, coeff)`` pairs with col > c such that every
    solution of the rows over GF(p) has x_c = sum of coeff * x_col.  Its
    length is the rank over GF(p), which does not depend on the pivot
    choice, and neither do the pivot columns: c is one iff column c is not
    in the span of the columns before it.
    """
    rows = [{c: v % p for c, v in row.items() if v % p} for row in rows]
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    col_rows: list[set[int]] = [set() for _ in range(ncols)]
    for s, row in enumerate(rows):
        for c in row:
            col_rows[c].add(s)
    echelon = []
    for c in range(ncols):
        cand = col_rows[c]
        if not cand:
            continue
        piv = min(cand, key=lambda s: len(rows[s]))
        cand.discard(piv)
        pivrow = rows[piv]
        # row s becomes row s + f * update, where f is row s's entry in c
        ninv = p - pow(pivrow.pop(c), -1, p)
        update = [(col, v * ninv % p) for col, v in pivrow.items()]
        for col, _ in update:
            col_rows[col].discard(piv)
        for s in cand:
            row = rows[s]
            f = row.pop(c)
            for col, v in update:
                old = row.get(col)
                if old is None:  # fill-in: f * v is nonzero since p is prime
                    row[col] = f * v % p
                    col_rows[col].add(s)
                else:
                    new = (old + f * v) % p
                    if new:
                        row[col] = new
                    else:
                        del row[col]
                        col_rows[col].discard(s)
        echelon.append((c, update))
    return echelon


def _kernel_mod_p(
    echelon: list[tuple[int, list[tuple[int, int]]]], ncols: int, p: int
) -> list[list[int]]:
    """Back-substitute one kernel vector over GF(p) per free column.

    The vector for free column ``fc`` has x[fc] = 1 and x = 0 at every
    other free column; the pivot entries follow from the echelon, last
    pivot first.
    """
    pivots = {c for c, _ in echelon}
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        x = [0] * ncols
        x[fc] = 1
        for c, update in reversed(echelon):
            x[c] = sum([v * x[col] for col, v in update]) % p
        basis.append(x)
    return basis


def _lift(x: list[int], m: int) -> list[int] | None:
    """Integer vector whose entries reduce mod m to ``x`` up to a common scale.

    Each entry u is reconstructed as the fraction a/b with |a|, b <= B =
    isqrt(m / 2) and a = b u (mod m), which is unique when it exists (von
    zur Gathen & Gerhard, *Modern Computer Algebra*, §5.10), and the vector
    is scaled by the lcm of the b.  Returns None when some entry has no
    such fraction.  Entries 0 and 1 lift to themselves, so the free-column
    pattern of a :func:`_kernel_mod_p` vector survives.
    """
    bound = isqrt(m // 2)
    nums, dens = [], []
    for u in x:
        if u <= bound:
            nums.append(u)
            dens.append(1)
        elif m - u <= bound:
            nums.append(u - m)
            dens.append(1)
        else:  # half-extended Euclid on (m, u), stopped below the bound
            r0, r1, t0, t1 = m, u, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1 = r1, r0 - q * r1
                t0, t1 = t1, t0 - q * t1
            if abs(t1) > bound:
                return None
            nums.append(r1 if t1 > 0 else -r1)
            dens.append(abs(t1))
    den = lcm(*dens)
    return [a * (den // b) for a, b in zip(nums, dens)]


def _certified_kernel(a: BiregularMatrix, vectors: list[list[int]], m: int) -> SubspaceBasis | None:
    """The kernel of ``a`` spanned by the lifts of ``vectors`` mod m, or None.

    Every lift must satisfy A x = 0 exactly over Z.  The vectors come one
    per free column with 1 there and 0 at the other free columns, so they
    are independent: together with a modular rank of n - len(vectors) they
    prove both the rank and that they span the kernel.
    """
    lifted = []
    for x in vectors:
        y = _lift(x, m)
        if y is None or any(sum(map(y.__getitem__, support)) for support in a.row_supports):
            return None
        lifted.append(y)
    return SubspaceBasis(a.n, lifted)


# The Bareiss core walks columns left to right over an "active" block of rows
# that all start at the current column; processed columns are physically
# dropped, so the inner loops shrink as elimination proceeds.


def _int_echelon(
    rows: Sequence[Sequence[int]],
) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """Fraction-free (Bareiss) echelon form of an integer matrix.

    Returns ``(pivot_cols, pivot_rows)`` where ``pivot_rows[t]`` is a pair
    ``(c, coeffs)`` with ``coeffs[u]`` the exact integer entry in column
    ``c + u`` of the t-th echelon row.  All divisions are exact; the row
    space (hence rank and kernel) of the input is preserved.
    """
    active = [list(row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    prev = 1
    pivot_cols: list[int] = []
    pivot_rows: list[tuple[int, list[int]]] = []
    for col in range(ncols):
        if not active:
            break
        piv_idx = -1
        for s, row in enumerate(active):
            if row[0]:
                piv_idx = s
                break
        if piv_idx < 0:
            for row in active:
                del row[0]
            continue
        pivrow = active.pop(piv_idx)
        piv = pivrow[0]
        tail = pivrow[1:]
        nxt = []
        for row in active:
            f = row[0]
            if f == 0:
                if piv == prev:
                    del row[0]
                    nxt.append(row)
                else:
                    nxt.append([piv * a // prev for a in row[1:]])
            else:
                nxt.append([(piv * a - f * b) // prev for a, b in zip(row[1:], tail)])
        active = nxt
        pivot_cols.append(col)
        pivot_rows.append((col, pivrow))
        prev = piv
    return pivot_cols, pivot_rows


@lru_cache(maxsize=128)
def _echelon_of(a: BiregularMatrix) -> tuple[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]]:
    """Cached Bareiss echelon of a matrix (keyed by matrix value)."""
    pivot_cols, pivot_rows = _int_echelon(a.dense_rows())
    return tuple(pivot_cols), tuple((c, tuple(r)) for c, r in pivot_rows)


def _kernel_from_echelon(
    pivot_cols: Sequence[int],
    pivot_rows: Sequence[tuple[int, Sequence[int]]],
    ncols: int,
) -> list[list[int]]:
    """Back-substitute one integer kernel vector per free column.

    The vector for free column ``fc`` is the rational solution with
    ``x[fc] = 1`` scaled to integers.  Whenever a pivot does not divide the
    partial sum, the whole vector is scaled by ``|pivot / gcd(sum, pivot)|``
    so the division is exact.  :class:`SubspaceBasis` divides out the content.
    """
    pivot_set = set(pivot_cols)
    basis: list[list[int]] = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        x = [0] * ncols
        x[fc] = 1
        for t in range(len(pivot_cols) - 1, -1, -1):
            pc, row = pivot_rows[t]
            # x[pc] is still 0, so the pivot term adds nothing to the sum
            s = sum(map(mul, row, x[pc:]))
            if s:
                piv = row[0]
                scale = abs(piv) // gcd(s, piv)
                if scale != 1:
                    x = [v * scale for v in x]
                    s *= scale
                x[pc] = -s // piv
        basis.append(x)
    return basis


def _primitive(row: list[int]) -> list[int]:
    """``row`` divided by its content, leading entry made positive."""
    g = gcd(*row)
    if g == 0:
        return row
    if next(v for v in row if v) < 0:
        g = -g
    return row if g == 1 else [v // g for v in row]


def _int_rref(rows: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """Canonical integer basis of the span of integer ``rows``.

    Fraction-free Gauss-Jordan: row s is cleared against pivot row r as
    ``lead * row_s - f * row_r`` (both factors divided by their gcd), and
    every row is kept primitive with a positive leading entry.  The result
    is the reduced row echelon basis with each row scaled to coprime
    integers, so two spans are equal iff their results are equal.
    """
    work = [_primitive(list(row)) for row in rows]
    work = [row for row in work if any(row)]
    if not work:
        return []
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        piv = next((s for s in range(r, len(work)) if work[s][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        lead = prow[c]
        for s, row in enumerate(work):
            f = row[c]
            if f and s != r:
                g = gcd(lead, f)
                lg, fg = lead // g, f // g
                work[s] = _primitive([lg * a - fg * b for a, b in zip(row, prow)])
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]]


def _integer_rows(vectors: Iterable[Sequence[int | Fraction]]) -> list[list[int]]:
    """Rational (int or ``Fraction``) vectors with denominators cleared.

    Each vector is scaled by the lcm of its denominators, which leaves
    every span unchanged.
    """
    rows = []
    for vec in vectors:
        den = lcm(*(v.denominator for v in vec))
        rows.append([v.numerator * (den // v.denominator) for v in vec])
    return rows


# ─── public API ─────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class RankReport:
    """Result of :func:`rank_exact`, with enough detail to replay it.

    ``primes_used`` lists the primes whose modular eliminations ran, in
    order.  ``rationally_confirmed`` is True when the rank is proven over Q:
    by a modular rank of n (full rank), by the sandwich certificate, or by
    Bareiss elimination.  Above ``RATIONAL_THRESHOLD`` a full rank is proven
    all the same, by its first prime, but is reported False: trial records
    carry this flag, and the grid-rank benchmark's pinned digest hashes
    those records, so the relabel waits for that digest's re-pin (ROADMAP
    item 1).  A deficient rank there on which both primes agree is a
    consensus, not a proof, and is reported False too.

    ``kernel`` is the canonical basis of the right kernel when the rank is
    deficient and n <= ``RATIONAL_THRESHOLD``: the lifted vectors that
    certified the rank, or the Bareiss kernel when the fallback decided.
    It is None for a full rank and above the threshold.
    """

    rank: int
    corank: int
    primes_used: tuple[int, ...]
    rationally_confirmed: bool
    kernel: SubspaceBasis | None


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical basis of a subspace of Q^n, made so on construction.

    The integer rows (of length ``n``, else :class:`DimensionError`) are
    replaced by the reduced row echelon basis of their span, each row scaled
    to coprime integers with a positive leading entry.  So two instances are
    equal iff they span the same subspace of the same Q^n.
    """

    n: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if any(len(row) != self.n for row in self.vectors):
            raise DimensionError(f"a vector's length differs from n = {self.n}")
        object.__setattr__(self, "vectors", tuple(_int_rref(self.vectors)))

    @property
    def dim(self) -> int:
        return len(self.vectors)


def _sparse_rows(a: BiregularMatrix) -> list[dict[int, int]]:
    return [dict.fromkeys(support, 1) for support in a.row_supports]


def rank_mod_p(a: BiregularMatrix, p: int) -> int:
    """Rank of ``a`` over GF(p).  Never exceeds the rational rank."""
    if p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p}")
    return len(_rank_rows_mod_p(_sparse_rows(a), p))


def rational_rank(a: BiregularMatrix) -> int:
    """Rank over the rationals via fraction-free elimination."""
    return len(_echelon_of(a)[0])


def rational_rank_rows(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of an explicit integer matrix (not necessarily biregular)."""
    return len(_int_echelon(rows)[0])


def rank_exact(a: BiregularMatrix) -> RankReport:
    """Exact rank: one prime proves full rank; only a deficiency costs more.

    The first elimination is modulo ``_PRIMES[0]``.  A rank of n returns at
    once with ``primes_used == _PRIMES[:1]``: a modular rank never exceeds
    the rational rank.  For ``n <= RATIONAL_THRESHOLD`` a deficient modular
    rank r is proven by the sandwich certificate: the n - r kernel vectors
    of the same echelon, lifted to integers, must satisfy A x = 0 exactly.
    If a lift or a check fails, the second prime runs, and when its pivot
    columns are the first prime's the two vectors are joined by CRT and
    lifted again.  Above the threshold the second prime runs too, and two
    agreeing modular ranks decide.  Otherwise rational elimination decides;
    it is authoritative, and a modular rank above it raises
    :class:`ConsistencyError`.
    """
    rows = _sparse_rows(a)
    p, q = _PRIMES
    small = a.n <= RATIONAL_THRESHOLD
    echelon = _rank_rows_mod_p(rows, p)
    r = len(echelon)
    if r == a.n:
        return RankReport(a.n, 0, (p,), small, None)
    if small:
        vectors = _kernel_mod_p(echelon, a.n, p)
        basis = _certified_kernel(a, vectors, p)
        if basis is not None:
            return RankReport(r, a.n - r, (p,), True, basis)
    echelon_q = _rank_rows_mod_p(rows, q)
    if not small and len(echelon_q) == r:
        return RankReport(r, a.n - r, _PRIMES, False, None)
    if small and [c for c, _ in echelon_q] == [c for c, _ in echelon]:
        # both primes give the vectors with the same free-column pattern
        inv = pow(p, -1, q)
        joined = [
            [u + p * ((w - u) * inv % q) for u, w in zip(x, y)]
            for x, y in zip(vectors, _kernel_mod_p(echelon_q, a.n, q))
        ]
        basis = _certified_kernel(a, joined, p * q)
        if basis is not None:
            return RankReport(r, a.n - r, _PRIMES, True, basis)
    top = max(r, len(echelon_q))
    rank = rational_rank(a)
    if rank < top:
        raise ConsistencyError(
            f"modular rank {top} exceeds rational rank {rank} (n={a.n}, d={a.d})"
        )
    basis = kernel(a) if small and rank < a.n else None
    return RankReport(rank, a.n - rank, _PRIMES, True, basis)


def kernel(a: BiregularMatrix, side: str = "right") -> SubspaceBasis:
    """Canonical basis of the right kernel {x : Ax = 0} or left kernel.

    The left kernel is computed as the right kernel of the transpose.  The
    number of vectors equals the corank; each vector satisfies the defining
    equations exactly.
    """
    if side not in ("right", "left"):
        raise ValueError(f'side must be "right" or "left", got {side!r}')
    m = a if side == "right" else a.transpose()
    pivot_cols, pivot_rows = _echelon_of(m)
    return SubspaceBasis(a.n, _kernel_from_echelon(pivot_cols, pivot_rows, a.n))


def f_rows(a: BiregularMatrix, i: int, j: int) -> list[list[int]]:
    """The n - 1 spanning rows of F(A; i, j): every row except i and j, then
    row i + row j.

    A switching on rows i and j moves a one from column k to l in row i and
    from l to k in row j, so it leaves every one of these rows unchanged.
    """
    if not (0 <= i < a.n and 0 <= j < a.n):
        raise IndexError(f"row indices ({i}, {j}) outside [0, {a.n})")
    if i == j:
        raise ValueError(f"F(A; i, j) needs two distinct rows, got i = j = {i}")
    dense = a.dense_rows()
    rows = [dense[s] for s in range(a.n) if s != i and s != j]
    rows.append([x + y for x, y in zip(dense[i], dense[j])])
    return rows


def f_perp(a: BiregularMatrix, i: int, j: int) -> SubspaceBasis:
    """Canonical basis of F(A; i, j)^perp, the kernel of :func:`f_rows`.

    Always nonzero: n - 1 spanning vectors leave dimension at least 1.
    """
    pivot_cols, pivot_rows = _int_echelon(f_rows(a, i, j))
    return SubspaceBasis(a.n, _kernel_from_echelon(pivot_cols, pivot_rows, a.n))


def span_basis(vectors: Iterable[Sequence[int | Fraction]]) -> SubspaceBasis:
    """Canonical basis of the span of rational (int or Fraction) vectors."""
    rows = _integer_rows(vectors)
    if not rows:
        raise ValueError("span_basis needs at least one vector to know n")
    return SubspaceBasis(len(rows[0]), rows)


def format_vector(x: Sequence[int | Fraction]) -> str:
    """Space-separated ``num/den`` tokens in lowest terms."""
    return " ".join(
        f"{Fraction(v).numerator}/{Fraction(v).denominator}" for v in x
    )
