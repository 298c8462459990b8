"""Exact rank and kernel computations for 0/1 matrices.

Everything here is exact: ranks are computed modulo random 62-bit primes
(fast, one-sided — a modular rank can only undershoot) and confirmed by
fraction-free integer elimination (Bareiss) at moderate sizes, so reported
ranks are never floating-point guesses.

Kernels stay in the integers from the Bareiss echelon on: integer
back-substitution gives primitive integer vectors, and one fraction-free
Gauss-Jordan reduction turns integer vectors into the canonical basis of
their span (reduced row echelon rows scaled to coprime integers, leading
entries positive).  ``Fraction``s are made only at the API boundary:
:class:`KernelBasis` and :class:`SubspaceBasis` hold the reduced row
echelon basis over Q (leading coefficients 1, entries in lowest terms),
and :func:`spaces_equal` and :func:`in_span` clear denominators before
reducing.  Two spans are equal iff their canonical bases are identical.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import ConsistencyError, DimensionError
from .matrix import BiregularMatrix, matrix_id

__all__ = [
    "RankReport",
    "KernelBasis",
    "SubspaceBasis",
    "rank_mod_p",
    "rational_rank",
    "rational_rank_rows",
    "rank_exact",
    "kernel",
    "f_perp",
    "spaces_equal",
    "span_basis",
    "in_span",
    "matvec",
    "format_vector",
    "parse_vector",
    "RATIONAL_THRESHOLD",
]

# Rational confirmation is mandatory up to this size; above it the two-prime
# modular consensus stands alone unless the primes disagree.
RATIONAL_THRESHOLD = 128

_PRIME_LOW = (1 << 61) + 1
_PRIME_HIGH = 1 << 62

_SMALL_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)
# Deterministic Miller-Rabin base set, valid for all candidates below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime_u64(x: int) -> bool:
    """Deterministic primality test for odd x in the 62-bit window."""
    for p in _SMALL_PRIMES:
        if x % p == 0:
            return x == p
    d = x - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        v = pow(a, d, x)
        if v == 1 or v == x - 1:
            continue
        for _ in range(r - 1):
            v = (v * v) % x
            if v == x - 1:
                break
        else:
            return False
    return True


def _prime_stream(seed: int):
    """Deterministic stream of distinct random 62-bit primes."""
    gen = random.Random(seed)
    seen: set[int] = set()
    while True:
        c = gen.randrange(_PRIME_LOW, _PRIME_HIGH, 2)
        if c in seen:
            continue
        seen.add(c)
        if _is_prime_u64(c):
            yield c


def _default_prime_seed(a: BiregularMatrix) -> int:
    # Derived from the matrix bytes so reruns on the same matrix replay the
    # same primes without any global state.
    digest = hashlib.blake2b(matrix_id(a), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# ─── elimination cores ──────────────────────────────────────────────────────
#
# Both cores walk columns left to right over an "active" block of rows that
# all start at the current column; processed columns are physically dropped,
# so the inner loops shrink as elimination proceeds.


def _rank_rows_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix modulo p.  Consumes its input rows."""
    active = [[v % p for v in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for _ in range(ncols):
        if not active or not active[0]:
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
        rank += 1
        if not active:
            break
        inv = pow(pivrow[0], -1, p)
        tail = pivrow[1:]
        nxt = []
        for row in active:
            f = row[0]
            if f:
                g = (f * inv) % p
                nxt.append([(a - g * b) % p for a, b in zip(row[1:], tail)])
            else:
                del row[0]
                nxt.append(row)
        active = nxt
    return rank


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
    """Back-substitute one primitive integer kernel vector per free column.

    The vector for free column ``fc`` is the rational solution with
    ``x[fc] = 1`` scaled to coprime integers.  Whenever a pivot does not
    divide the partial sum, the whole vector is scaled by
    ``|pivot / gcd(sum, pivot)|`` so the division is exact; the content is
    divided out at the end.  The entry at ``fc`` stays positive.
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
        content = gcd(*x)
        basis.append(x if content == 1 else [v // content for v in x])
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


def _fraction_rows(int_rref: Sequence[Sequence[int]]) -> tuple[tuple[Fraction, ...], ...]:
    """The RREF over Q: each canonical integer row divided by its lead."""
    out = []
    for row in int_rref:
        lead = next(v for v in row if v)
        out.append(tuple(Fraction(v, lead) for v in row))
    return tuple(out)


def _integer_rows(space) -> list[list[int]]:
    """Vectors of ``space`` (a basis or vector list) with denominators cleared.

    Each rational vector is scaled by the lcm of its denominators, which
    leaves every span unchanged.
    """
    rows = []
    for vec in getattr(space, "vectors", space):
        vals = [Fraction(v) for v in vec]
        den = lcm(*(v.denominator for v in vals))
        rows.append([v.numerator * (den // v.denominator) for v in vals])
    return rows


# ─── public API ─────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class RankReport:
    """Result of :func:`rank_exact`, with enough detail to replay it."""

    rank: int
    corank: int
    primes_used: tuple[int, ...]
    rationally_confirmed: bool


@dataclass(frozen=True)
class KernelBasis:
    """Canonical (RREF) basis of ker A (side="right") or ker A^T (side="left")."""

    side: str
    vectors: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical (RREF) basis of a rational subspace of Q^n."""

    vectors: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


def rank_mod_p(a: BiregularMatrix, p: int) -> int:
    """Rank of ``a`` over GF(p).  Never exceeds the rational rank."""
    if p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p}")
    return _rank_rows_mod_p(a.dense_rows(), p)


def rational_rank(a: BiregularMatrix) -> int:
    """Rank over the rationals via fraction-free elimination."""
    return len(_echelon_of(a)[0])


def rational_rank_rows(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of an explicit integer matrix (not necessarily biregular)."""
    return len(_int_echelon(rows)[0])


def rank_exact(
    a: BiregularMatrix,
    *,
    rational_threshold: int = RATIONAL_THRESHOLD,
    prime_seed: int | None = None,
) -> RankReport:
    """Exact rank via two-prime modular consensus plus rational confirmation.

    Two distinct random 62-bit primes are drawn from a deterministic stream
    seeded by ``prime_seed`` (default: a hash of the matrix bytes, so equal
    matrices replay identical primes).  If the two modular ranks disagree,
    two more primes are drawn, the maximum is kept, and rational
    confirmation is forced; otherwise rational elimination runs whenever
    ``n <= rational_threshold``.  The rational rank is authoritative: it can
    never be smaller than a modular rank, and a larger modular rank raises
    :class:`ConsistencyError`.
    """
    seed = _default_prime_seed(a) if prime_seed is None else prime_seed
    stream = _prime_stream(seed)
    primes = [next(stream), next(stream)]
    ranks = [_rank_rows_mod_p(a.dense_rows(), p) for p in primes]
    forced = ranks[0] != ranks[1]
    if forced:
        extra = [next(stream), next(stream)]
        primes.extend(extra)
        ranks.extend(_rank_rows_mod_p(a.dense_rows(), p) for p in extra)
    modular = max(ranks)

    if forced or a.n <= rational_threshold:
        r = rational_rank(a)
        if r < modular:
            raise ConsistencyError(
                f"modular rank {modular} exceeds rational rank {r} (n={a.n}, d={a.d})"
            )
        return RankReport(
            rank=r,
            corank=a.n - r,
            primes_used=tuple(primes),
            rationally_confirmed=True,
        )
    return RankReport(
        rank=modular,
        corank=a.n - modular,
        primes_used=tuple(primes),
        rationally_confirmed=False,
    )


def kernel(a: BiregularMatrix, side: str = "right") -> KernelBasis:
    """Canonical basis of the right kernel {x : Ax = 0} or left kernel.

    The left kernel is computed as the right kernel of the transpose.  The
    number of vectors equals the corank; each vector satisfies the defining
    equations exactly.
    """
    if side not in ("right", "left"):
        raise ValueError(f'side must be "right" or "left", got {side!r}')
    m = a if side == "right" else a.transpose()
    pivot_cols, pivot_rows = _echelon_of(m)
    vectors = _kernel_from_echelon(pivot_cols, pivot_rows, a.n)
    return KernelBasis(side=side, vectors=_fraction_rows(_int_rref(vectors)))


def f_perp(a: BiregularMatrix, i: int, j: int) -> SubspaceBasis:
    """Orthogonal complement of span{rows except i and j, row i + row j}.

    That span is invariant under any switching acting on rows i and j, so
    its complement bounds where kernel vectors can live across switchings.
    Always nonzero: n - 1 spanning vectors leave dimension at least 1.
    """
    if not (0 <= i < a.n and 0 <= j < a.n):
        raise IndexError(f"row indices ({i}, {j}) outside [0, {a.n})")
    if i == j:
        raise ValueError(f"f_perp needs two distinct rows, got i = j = {i}")
    dense = a.dense_rows()
    rows = [dense[s] for s in range(a.n) if s != i and s != j]
    rows.append([x + y for x, y in zip(dense[i], dense[j])])
    pivot_cols, pivot_rows = _int_echelon(rows)
    vectors = _kernel_from_echelon(pivot_cols, pivot_rows, a.n)
    return SubspaceBasis(vectors=_fraction_rows(_int_rref(vectors)))


def span_basis(vectors: Iterable[Sequence[Fraction]]) -> SubspaceBasis:
    """Canonical (RREF) basis of the span of rational vectors."""
    return SubspaceBasis(vectors=_fraction_rows(_int_rref(_integer_rows(vectors))))


def spaces_equal(first, second) -> bool:
    """Whether two spans (bases or raw vector lists) are the same subspace.

    Raises :class:`DimensionError` when the ambient dimensions differ.
    """
    u = _integer_rows(first)
    v = _integer_rows(second)
    if u and v and len(u[0]) != len(v[0]):
        raise DimensionError(
            f"ambient dimensions differ: {len(u[0])} vs {len(v[0])}"
        )
    return _int_rref(u) == _int_rref(v)


def in_span(vector: Sequence[Fraction], space) -> bool:
    """Whether ``vector`` lies in the span of ``space`` (a basis or vector list)."""
    basis = _integer_rows(space)
    (v,) = _integer_rows([vector])
    if not any(v):
        return True
    if basis and len(basis[0]) != len(v):
        raise DimensionError(
            f"ambient dimensions differ: {len(basis[0])} vs {len(v)}"
        )
    rref = _int_rref(basis)
    return _int_rref(rref + [v]) == rref


def matvec(a: BiregularMatrix, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact product A x for a rational vector x (row-support dot products)."""
    if len(x) != a.n:
        raise DimensionError(f"vector length {len(x)} != n = {a.n}")
    return tuple(sum((x[t] for t in support), Fraction(0)) for support in a.row_supports)


def format_vector(x: Sequence[Fraction]) -> str:
    """Space-separated ``num/den`` tokens in lowest terms."""
    return " ".join(
        f"{Fraction(v).numerator}/{Fraction(v).denominator}" for v in x
    )


def parse_vector(text: str) -> tuple[Fraction, ...]:
    """Inverse of :func:`format_vector`; bare integers are accepted too."""
    return tuple(Fraction(tok) for tok in text.split())
