"""Exact rank and kernel computations for 0/1 matrices.

Everything here is exact, so reported ranks are never floating-point
guesses.  Up to ``RATIONAL_THRESHOLD`` the rank is that of fraction-free
integer elimination (Bareiss); a deficient rank is cross-checked modulo two
fixed 62-bit primes.  Above it the two modular ranks decide when they agree.
A modular rank can only undershoot, and it comes from sparse elimination
over GF(p) that touches only nonzero entries.

Vectors are integers from the Bareiss echelon to the caller: integer
back-substitution gives integer vectors, and one fraction-free
Gauss-Jordan reduction turns them into the canonical basis of their span
(reduced row echelon rows scaled to coprime integers, leading entries
positive).  :class:`SubspaceBasis` is canonical on construction and carries
its ambient dimension n, so two subspaces are equal iff their bases compare
``==``.  Vectors from outside may be ints or ``Fraction``s; :func:`span_basis`
clears their denominators before reducing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
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
    "matvec",
    "format_vector",
    "parse_vector",
    "RATIONAL_THRESHOLD",
]

# Up to this size Bareiss decides every rank; above it the two-prime modular
# consensus stands alone unless the primes disagree.
RATIONAL_THRESHOLD = 128

# Two fixed primes just below 2^62 (2^62 - 57 and 2^62 - 87).  A modular
# rank can only undershoot, so their maximum is a lower bound on the rank.
_PRIMES = (4611686018427387847, 4611686018427387817)


# ─── elimination cores ──────────────────────────────────────────────────────


def _rank_rows_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Rank modulo p of sparse integer rows ``{column: entry}``.

    Structured elimination over GF(p) (LaMacchia & Odlyzko, CRYPTO 1990):
    each column keeps the set of rows that are nonzero in it, columns are
    taken left to right, and the pivot is the candidate row with the fewest
    nonzeros.  A pivot updates only the rows nonzero in its column, and only
    at the pivot row's nonzero columns; entries that cancel are removed.
    The rank over GF(p) does not depend on the pivot choice.  The input
    rows are left unchanged.
    """
    rows = [{c: v % p for c, v in row.items() if v % p} for row in rows]
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    col_rows: list[set[int]] = [set() for _ in range(ncols)]
    for s, row in enumerate(rows):
        for c in row:
            col_rows[c].add(s)
    rank = 0
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
        rank += 1
    return rank


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
    """Result of :func:`rank_exact`, with enough detail to replay it."""

    rank: int
    corank: int
    primes_used: tuple[int, ...]
    rationally_confirmed: bool


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
    return _rank_rows_mod_p(_sparse_rows(a), p)


def rational_rank(a: BiregularMatrix) -> int:
    """Rank over the rationals via fraction-free elimination."""
    return len(_echelon_of(a)[0])


def rational_rank_rows(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of an explicit integer matrix (not necessarily biregular)."""
    return len(_int_echelon(rows)[0])


def rank_exact(a: BiregularMatrix) -> RankReport:
    """Exact rank: Bareiss up to ``RATIONAL_THRESHOLD``, two primes above it.

    For ``n <= RATIONAL_THRESHOLD`` the rational rank (the cached echelon
    that :func:`kernel` reuses) comes first.  A full rank returns at once
    with ``primes_used == ()``: a modular rank never exceeds n, so the
    cross-check could not fire.  A deficient rank is cross-checked modulo
    both primes in ``_PRIMES``.  Above the threshold the two modular ranks
    decide alone when they agree; when they disagree, rational elimination
    decides.  The rational rank is authoritative: it can never be smaller
    than a modular rank, and a larger modular rank raises
    :class:`ConsistencyError`.
    """
    r = rational_rank(a) if a.n <= RATIONAL_THRESHOLD else None
    if r == a.n:
        return RankReport(rank=r, corank=0, primes_used=(), rationally_confirmed=True)
    ranks = [_rank_rows_mod_p(_sparse_rows(a), p) for p in _PRIMES]
    modular = max(ranks)
    if r is None:
        if ranks[0] == ranks[1]:
            return RankReport(
                rank=modular,
                corank=a.n - modular,
                primes_used=_PRIMES,
                rationally_confirmed=False,
            )
        r = rational_rank(a)
    if r < modular:
        raise ConsistencyError(
            f"modular rank {modular} exceeds rational rank {r} (n={a.n}, d={a.d})"
        )
    return RankReport(rank=r, corank=a.n - r, primes_used=_PRIMES, rationally_confirmed=True)


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


def matvec(a: BiregularMatrix, x: Sequence[int | Fraction]) -> tuple[int | Fraction, ...]:
    """Exact product A x for a rational vector x (row-support dot products)."""
    if len(x) != a.n:
        raise DimensionError(f"vector length {len(x)} != n = {a.n}")
    return tuple(sum(x[t] for t in support) for support in a.row_supports)


def format_vector(x: Sequence[int | Fraction]) -> str:
    """Space-separated ``num/den`` tokens in lowest terms."""
    return " ".join(
        f"{Fraction(v).numerator}/{Fraction(v).denominator}" for v in x
    )


def parse_vector(text: str) -> tuple[Fraction, ...]:
    """Inverse of :func:`format_vector`; bare integers are accepted too."""
    return tuple(Fraction(tok) for tok in text.split())
