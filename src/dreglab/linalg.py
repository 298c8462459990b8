"""Exact rank and kernel computations for 0/1 matrices.

Everything here is exact, so reported ranks are never floating-point
guesses.  A rank is certified on one ladder, one rung per fixed prime:
2^30 - 35, then 2^61 - 1, then fraction-free integer elimination
(Bareiss).  A rung eliminates over GF(p), sparse while the pivots touch
few entries and then, once fill-in sets in, on a dense uint64 numpy block
reduced mod p only as often as its bound requires.  A modular rank never
exceeds the rational rank, so a modular rank of n proves full rank and
ends the work.  A deficient modular rank r is proven, up to
``RATIONAL_THRESHOLD``, together with both kernels: the echelon gives one
right kernel vector mod p per free column, the recorded row operations one
left kernel vector per row that never became a pivot, and rational
reconstruction lifts each to integers, checked exactly as A x = 0 or
y^T A = 0 over Z.  Each side's n - r vectors are independent by their
pattern, so the rank is at most r as well.  A failed lift or check hands
the whole rung over to the next.  Above the threshold two agreeing
modular ranks decide, and Bareiss settles a disagreement.

Vectors are integers from elimination to the caller: integer
back-substitution on the Bareiss echelon and the lifted modular vectors
both give integer vectors, and one fraction-free Gauss-Jordan reduction
turns them into the canonical basis of their span (reduced row echelon
rows scaled to coprime integers, leading entries positive), so the route
never shows in a basis.  :class:`SubspaceBasis` is canonical on
construction and carries its ambient dimension n, so two subspaces are
equal iff their bases compare ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, inf, isqrt, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConsistencyError, DimensionError
from .matrix import BiregularMatrix

__all__ = [
    "RankReport",
    "SubspaceBasis",
    "rank_mod_p",
    "rational_rank",
    "rank_exact",
    "kernel",
    "f_rows",
    "format_vector",
    "RATIONAL_THRESHOLD",
]

# Up to this size a deficient modular rank is certified by lifted kernel
# vectors (Bareiss only when both primes fail); above it the two-prime
# modular consensus stands alone unless the primes disagree.
RATIONAL_THRESHOLD = 128

# The first prime, 2^30 - 35, decides every full rank: CPython stores ints
# in 30-bit digits, so each residue is one digit and each product two,
# which keeps the modular core on its fast path.  The second, the Mersenne
# prime 2^61 - 1, runs only for a deficient rank, where its wider lift
# bound (about 2^30) reaches the kernels the first prime cannot.  A
# modular rank can only undershoot, so either prime's rank is a lower
# bound on the rational rank.
_PRIMES = (2**30 - 35, 2**61 - 1)

# Miller-Rabin to the first 13 prime bases is exact below psi_13 ~ 3.3e24, the
# least strong pseudoprime to all of them (Sorenson & Webster, Math. Comp.
# 2017), so rank_mod_p refuses a larger modulus rather than guess.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

# Sparse elimination hands over to the dense finish at the first pivot whose
# step would touch more than this many entries, or more than this many per
# column left: at (128,3) that moves the hand-over from column 109 to 94 on
# average and an elimination to 0.89-0.90 of its time (see _rank_rows_mod_p).
_DENSE_AFTER = (250, 4)


# ─── elimination cores ──────────────────────────────────────────────────────


@dataclass(eq=False)
class _Echelon:
    """One elimination modulo ``p``, as :func:`_rank_rows_mod_p` returns it.

    Its ``len`` is the rank over GF(p).  Iterating gives one ``(c, update)``
    pair per pivot column c, in increasing c.  ``update`` lists ``(col,
    coeff)`` pairs with col > c such that every solution of the rows over
    GF(p) has x_c = sum of coeff * x_col.  The sparse phase keeps its pairs
    in ``sparse``.  The dense finish keeps its pivot rows in ``block``:
    row t is the t-th pivot row over columns ``c0`` on, and ``pivots``
    holds their columns counted from c0.  They are read out into pairs only
    when iterated, that is when a kernel is back-substituted.

    ``live`` and ``live_rows`` are the rows handed to the dense finish, as
    indices and as their sparse rows, which the finish leaves unchanged.
    ``ops`` and ``scale`` are the record of the sparse phase's row
    operations, kept only when asked for (see :func:`_rank_rows_mod_p`).
    """

    p: int
    sparse: list[tuple[int, list[tuple[int, int]]]] = field(default_factory=list)
    ops: list[tuple[int, int, int]] | None = None
    scale: dict[int, int] | None = None
    c0: int = 0
    pivots: list[int] = field(default_factory=list)
    block: np.ndarray | None = None
    live: list[int] = field(default_factory=list)
    live_rows: list[dict[int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sparse) + len(self.pivots)

    def __iter__(self) -> Iterator[tuple[int, list[tuple[int, int]]]]:
        yield from self.sparse
        for t, j in enumerate(self.pivots):
            c = self.c0 + j
            tail = self.block[t, j + 1 :].tolist()
            yield c, [(c + 1 + u, v) for u, v in enumerate(tail) if v]


def _rank_rows_mod_p(rows: Sequence[Sequence[int]], p: int, record: bool = False) -> _Echelon:
    """Forward echelon modulo p of a square 0/1 matrix given by its row supports.

    ``rows[s]`` lists the columns where row s is 1, as
    ``BiregularMatrix.row_supports`` does; the matrix is square, so there
    are ``len(rows)`` columns.  Structured elimination over GF(p)
    (LaMacchia & Odlyzko, CRYPTO 1990), in two phases.  The sparse phase
    keeps, for each column, the set of rows that are nonzero in it; columns
    are taken left to right, and the pivot is the candidate row with the
    fewest nonzeros, the first such in the set's order, as ``min`` with a
    key picks it.  A column with one or two candidates, the common case,
    picks that same row by unpacking the set, and one with more by a plain
    scan that keeps the first strictly shorter row, without a call of a key
    function per candidate.  A pivot updates only the rows nonzero in its
    column, and only at the pivot row's nonzero columns; entries that
    cancel are removed.

    Ones get fast paths.  Entries always lie in [1, p - 1], so a pivot
    entry of 1 needs no inverse: its scale is p - 1 and each update
    coefficient is p - v.  A row whose entry in the pivot column is 1 adds
    the update without the multiply.  Modulo 2^30 - 35, 80-87% of the
    sparse pivots are 1 at d = 3, and 44-54% of the multipliers; at (40,2)
    79% and 76%.  Against an inverse per pivot, a multiply per entry and
    ``min`` with a key, this took an elimination (interleaved, best of 7,
    summed over seeded samples on 2 cores, Python 3.11) to 0.88-0.89 of
    its time at (128,3), 0.91-0.92 at (256,3), 0.89 at (40,2) and 0.92-0.93
    at (48,8) mcmc; the pivot paths alone gave 0.91-0.92, 0.94, 0.90-0.91
    and 0.96.  Against this loop, building the update with ``zip`` and
    ``map`` took 1.01-1.11 of its time, discarding over the pivot row's
    keys 1.00-1.01 and binding ``sparse.append`` once 0.97-1.01.  Row
    dicts keep their insertion order and ``col_rows`` its add and discard
    history, so every echelon is the one the plain loop gives.

    Fill-in makes each updated entry a dict operation of 250-400 ns, so
    the live rows go to :func:`_finish_dense` at the first pivot whose step
    would touch (candidate rows times pivot-row length) more than 250
    entries, or more than 4 per column left (``ncols - c``): that pair is
    ``_DENSE_AFTER``.  The block is used only when p^2 < 2^63 leaves its
    uint64 entries room for at least two unreduced updates; 2^61 - 1 stays
    sparse throughout.  The fixed bound decides where many columns are
    left, the width bound near the end, where a dense column costs the
    same handful of numpy calls however few rows are live and a sparse
    step on those rows costs more.

    The switch at 250 entries alone was measured on 2 cores (Python 3.11,
    numpy 2.4), one elimination modulo 2^30 - 35, medians over seeded
    samples: (256,3) 10.1 -> 6.2 ms, (128,3) 2.5 -> 1.8 ms, (48,8) mcmc
    2.5 -> 1.7 ms, (512,3) 58-75 -> 27-35 ms, (1024,3) 454-518 -> 174-201
    ms and (512,8) mcmc 2.6 -> 0.35 s.  Thresholds from 150 to 300 came
    within noise of each other; 60 switched too early and lost at (128,3)
    and (256,3), and 400 lost at (48,8).

    The width bound moved the mean hand-over column, over grid draws of
    master seed 7, from 109 to 94 at (128,3), with 34 live rows where
    there were 19, from 30 to 5.5 at (32,8) mcmc and from 15 to 9 at
    (48,8) mcmc.  At (256,3), (512,3), (1024,3) and (512,8) mcmc the 250
    entries come first, with more than 62 columns left, so nothing moves.
    No (40,2), (60,2) or (12,3) elimination reaches the block (3,000
    samples).  Against 250 alone (one process alternating the two, best
    of 7 per sample, summed over samples, master seeds 7 and 11) an
    elimination took 0.89-0.90 of its time at (128,3), 0.69-0.71 at
    (32,8), 0.89-0.90 at (48,8) and 0.96-0.97 at (64,8); 1.01-1.02 at
    (256,3) and (512,3), 0.95-0.98 at (1024,3) and 1.00-1.01 at (512,8),
    where the same code against itself read 0.97-1.02.  Medians at (128,3)
    went 1.08 -> 0.95 ms and 1.65 -> 1.49 ms on the two seeds.  4 per
    column is the least that keeps (12,3) sparse (3 reached the block in
    56 of 1,000 draws); 3 to 5 came within noise at (128,3) and (256,3),
    5 lost at (48,8) (0.95 of the time against 0.87), and 200 entries in
    place of 250 lost 19-24% at (1024,3) and (512,8).

    Returns the :class:`_Echelon`.  Its length is the rank over GF(p),
    which does not depend on the pivot choice, and neither do the pivot
    columns: c is one iff column c is not in the span of the columns before
    it.

    With ``record``, the echelon also keeps the sparse phase's row
    operations, for :func:`_left_kernel_mod_p`.  Pivot row ``piv`` at
    column c has ``scale[piv]`` = -1 / (its entry in c).  Each step "row s
    += f * scale[piv] * row piv", where f is row s's entry in c, is one
    triple ``(piv, s, f)`` in ``ops``, in the order the steps ran; f is
    multiplied by the scale only at replay.  Replaying ``ops`` last first
    as ``y[piv] += f * scale[piv] * y[s]`` rewrites a combination y of the
    rows as the sparse phase left them as a combination of the input rows
    with the same sum.
    """
    ncols = len(rows)
    rows = [dict.fromkeys(support, 1) for support in rows]
    col_rows: list[set[int]] = [set() for _ in range(ncols)]
    for s, row in enumerate(rows):
        for c in row:
            col_rows[c].add(s)
    ops, scale = ([], {}) if record else (None, None)
    echelon = _Echelon(p, [], ops, scale)
    limit, per_column = _DENSE_AFTER if p * p < 1 << 63 else (inf, inf)
    for c in range(ncols):
        cand = col_rows[c]
        if not cand:
            continue
        if len(cand) == 1:
            (piv,) = cand
        elif len(cand) == 2:
            piv, other = cand
            if len(rows[other]) < len(rows[piv]):
                piv = other
        else:  # the first strictly shortest row, the one min(key=len) picks
            best = inf
            for s in cand:
                size = len(rows[s])
                if size < best:
                    piv, best = s, size
        pivrow = rows[piv]
        work = len(cand) * len(pivrow)
        if work > limit or work > per_column * (ncols - c):
            # every row still nonzero past column c is a live, non-pivot row
            live = sorted(set().union(*col_rows[c:]))
            live_rows = [rows[s] for s in live]
            echelon.c0, echelon.block = c, _dense_block(live_rows, c, ncols)
            echelon.pivots = _finish_dense(echelon.block, ncols - c, p)
            echelon.live, echelon.live_rows = live, live_rows
            return echelon
        cand.discard(piv)
        # row s becomes row s + f * update, where f is row s's entry in c;
        # entries lie in [1, p - 1], so a unit pivot scales v to p - v
        x = pivrow.pop(c)
        if x == 1:
            ninv = p - 1
            update = [(col, p - v) for col, v in pivrow.items()]
        else:
            ninv = p - pow(x, -1, p)
            update = [(col, v * ninv % p) for col, v in pivrow.items()]
        if record:
            scale[piv] = ninv
        for col, _ in update:
            col_rows[col].discard(piv)
        for s in cand:
            row = rows[s]
            f = row.pop(c)
            if record:
                ops.append((piv, s, f))
            if f == 1:  # the same loop as below, without the multiply
                for col, v in update:
                    old = row.get(col)
                    if old is None:
                        row[col] = v
                        col_rows[col].add(s)
                    else:
                        new = (old + v) % p
                        if new:
                            row[col] = new
                        else:
                            del row[col]
                            col_rows[col].discard(s)
                continue
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
        echelon.sparse.append((c, update))
    return echelon


def _dense_block(
    rows: list[dict[int, int]], c0: int, ncols: int, identity: bool = False
) -> np.ndarray:
    """The sparse ``rows`` (nonzero only at columns >= c0) as one uint64 block.

    The block spans columns c0..ncols-1, followed, with ``identity``, by
    one identity column per row.  Every (row, column, value) triple goes in
    with one fancy-index scatter, where an assignment per row paid numpy's
    per-call overhead once per row: the hand-over went from 91 to 43 us
    on (128,3) blocks, 276 to 78 us on (256,3) and 116 to 41 us on (48,8)
    mcmc blocks (2 cores, Python 3.11, numpy 2.4; best of 7 over 36-40
    seeded samples each).
    """
    m = ncols - c0
    block = np.zeros((len(rows), m + len(rows) * identity), dtype=np.uint64)
    sizes = list(map(len, rows))
    total = sum(sizes)
    at = np.repeat(np.arange(len(rows)), sizes)
    cols = np.fromiter(chain.from_iterable(rows), np.intp, total)
    cols -= c0
    block[at, cols] = np.fromiter(chain.from_iterable(map(dict.values, rows)), np.uint64, total)
    if identity:
        block[:, m:] = np.eye(len(rows), dtype=np.uint64)
    return block


def _finish_dense(block: np.ndarray, m: int, p: int) -> list[int]:
    """Echelon the first ``m`` columns of the uint64 ``block`` modulo p, in place.

    Columns are finished left to right: the first row nonzero in the column
    is the pivot, swapped to the top of the active rows and scaled by
    -1/pivot, and the rows below get the rank-1 update row += f * pivot
    row.  Columns past the m-th take part in the updates but never give a
    pivot, so an identity placed there records each row's combination of
    the input rows.  Returns the pivot columns; row t then holds the t-th
    pivot row, reduced mod p, and the rows after the last pivot row are
    zero mod p in the first m columns.

    The reduction is delayed.  With entries below 2^64, a column is reduced
    mod p before its pivot is looked for, and the pivot row before it is
    scaled, so both factors of an update are below p and each update adds
    at most (p - 1)^2 to an entry.  The active block is reduced after every
    K = floor((2^64 - p) / (p - 1)^2) updates, so no entry exceeds
    (p - 1) + K (p - 1)^2 < 2^64, and every step stays exact.  K is 16 at
    p = 2^30 - 35.  An int64 block reduced every 7 columns without reducing
    the pivot column and row first overflowed.  Against reducing the whole
    block at every step and reading every pivot row out, this took one
    (256,3) block from 2.7-3.1 to 1.8-2.0 ms and one (128,3) block from
    0.56-0.61 to 0.45-0.48 ms (2 cores, Python 3.11, numpy 2.4; best of 5
    over 40 stub samples each).  Reading the pivot rows out, which only a
    kernel's back-substitution does, adds 0.3 and 0.06 ms.

    A column costs a handful of numpy calls.  The pivot is found by
    ``nonzero`` on the column's strided view, where ``np.flatnonzero``
    ravelled a copy first, its entry is read from that view, and the update
    broadcasts ``column[1:, None] * update``, the products
    ``np.multiply.outer`` formed, in the same uint64 order.  That took a
    column from 11.3 to 8.7 us on (128,3) blocks (26 columns on average),
    from 15.3 to 13.2 us on (256,3) blocks (72 columns) and from 10.5 to
    8.5 us on (48,8) mcmc blocks (33 columns), same machine and samples as
    :func:`_dense_block`.
    """
    rows = len(block)
    every = ((1 << 64) - p) // (p - 1) ** 2
    pivots: list[int] = []
    top = pending = 0
    for j in range(m):
        if top == rows:
            break
        column = block[top:, j]  # a view: the swap below shows in it
        column %= p
        (nonzero,) = column.nonzero()
        if not len(nonzero):
            continue
        k = nonzero[0]
        if k:
            block[[top, top + k]] = block[[top + k, top]]
        update = block[top, j + 1 :]
        update %= p
        update *= p - pow(int(column[0]), -1, p)
        update %= p
        below = block[top + 1 :, j + 1 :]
        below += column[1:, None] * update
        pending += 1
        if pending == every:
            below %= p
            pending = 0
        pivots.append(j)
        top += 1
    return pivots


def _kernel_mod_p(
    echelon: Iterable[tuple[int, list[tuple[int, int]]]], ncols: int, p: int
) -> list[list[int]]:
    """Back-substitute one kernel vector over GF(p) per free column.

    The vector for free column ``fc`` has x[fc] = 1 and x = 0 at every
    other free column; the pivot entries follow from the echelon, last
    pivot first.  An update of one entry, most of them at d = 2, is that
    entry's single product: the residue the sum over a one-item list gives,
    without building the list.
    """
    steps = list(echelon)
    steps.reverse()
    pivots = {c for c, _ in steps}
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        x = [0] * ncols
        x[fc] = 1
        for c, update in steps:
            if len(update) == 1:
                ((col, v),) = update
                x[c] = v * x[col] % p
            else:
                x[c] = sum([v * x[col] for col, v in update]) % p
        basis.append(x)
    return basis


def _left_kernel_mod_p(echelon: _Echelon, n: int) -> list[list[int]]:
    """One vector y over GF(p) with y^T A = 0 per row that never became a pivot.

    ``echelon`` is a recorded elimination of A.  A row that the sparse
    phase never took as a pivot, and never handed to the dense block, is
    zero there, so its unit vector, replayed through the record, is such a
    y.  When the dense block has fewer pivots than rows, it is eliminated
    once more with an identity beside it (the rows are unchanged, since
    the first finish read them into its own block).  Each of its rows
    without a pivot ends zero in the block, and its identity part is the
    combination of the live rows that gives zero; that combination seeds
    the replay.

    A row only ever gains multiples of pivot rows, so each y is 1 at its
    own row and 0 at the other rows without a pivot: the n - r vectors are
    independent by their pattern.
    """
    p, ops, scale, live = echelon.p, echelon.ops, echelon.scale, echelon.live
    vectors = []
    done = set(scale).union(live)
    for s in range(n):
        if s not in done:
            y = [0] * n
            y[s] = 1
            vectors.append(y)
    if len(echelon.pivots) < len(live):
        m = n - echelon.c0
        block = _dense_block(echelon.live_rows, echelon.c0, n, identity=True)
        found = len(_finish_dense(block, m, p))
        block = block[found:, m:] % p
        for combination in block.tolist():
            y = [0] * n
            for s, v in zip(live, combination):
                y[s] = v
            vectors.append(y)
    for y in vectors:
        for piv, s, f in reversed(ops):
            v = y[s]
            if v:
                y[piv] = (y[piv] + f * v % p * scale[piv]) % p
    return vectors


def _lift(x: list[int], m: int) -> list[int] | None:
    """Integer vector whose entries reduce mod m to ``x`` up to a common scale.

    Each entry u is reconstructed as the fraction a/b with |a|, b <= B =
    isqrt(m / 2) and a = b u (mod m), which is unique when it exists (von
    zur Gathen & Gerhard, *Modern Computer Algebra*, §5.10), and the vector
    is scaled by the lcm of the b.  Returns None when some entry has no
    such fraction.  Entries 0 and 1 lift to themselves, so the free-column
    pattern of a :func:`_kernel_mod_p` vector survives.

    When every entry lies within B of 0 or of m, as in most kernels of 0/1
    matrices, each lifts to itself or to itself minus m over denominator 1,
    so the lcm is 1 and that vector is returned at once: it is what the
    entry-by-entry loop gives.
    """
    bound = isqrt(m // 2)
    near = [u if u <= bound else u - m for u in x]
    if min(near, default=0) >= -bound:
        return near
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


def _certified_kernel(
    a: BiregularMatrix, vectors: list[list[int]], m: int, left: bool = False
) -> SubspaceBasis | None:
    """The right kernel of ``a``, or with ``left`` its left kernel, spanned
    by the lifts of ``vectors`` mod m; None if a lift fails its check.

    Every lift x must satisfy A x = 0, or with ``left`` x^T A = 0, exactly
    over Z.  Both checks read A's row supports.  A x = 0 sums x over each
    row's support.  x^T A = 0 adds x_s to each column of row s's support
    and asks every column's sum to be 0: those sums are the entries of
    x^T A, so this is the right check of the transpose without building
    it.  Each vector is 1 at an index of its own and 0 at the others' (a
    free column, or a row that never became a pivot), and a lift keeps
    that pattern, so they are independent: together with a modular rank
    of n - len(vectors) they prove both the rank and that they span the
    kernel.
    """
    rows = a.row_supports
    lifted = []
    for x in vectors:
        y = _lift(x, m)
        if y is None:
            return None
        if left:
            sums = [0] * a.n
            for v, support in zip(y, rows):
                if v:
                    for c in support:
                        sums[c] += v
            if any(sums):
                return None
        else:
            for support in rows:
                s = 0
                for c in support:
                    s += y[c]
                if s:
                    return None
        lifted.append(y)
    return SubspaceBasis(a.n, lifted)


# The Bareiss core walks columns left to right over an "active" block of rows
# that all start at the current column; processed columns are physically
# dropped, so the inner loops shrink as elimination proceeds.


def _int_echelon(rows: Sequence[Sequence[int]]) -> list[tuple[int, list[int]]]:
    """Fraction-free (Bareiss) echelon form of an integer matrix.

    Returns the pivot rows: the t-th is a pair ``(c, coeffs)`` with c its
    pivot column and ``coeffs[u]`` the exact integer entry in column
    ``c + u`` of the t-th echelon row, so their number is the rank.  All
    divisions are exact; the row space (hence rank and kernel) of the input
    is preserved.
    """
    active = [list(row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    prev = 1
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
        pivot_rows.append((col, pivrow))
        prev = piv
    return pivot_rows


def _kernel_from_echelon(pivot_rows: Sequence[tuple[int, Sequence[int]]], ncols: int) -> list[list[int]]:
    """Back-substitute one integer kernel vector per free column.

    The vector for free column ``fc`` is the rational solution with
    ``x[fc] = 1`` scaled to integers.  Whenever a pivot does not divide the
    partial sum, the whole vector is scaled by ``|pivot / gcd(sum, pivot)|``
    so the division is exact.  :class:`SubspaceBasis` divides out the content.
    """
    pivot_set = {c for c, _ in pivot_rows}
    basis: list[list[int]] = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        x = [0] * ncols
        x[fc] = 1
        for pc, row in reversed(pivot_rows):
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


def _dense(rows: Iterable[Sequence[int]], n: int) -> list[list[int]]:
    """Dense n-column rows from supports; a column listed twice becomes a 2."""
    dense = []
    for support in rows:
        row = [0] * n
        for t in support:
            row[t] += 1
        dense.append(row)
    return dense


def _bareiss(
    rows: Sequence[Sequence[int]], n: int, kernel: bool = False
) -> tuple[int, SubspaceBasis | None]:
    """Rank over Q of the n-column matrix with these row supports and, with
    ``kernel``, the canonical basis of its right kernel (else None).

    A support lists a column as often as the row's entry there, so the
    merged row i + j of F(A; i, j) lists twice the columns rows i and j
    share, and a zeroed row is ``()``.  One Bareiss elimination gives both.
    """
    pivot_rows = _int_echelon(_dense(rows, n))
    basis = SubspaceBasis(n, _kernel_from_echelon(pivot_rows, n)) if kernel else None
    return len(pivot_rows), basis


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

    ``kernel`` and ``left_kernel`` are the canonical bases of the right and
    left kernels when the rank is deficient and n <= ``RATIONAL_THRESHOLD``:
    the lifted vectors that certified the rank, or Bareiss's kernels when
    the fallback decided.  Both are None for a full rank and above the
    threshold.
    """

    rank: int
    corank: int
    primes_used: tuple[int, ...]
    rationally_confirmed: bool
    kernel: SubspaceBasis | None
    left_kernel: SubspaceBasis | None


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


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for p < ``_MR_LIMIT``."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def rank_mod_p(a: BiregularMatrix, p: int) -> int:
    """Rank of ``a`` over GF(p).  Never exceeds the rational rank.

    GF(p) needs p prime, so any other modulus is refused; so is one at or
    above ``_MR_LIMIT``, where the primality test is no longer exact.
    """
    if not (p < _MR_LIMIT and _is_prime(p)):
        raise ValueError(f"p must be a prime >= 2 and below {_MR_LIMIT}, got {p}")
    return len(_rank_rows_mod_p(a.row_supports, p))


def rational_rank(a: BiregularMatrix) -> int:
    """Rank over the rationals via fraction-free elimination."""
    return _bareiss(a.row_supports, a.n)[0]


def rank_exact(a: BiregularMatrix) -> RankReport:
    """Exact rank, with both kernels when it is deficient and n is small.

    One rung per prime of ``_PRIMES``, recorded when n <=
    ``RATIONAL_THRESHOLD``.  A modular rank of n proves full rank at once,
    since a modular rank never exceeds the rational rank.  Otherwise, up to
    the threshold, a rung settles the rank and both kernels or hands over to
    the next: the right kernel vectors of its echelon and then the left ones
    of its record (:func:`_left_kernel_mod_p`) are lifted and checked
    exactly, as A x = 0 and y^T A = 0.  Above the threshold two agreeing
    modular ranks decide.  Bareiss is last: one elimination of A gives the
    rank and, up to the threshold, the right kernel, and ``kernel(a,
    "left")`` the left one; it is authoritative, and a modular rank above it
    raises :class:`ConsistencyError`, as does a left kernel whose dimension
    differs from the corank.
    """
    small = a.n <= RATIONAL_THRESHOLD
    ranks = []
    for used, prime in enumerate(_PRIMES, 1):
        echelon = _rank_rows_mod_p(a.row_supports, prime, small)
        r = len(echelon)
        ranks.append(r)
        # above the threshold a full rank mod the second prime after a
        # deficient one mod the first is a disagreement, for Bareiss to settle
        if r == a.n and (small or used == 1):
            return RankReport(r, 0, _PRIMES[:used], small, None, None)
        if small:
            right = _certified_kernel(a, _kernel_mod_p(echelon, a.n, prime), prime)
            left = right and _certified_kernel(
                a, _left_kernel_mod_p(echelon, a.n), prime, left=True
            )
            if left is not None:
                return _report(a, r, _PRIMES[:used], right, left)
    if not small and ranks[0] == ranks[1]:
        return RankReport(r, a.n - r, _PRIMES, False, None, None)
    top = max(ranks)
    rank, right = _bareiss(a.row_supports, a.n, small)
    if rank < top:
        raise ConsistencyError(
            f"modular rank {top} exceeds rational rank {rank} (n={a.n}, d={a.d})"
        )
    if small and rank < a.n:
        return _report(a, rank, _PRIMES, right, kernel(a, "left"))
    return RankReport(rank, a.n - rank, _PRIMES, True, None, None)


def _report(
    a: BiregularMatrix, rank: int, primes: tuple[int, ...], right: SubspaceBasis, left: SubspaceBasis
) -> RankReport:
    """The certified report of a deficient ``rank``, its two kernels cross-checked."""
    if left.dim != a.n - rank:
        raise ConsistencyError(
            f"row rank {a.n - left.dim} != column rank {rank} (n={a.n}, d={a.d})"
        )
    return RankReport(rank, a.n - rank, primes, True, right, left)


def kernel(a: BiregularMatrix, side: str = "right") -> SubspaceBasis:
    """Canonical basis of the right kernel {x : Ax = 0} or left kernel.

    The left kernel is computed as the right kernel of the transpose.  The
    number of vectors equals the corank; each vector satisfies the defining
    equations exactly.
    """
    if side not in ("right", "left"):
        raise ValueError(f'side must be "right" or "left", got {side!r}')
    m = a if side == "right" else a.transpose()
    return _bareiss(m.row_supports, a.n, True)[1]


def f_rows(a: BiregularMatrix, i: int, j: int) -> list[list[int]]:
    """The n - 1 spanning rows of F(A; i, j), dense: every row except i and
    j, then row i + row j.

    A switching on rows i and j moves a one from column k to l in row i and
    from l to k in row j, so it leaves every one of these rows unchanged.
    """
    if not (0 <= i < a.n and 0 <= j < a.n):
        raise IndexError(f"row indices ({i}, {j}) outside [0, {a.n})")
    if i == j:
        raise ValueError(f"F(A; i, j) needs two distinct rows, got i = j = {i}")
    return _dense(_f_supports(a.row_supports, i, j), a.n)


def _f_supports(rows: Sequence[tuple[int, ...]], i: int, j: int) -> tuple[tuple[int, ...], ...]:
    """:func:`f_rows` as row supports: the rows other than i and j in order,
    then the merged row i + j, which lists twice the columns they share."""
    lo, hi = min(i, j), max(i, j)
    return (*rows[:lo], *rows[lo + 1 : hi], *rows[hi + 1 :], tuple(sorted(rows[i] + rows[j])))


def format_vector(x: Sequence[int | Fraction]) -> str:
    """Space-separated ``num/den`` tokens in lowest terms."""
    return " ".join(
        f"{Fraction(v).numerator}/{Fraction(v).denominator}" for v in x
    )
