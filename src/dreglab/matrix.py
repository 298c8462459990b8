"""0/1 matrices with exactly d ones in every row and every column.

Matrices are stored by row support (sorted tuples of column indices), which
is the natural representation for adjacency matrices of d-regular directed
graphs on n vertices: loops are allowed, multi-edges are not.  The row
supports are the whole matrix; :meth:`BiregularMatrix.transpose` derives
the column supports when they are needed.

The text format is line-oriented and bit-stable for golden-file tests::

    n d\\n
    <row 0: d sorted column indices, space-separated>\\n
    ...
    <row n-1>\\n

The identity at n=2 serializes as ``"2 1\\n0\\n1\\n"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    ColDegreeError,
    DuplicateIndexError,
    ParseError,
    RowDegreeError,
)

__all__ = [
    "BiregularMatrix",
    "build",
    "circulant",
    "identity",
    "all_ones",
    "block_diagonal",
    "serialize",
    "parse",
]


class _KeptHash:
    """The slot in which a :class:`BiregularMatrix` keeps its hash.

    A set or Counter of matrices hashes each member many times, and the
    tuple hash walks every row, so the hash is kept on first use.  Being a
    slot, not a field, it is neither compared nor pickled.  With it a
    matrix carries no ``__dict__``: 64 bytes a matrix, where the dict
    layout took 96 (tracemalloc over 2,000 (5,2) matrices, Python 3.11),
    and ``verify --n-max 6 --d-max 6`` peaked at 669 MB, not 682 MB.
    """

    __slots__ = ("_hash",)


@dataclass(frozen=True, slots=True)
class BiregularMatrix(_KeptHash):
    """Immutable n-by-n 0/1 matrix with d ones per row and per column.

    Instances compare and hash by (n, d, row_supports); the hash is
    computed on first use and kept.  Use :func:`build` rather than the
    constructor so the biregularity invariants are actually checked.
    """

    n: int
    d: int
    row_supports: tuple[tuple[int, ...], ...]

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)  # the slot is empty until first use
        if h is None:
            h = hash((self.n, self.d, self.row_supports))
            object.__setattr__(self, "_hash", h)
        return h

    def entry(self, s: int, t: int) -> int:
        """Return the (s, t) entry as 0 or 1.  Indices must lie in [0, n)."""
        if not (0 <= s < self.n and 0 <= t < self.n):
            raise IndexError(f"entry ({s}, {t}) outside [0, {self.n})^2")
        return 1 if t in self.row_supports[s] else 0

    def transpose(self) -> "BiregularMatrix":
        """The transpose, which is again d-biregular."""
        cols: list[list[int]] = [[] for _ in range(self.n)]
        for s, support in enumerate(self.row_supports):
            for t in support:
                cols[t].append(s)  # rows visited in order, so each column comes out sorted
        return BiregularMatrix(self.n, self.d, tuple(map(tuple, cols)))

    def ones(self) -> Iterator[tuple[int, int]]:
        """Iterate the positions of all n*d one-entries in row-major order."""
        for s, support in enumerate(self.row_supports):
            for t in support:
                yield (s, t)

    def __repr__(self) -> str:  # keep failure output readable for small n
        return f"BiregularMatrix(n={self.n}, d={self.d}, rows={self.row_supports})"


# Entries from which build checks an (n, d) array in bulk: its numpy calls
# cost about 10 us, more than the per-row loop below about 32 entries.
_BULK_MIN = 32


def build(n: int, d: int, rows: Iterable[Iterable[int]] | np.ndarray) -> BiregularMatrix:
    """Validate row supports and construct a :class:`BiregularMatrix`.

    Raises ``ValueError`` for bad (n, d) or a wrong number of rows,
    ``IndexError`` for out-of-range column indices,
    :class:`DuplicateIndexError` for repeated indices within a row,
    :class:`RowDegreeError` / :class:`ColDegreeError` for degree failures.

    ``rows`` is either an iterable of rows or an (n, d) integer ndarray.
    From ``_BULK_MIN`` entries on, the array is checked in bulk, with a
    handful of numpy calls: every row strictly increasing, its first and
    last entries in [0, n), and every column d times by ``np.bincount``.
    A stub draw hands over its sorted array, and ``build`` then takes 25 us where ``tolist()`` and the loop
    took 107-117 us at (128,3), and 41 us where they took 237-258 us at
    (256,3) (one Xeon core, Python 3.11, numpy 2.4).  A smaller array, or
    one that fails a bulk check or is not an (n, d) integer array, goes
    through the per-row loop as its ``tolist()``: a fault raises what the
    same rows as lists raise, and a valid array with unsorted rows is
    accepted.  Either way the rows come out as tuples of Python ints.  The
    loop takes 4.6 us at (4,2), where the bulk checks take 9.7 us, and the
    300,000 small stub draws of the sampler-exactness criterion took about
    1 s longer in bulk.  Enumeration, ``parse``, the walk and the
    switchings hand over lists.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (1 <= d <= n):
        raise ValueError(f"d must satisfy 1 <= d <= n, got d={d}, n={n}")
    if isinstance(rows, np.ndarray):
        if (
            n * d >= _BULK_MIN
            and rows.shape == (n, d)
            and rows.dtype.kind in "iu"
            and (rows[:, 1:] > rows[:, :-1]).all()
            # rows strictly increase, so their ends bound every index, and
            # bincount below allocates n bins, not one per value up to a stray
            and rows[:, 0].min() >= 0
            and rows[:, -1].max() < n
            and (np.bincount(rows.ravel().astype(np.intp, copy=False), minlength=n) == d).all()
        ):
            return BiregularMatrix(n, d, tuple(map(tuple, rows.tolist())))
        rows = rows.tolist()
    row_list = [tuple(r) for r in rows]
    if len(row_list) != n:
        raise ValueError(f"expected {n} rows, got {len(row_list)}")

    col_count = [0] * n
    normalized: list[tuple[int, ...]] = []
    for s, support in enumerate(row_list):
        for t in support:
            if not (0 <= t < n):
                raise IndexError(f"row {s}: column index {t} outside [0, {n})")
        dedup = set(support)
        if len(dedup) != len(support):
            raise DuplicateIndexError(f"row {s}: duplicate column index in {support}")
        if len(support) != d:
            raise RowDegreeError(f"row {s}: {len(support)} entries, expected {d}")
        ordered = tuple(sorted(support))
        normalized.append(ordered)
        for t in ordered:
            col_count[t] += 1

    for t, c in enumerate(col_count):
        if c != d:
            raise ColDegreeError(f"column {t}: {c} entries, expected {d}")
    return BiregularMatrix(n, d, tuple(normalized))


def circulant(n: int, d: int) -> BiregularMatrix:
    """Row s has ones at columns s, s+1, ..., s+d-1 modulo n.

    For d=1 this is the identity; for d=n the all-ones matrix.
    """
    rows = [
        tuple(sorted((s + off) % n for off in range(d)))
        for s in range(n)
    ]
    return build(n, d, rows)


def identity(n: int) -> BiregularMatrix:
    """The n-by-n identity (the d=1 circulant)."""
    return circulant(n, 1)


def all_ones(n: int) -> BiregularMatrix:
    """The n-by-n all-ones matrix (d = n)."""
    return circulant(n, n)


def block_diagonal(m: int, d: int) -> BiregularMatrix:
    """Block-diagonal matrix with m dense d-by-d all-ones blocks (n = m*d).

    Every row in block b has support {b*d, ..., b*d + d - 1}; each block
    contributes corank d-1, so the rank is exactly m.
    """
    if m < 1 or d < 1:
        raise ValueError(f"need m >= 1 and d >= 1, got m={m}, d={d}")
    n = m * d
    block = [tuple(range(b * d, (b + 1) * d)) for b in range(m)]
    rows = [block[s // d] for s in range(n)]
    return build(n, d, rows)


def serialize(a: BiregularMatrix) -> str:
    """Render the line-oriented text form (header, then one row per line)."""
    lines = [f"{a.n} {a.d}"]
    lines.extend(" ".join(str(t) for t in support) for support in a.row_supports)
    return "\n".join(lines) + "\n"


def parse(text: str) -> BiregularMatrix:
    """Parse the text form back into a matrix.

    Every fault of the text raises :class:`ParseError`, with its place: a
    missing trailing newline, a bad header or line count, a bad token, a
    column index outside [0, n) or unsorted indices (line and token), a row
    without d entries (line), and a column without d entries (its index).
    """
    if not text.endswith("\n"):
        raise ParseError("missing trailing newline")
    lines = text.split("\n")[:-1]  # drop the empty tail produced by the final \n

    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"header must be 'n d', got {lines[0]!r}", line=1)
    try:
        n, d = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"non-integer header token in {lines[0]!r}", line=1) from exc
    if n < 1 or not (1 <= d <= n):
        raise ParseError(f"invalid dimensions n={n}, d={d}", line=1)
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} row lines, got {len(lines) - 1}")

    rows: list[tuple[int, ...]] = []
    for s in range(n):
        tokens = lines[s + 1].split()
        support: list[int] = []
        for pos, tok in enumerate(tokens):
            try:
                t = int(tok)
            except ValueError as exc:
                raise ParseError(
                    f"non-integer column index {tok!r}", line=s + 2, position=pos
                ) from exc
            if not 0 <= t < n:
                raise ParseError(f"column index {t} outside [0, {n})", line=s + 2, position=pos)
            support.append(t)
        for pos in range(1, len(support)):
            if support[pos] <= support[pos - 1]:
                raise ParseError(
                    "column indices must be strictly increasing",
                    line=s + 2,
                    position=pos,
                )
        if len(support) != d:
            raise ParseError(f"{len(support)} entries, expected {d}", line=s + 2)
        rows.append(tuple(support))
    try:
        return build(n, d, rows)
    except ColDegreeError as exc:  # the rows are well formed, so only a column can fail
        raise ParseError(str(exc)) from None

