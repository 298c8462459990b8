"""Samplers and exhaustive enumeration for d-biregular 0/1 matrices.

Three ways to produce matrices:

* ``stub_rejection`` — the directed configuration model: a uniform bijection
  from the n*d out-stubs to the n*d in-stubs, rejected whenever it would
  create a multi-edge.  Conditioned on acceptance the output is *exactly*
  uniform, because every simple matrix is hit by the same number (d!)^(2n)
  of bijections.  The acceptance rate decays roughly like exp(-(d-1)^2/2),
  so this is practical for small d only.
* ``mcmc`` — a lazy random walk on feasible switchings started at the
  circulant, approximately uniform after burn-in.  The step count counts
  *proposals*, not accepted moves, so the walk terminates even when no
  switching is feasible (d = n) and keeps the uniform distribution
  stationary (acceptance-conditioned stopping would bias it).
* ``enumerate_all`` — exhaustive backtracking over row supports with column
  capacity pruning, for ground-truth checks at small sizes.

``draw_sample`` draws with whichever of the two samplers a
:class:`SamplerConfig` names.  Every sampler output passes full
construction-time validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import RejectionBudgetExceeded, SizeGuardError
from .matrix import BiregularMatrix, build, circulant

__all__ = [
    "SamplerConfig",
    "sample_stub",
    "draw_sample",
    "enumerate_all",
    "count_all",
    "chi_square_uniform",
]

_KINDS = ("stub_rejection", "mcmc")


def _require_int(name: str, value: object, low: int) -> None:
    """Refuse a ``value`` that is not an int (a bool is not one) or is below ``low``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class SamplerConfig:
    """How matrices are drawn: the sampler kind and that sampler's own field.

    Each sampler reads its own field, and a config that names the other
    sampler's field is refused: ``max_rejections`` belongs to
    ``stub_rejection`` (None there means 10_000 draws) and ``burn_in_steps``
    to ``mcmc``.  ``burn_in_steps = None`` means the scale-aware default
    10 * n * d^2 proposals.  A burn-in of 0 is allowed and returns the start
    state unchanged.  Every number must be an int; a float, string or bool
    is refused rather than coerced.
    """

    kind: str = "stub_rejection"
    max_rejections: int | None = None
    burn_in_steps: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind == "stub_rejection":
            if self.burn_in_steps is not None:
                raise ValueError("burn_in_steps applies only to the mcmc sampler")
            if self.max_rejections is None:
                object.__setattr__(self, "max_rejections", 10_000)
            _require_int("max_rejections", self.max_rejections, 1)
        elif self.max_rejections is not None:
            raise ValueError("max_rejections applies only to the stub_rejection sampler")
        if self.burn_in_steps is not None:
            _require_int("burn_in_steps", self.burn_in_steps, 0)


@lru_cache(maxsize=16)
def _row_offsets(n: int, d: int) -> np.ndarray:
    """``row * n`` for each of the n * d out-stubs, row = stub // d; read-only."""
    offsets = np.arange(n * d) // d * n
    offsets.flags.writeable = False
    return offsets


def sample_stub(n: int, d: int, rng: np.random.Generator) -> BiregularMatrix | None:
    """One configuration-model draw; ``None`` when a multi-edge came up.

    Out-stub a (of row a // d) is matched to in-stub perm[a] (of column
    perm[a] // d); the draw is rejected iff some row hits a column twice.
    Each stub's key ``column + row * n`` is unique to its (row, column)
    pair, and one flat sort of the keys orders them by row and, within a
    row, by column.  So a row hits a column twice iff two adjacent keys
    are equal, and an accepted draw's keys mod n, as an (n, d) array, are
    each row's columns in increasing order: the array a row-wise
    ``np.sort(axis=1)`` gave, which goes to :func:`build`.  The only random
    draw is the ``permutation``.  One flat sort of n * d keys against n
    sorts of d took a draw from 16.9 to 12.4 us at (128,3) and from 28.3
    to 20.3 us at (256,3) (one core, Python 3.11, numpy 2.4; best of 5
    runs of 3,000 draws); the cached offsets are 2.5 us of that at (128,3).
    """
    keys = rng.permutation(n * d)
    keys //= d
    keys += _row_offsets(n, d)
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        return None
    keys %= n
    return build(n, d, keys.reshape(n, d))


def _walk(rows: list[list[int]], steps: int, rng: np.random.Generator) -> None:
    """Advance the lazy switching walk on mutable row supports by ``steps``
    proposals, in place.

    Slot (i, ki) holds column ``rows[i][ki]``.  A proposal draws two slots,
    (i, ki) holding k and (j, lj) holding l, and swaps their columns unless
    row i already has l or row j already has k.  Column regularity is
    preserved automatically: every switching moves column k from row i to
    row j and column l the other way.  All ``4 * steps`` draws come from one
    ``integers`` call, so the walk's RNG use is fixed by ``steps`` alone.

    Membership lives in an occupancy table, one ``bytearray(n)`` per row:
    ``occ[i][c]`` is 1 iff row i holds column c, n^2 bytes in all.  A
    feasibility test is two byte reads and an accepted move four byte
    stores, where a set per row paid four ``remove``/``add`` method calls.
    Bytes rather than a list of ints keep the table at n^2 bytes, not 8n^2,
    so it stays in cache longer.  Walk alone, against a set per row, on a
    core with 2 MB of L2: 0.68 of the time at (32,8) and 0.8-0.9 at (48,8)
    to (1024,8), (1024,5) and (1024,3).  At n = 2048 the table outgrows
    that cache and the two are about even; at n = 4096 the walk is
    1.1-1.16x slower.
    """
    if steps <= 0:
        return
    n, d = len(rows), len(rows[0])
    occ = [bytearray(n) for _ in range(n)]
    for r, o in zip(rows, occ):
        for c in r:
            o[c] = 1
    draws = rng.integers(0, (n, d, n, d), size=(steps, 4))
    # four column lists: a list per proposal costs allocation and garbage collection
    for i, ki, j, lj in zip(*draws.T.tolist()):
        ri, rj = rows[i], rows[j]
        k = ri[ki]
        l = rj[lj]
        oi, oj = occ[i], occ[j]
        if oi[l] or oj[k]:
            continue  # infeasible proposal: lazy step, stay in place
        ri[ki] = l
        rj[lj] = k
        oi[k] = 0
        oi[l] = 1
        oj[l] = 0
        oj[k] = 1


def _draw(
    n: int, d: int, config: SamplerConfig, rng: np.random.Generator
) -> tuple[BiregularMatrix, int]:
    """One matrix from the sampler ``config`` names, and the stub draws it took.

    ``stub_rejection`` repeats :func:`sample_stub` until a draw is simple, so
    the matrix is exactly uniform and the count is every draw made; it raises
    :class:`RejectionBudgetExceeded` after ``config.max_rejections`` rejected
    matchings.  ``mcmc`` walks from the circulant for ``config.burn_in_steps``
    proposals (None: 10 * n * d^2), approximately uniform, and counts 0.
    """
    if config.kind == "mcmc":
        burn = 10 * n * d * d if config.burn_in_steps is None else config.burn_in_steps
        rows = [list(r) for r in circulant(n, d).row_supports]
        _walk(rows, burn, rng)
        return build(n, d, rows), 0
    for draws in range(1, config.max_rejections + 1):
        a = sample_stub(n, d, rng)
        if a is not None:
            return a, draws
    raise RejectionBudgetExceeded(
        f"no simple matching in {config.max_rejections} draws (n={n}, d={d})"
    )


def draw_sample(
    n: int, d: int, config: SamplerConfig, rng: np.random.Generator
) -> BiregularMatrix:
    """Draw one matrix with whichever sampler the config names.

    The one public function that reads a :class:`SamplerConfig`.
    """
    return _draw(n, d, config, rng)[0]


def enumerate_all(n: int, d: int) -> Iterator[BiregularMatrix]:
    """Stream every d-biregular 0/1 matrix of size n, each exactly once.

    Backtracking over rows: a column whose remaining capacity equals the
    number of unfilled rows must appear in all of them.  The guard admits
    n <= 6 (A(6,2) has 67,950 members), and n <= 8 when d or n - d is at
    most 1 (at most 8! = 40,320 members); anything else, such as (7,2)
    with 3,110,940 or (16,1) with 16!, raises :class:`SizeGuardError` at
    the call, before a member is built.
    """
    if n < 1 or not (1 <= d <= n):
        raise ValueError(f"need 1 <= d <= n, got n={n}, d={d}")
    if n > 6 and (n > 8 or min(d, n - d) > 1):
        raise SizeGuardError(
            f"enumeration of n={n}, d={d} exceeds the size guard"
            " (n <= 6, or n <= 8 with d or n - d at most 1)"
        )

    caps = [d] * n
    chosen: list[tuple[int, ...]] = []

    def rec(s: int) -> Iterator[BiregularMatrix]:
        if s == n:
            yield build(n, d, list(chosen))
            return
        remaining = n - s
        # every capacity is at most ``remaining`` and they sum to d * remaining,
        # so at most d columns are forced and the optional ones can fill the row
        forced = [c for c in range(n) if caps[c] == remaining]
        optional = [c for c in range(n) if 0 < caps[c] < remaining]
        need = d - len(forced)
        for combo in combinations(optional, need):
            support = tuple(sorted(forced + list(combo)))
            for c in support:
                caps[c] -= 1
            chosen.append(support)
            yield from rec(s + 1)
            chosen.pop()
            for c in support:
                caps[c] += 1

    return rec(0)


def count_all(n: int, d: int) -> int:
    """Number of d-biregular 0/1 matrices of size n (full enumeration)."""
    return sum(1 for _ in enumerate_all(n, d))


def chi_square_uniform(
    support: Sequence[BiregularMatrix],
    draws: Iterable[BiregularMatrix],
    significance: float,
) -> tuple[float, float, int]:
    """Pearson chi-square of ``draws`` against the uniform law on ``support``.

    Returns ``(stat, critical, strays)``: the statistic over the members of
    ``support`` (in its order), the upper-``significance`` quantile of the
    chi-square law with ``len(support) - 1`` degrees of freedom (0.0 for a
    one-member family), and the number of draws outside ``support``.  Every
    draw counts towards the expected count, strays included.  Uniformity is
    accepted iff ``stat <= critical`` and ``strays == 0``.  ``significance``
    must lie strictly between 0 and 1.
    """
    if not 0 < significance < 1:
        raise ValueError(f"significance must lie in (0, 1), got {significance}")
    tallies = dict.fromkeys(support, 0)
    samples = strays = 0
    for m in draws:
        samples += 1
        if m in tallies:
            tallies[m] += 1
        else:
            strays += 1
    if samples == 0:
        raise ValueError("chi-square needs at least one draw")
    expected = samples / len(tallies)
    stat = sum((count - expected) ** 2 / expected for count in tallies.values())
    dof = len(tallies) - 1
    if dof == 0:
        return stat, 0.0, strays
    from scipy.stats import chi2  # lazy: nothing else in the package needs scipy

    return stat, float(chi2.ppf(1.0 - significance, dof)), strays
