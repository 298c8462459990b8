"""Seeded Monte Carlo estimation of corank statistics over (n, d) grids.

Every trial is a pure function of (master_seed, n, d, trial_index, sampler
config): the per-trial RNG is PCG64 seeded with
``SeedSequence(master_seed, spawn_key=(n, d, trial_index))``, so results are
identical no matter how trials are scheduled across workers.  Records are
sorted by (n, d, trial_index) before writing and timing is omitted unless
explicitly requested, which makes output files byte-identical across runs
and worker counts.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from multiprocessing import get_context
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import RejectionBudgetExceeded
from .linalg import rank_exact
from .sampler import SamplerConfig, _require_int, draw_sample
from .verifiers import level_sets

__all__ = [
    "TrialRecord",
    "GridSpec",
    "Z95",
    "wilson_interval",
    "trial_rng",
    "run_trial",
    "run_grid",
    "summarize",
    "write_records",
    "write_summary_csv",
    "write_summary_json",
    "SUMMARY_COLUMNS",
]

# Two-sided 95% normal quantile, fixed so intervals never depend on scipy.
Z95 = 1.959963984540054

SUMMARY_COLUMNS = (
    "n",
    "d",
    "trials",
    "frac_full_rank",
    "frac_corank_le_1",
    "frac_singular",
    "wilson_ci_low",
    "wilson_ci_high",
)


@dataclass(frozen=True)
class TrialRecord:
    """One sampled matrix reduced to its rank statistics.

    ``max_kernel_level_set`` is present only when the sample is singular
    and small enough for exact kernels; ``error`` carries a sampler
    failure (budget exhaustion) instead of silently dropping the trial.
    ``wall_time_ms`` is None unless timings were requested: real timings
    are non-deterministic and would break byte-identical reruns.  JSON
    lines follow the declaration order.
    """

    n: int
    d: int
    kind: str
    master_seed: int
    trial_index: int
    corank: int | None = None
    rank_confirmed: bool | None = None
    max_kernel_level_set: int | None = None
    wall_time_ms: int | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("max_kernel_level_set", "error") and value is None:
                continue  # these two are omitted entirely rather than null
            out[f.name] = value
        return out

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


@dataclass(frozen=True)
class GridSpec:
    """A grid of (n, d) pairs with a trial count and sampler configuration.

    The master seed, worker count and output path are run settings and come
    from the caller.  Every number must be an int; any other type is refused
    rather than coerced.
    """

    pairs: tuple[tuple[int, int], ...]
    trials: int
    sampler: SamplerConfig

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("grid needs at least one (n, d) pair")
        seen = set()
        for n, d in self.pairs:
            _require_int("n", n, 1)
            _require_int("d", d, 1)
            if d > n:
                raise ValueError(f"invalid pair (n={n}, d={d})")
            if (n, d) in seen:  # one trial stream per pair: a repeat would duplicate it
                raise ValueError(f"repeated pair (n={n}, d={d})")
            seen.add((n, d))
        _require_int("trials", self.trials, 1)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval (z = Z95) for a binomial proportion; contains k/t."""
    if trials < 1:
        raise ValueError("wilson_interval needs at least one trial")
    if not (0 <= successes <= trials):
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    lo = max(0.0, center - half)
    hi = min(1.0, center + half)
    # the endpoints are exact at the boundary proportions; don't let float
    # rounding push phat outside its own interval
    if successes == 0:
        lo = 0.0
    if successes == trials:
        hi = 1.0
    return (lo, hi)


def trial_rng(master_seed: int, n: int, d: int, trial_index: int) -> np.random.Generator:
    """The PCG64 generator owned by one trial; pure function of its key."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(n, d, trial_index))
    return np.random.Generator(np.random.PCG64(seq))


def run_trial(
    n: int,
    d: int,
    config: SamplerConfig,
    master_seed: int,
    trial_index: int,
    *,
    timings: bool = False,
) -> TrialRecord:
    """Sample one matrix and reduce it to a :class:`TrialRecord`."""
    start = time.perf_counter()
    rng = trial_rng(master_seed, n, d, trial_index)
    base = dict(
        n=n, d=d, kind=config.kind, master_seed=master_seed, trial_index=trial_index
    )
    try:
        a = draw_sample(n, d, config, rng)
    except RejectionBudgetExceeded as exc:
        elapsed = int((time.perf_counter() - start) * 1000) if timings else None
        return TrialRecord(**base, error=str(exc), wall_time_ms=elapsed)

    report = rank_exact(a)
    max_level: int | None = None
    if report.kernel is not None:
        max_level = max(
            level_sets(v).max_size
            for v in report.kernel.vectors + report.left_kernel.vectors
        )
    elapsed = int((time.perf_counter() - start) * 1000) if timings else None
    return TrialRecord(
        **base,
        corank=report.corank,
        rank_confirmed=report.rationally_confirmed,
        max_kernel_level_set=max_level,
        wall_time_ms=elapsed,
    )


def _trial_task(args: tuple) -> TrialRecord:
    n, d, config, master_seed, trial_index, timings = args
    return run_trial(
        n, d, config, master_seed, trial_index, timings=timings
    )


def run_grid(
    grid: GridSpec, master_seed: int, *, workers: int = 1, timings: bool = False
) -> list[TrialRecord]:
    """All trials of a grid, sorted by (n, d, trial_index).

    With ``workers > 1`` trials are distributed over a process pool of at
    most one process per trial; scheduling cannot change any record because
    each trial owns a key-derived generator.
    """
    _require_int("workers", workers, 1)
    tasks = [
        (n, d, grid.sampler, master_seed, t, timings)
        for (n, d) in grid.pairs
        for t in range(grid.trials)
    ]
    workers = min(workers, len(tasks))
    if workers == 1:
        records = [_trial_task(task) for task in tasks]
    else:
        chunk = max(1, len(tasks) // (workers * 8))
        with get_context().Pool(workers) as pool:
            records = list(pool.imap_unordered(_trial_task, tasks, chunksize=chunk))
    records.sort(key=lambda r: (r.n, r.d, r.trial_index))
    return records


def summarize(records: Iterable[TrialRecord]) -> list[dict]:
    """Per-(n, d) corank fractions with a 95% Wilson interval.

    Fractions are over trials that produced a matrix; trials that errored
    (sampler budget) appear in the records but not in the denominators.
    The interval covers ``frac_corank_le_1``, the empirical counterpart of
    the near-full-rank probability.
    """
    by_pair: dict[tuple[int, int], list[TrialRecord]] = {}
    for rec in records:
        by_pair.setdefault((rec.n, rec.d), []).append(rec)
    rows = []
    for (n, d) in sorted(by_pair):
        recs = by_pair[(n, d)]
        done = [r for r in recs if r.corank is not None]
        total = len(done)
        if total == 0:
            continue
        full = sum(1 for r in done if r.corank == 0)
        le1 = sum(1 for r in done if r.corank <= 1)
        low, high = wilson_interval(le1, total)
        rows.append(
            {
                "n": n,
                "d": d,
                "trials": len(recs),
                "frac_full_rank": full / total,
                "frac_corank_le_1": le1 / total,
                "frac_singular": (total - full) / total,
                "wilson_ci_low": low,
                "wilson_ci_high": high,
            }
        )
    return rows


def write_records(records: Iterable[TrialRecord], fp: TextIO) -> None:
    for rec in records:
        fp.write(rec.to_json_line())
        fp.write("\n")


def write_summary_csv(rows: Sequence[dict], fp: TextIO) -> None:
    fp.write(",".join(SUMMARY_COLUMNS))
    fp.write("\n")
    for row in rows:
        fp.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in SUMMARY_COLUMNS))
        fp.write("\n")


def write_summary_json(rows: Sequence[dict], fp: TextIO) -> None:
    fp.write(json.dumps(list(rows), indent=2))
    fp.write("\n")
