"""The benchmark's workloads and the closed loops that measure them.

Every loop has one caller and runs serially in this process (the path
``run_grid`` takes with ``workers = 1``).  Inputs are pure functions of the
seed: grid trials use it as ``run_trial``'s master seed, and the verify
sweep uses it to shuffle the members of each enumerated family.

Set-up runs a fixed check set at ``DEFAULT_SEED`` whose records must match a
pinned digest, so every run also checks the program's outputs.  Measured
rounds start after the check set's rounds, so no measured trial repeats a
check-set matrix even when the seed is ``DEFAULT_SEED``; the echelon cache
of ``dreglab.linalg`` therefore never serves a grid trial a matrix from an
earlier trial.
"""

from __future__ import annotations

import hashlib
import random
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from dreglab import experiment, linalg, sampler, verifiers
from dreglab.errors import NoSwitchError, RejectionBudgetExceeded
from dreglab.experiment import TrialRecord
from dreglab.sampler import SamplerConfig

from calibrate import Speed
from tracer import Tracer, median_ms

DEFAULT_SEED = 0
SETUP_REPS = 3  # set-up is repeated and its median reported

CHECK_NAMES = (
    "switch-count-bounds",
    "rank-delta-law",
    "f-invariance",
    "kernel-containment",
    "x-bad-chain",
    "increase-mechanism",
    "ka-replay",
    "qr-relation",
)

# span name -> (module, function).  "linalg.rank_mod_p" wraps the modular
# elimination that both rank_mod_p and rank_exact run.
TRACED = {
    "sampler.draw_sample": ("dreglab.sampler", "draw_sample"),
    "sampler.enumerate_all": ("dreglab.sampler", "enumerate_all"),
    "linalg.rank_exact": ("dreglab.linalg", "rank_exact"),
    "linalg.rank_mod_p": ("dreglab.linalg", "_rank_rows_mod_p"),
    "linalg.rational_rank": ("dreglab.linalg", "rational_rank"),
    "linalg.kernel": ("dreglab.linalg", "kernel"),
    "linalg.f_perp": ("dreglab.linalg", "f_perp"),
    "linalg.spaces_equal": ("dreglab.linalg", "spaces_equal"),
    "linalg.in_span": ("dreglab.linalg", "in_span"),
    "switching.enumerate_switches": ("dreglab.switching", "enumerate_switches"),
    "switching.apply_switch": ("dreglab.switching", "apply_switch"),
    "verifiers.level_sets": ("dreglab.verifiers", "level_sets"),
    "verifiers.run_family_checks": ("dreglab.verifiers", "run_family_checks"),
}
GRID_ROOT = "experiment.run_trial"  # the benchmark's own decomposition of run_trial
VERIFY_ROOT = "verifiers.run_family_checks"
# spans whose total time is reported next to their self time
COMPOSITES = (GRID_ROOT, "linalg.rank_exact", VERIFY_ROOT)


@dataclass(frozen=True)
class Grid:
    """Trials of ``run_trial``; each round runs ``weight`` trials per pair."""

    schedule: tuple[tuple[int, int, int], ...]  # (n, d, weight)
    kind: str
    digest: str  # sha256 prefix of the check-set records at DEFAULT_SEED

    def round(self, r: int) -> list[tuple[int, int, int]]:
        return [(n, d, r * w + k) for n, d, w in self.schedule for k in range(w)]


@dataclass(frozen=True)
class Verify:
    """One sweep runs ``run_family_checks`` over every family in order."""

    # (n, d) -> instances_checked of each check, in CHECK_NAMES order
    instances: dict[tuple[int, int], tuple[int, ...]]

    @property
    def families(self) -> list[tuple[int, int]]:
        return list(self.instances)


# Two sizes per grid.  Their weights put the median and p90 of the trial
# times each inside one dense cluster of times; at 1:1 the median would sit
# in the gap between the two sizes and jump from run to run.
WORKLOADS: dict[str, Grid | Verify] = {
    "grid-kernel": Grid(((40, 2, 2), (60, 2, 1)), "stub_rejection", "92b2990b076db87f"),
    "grid-rank": Grid(((128, 3, 2), (256, 3, 1)), "stub_rejection", "7b6a30d5fda8d38a"),
    "grid-mcmc": Grid(((32, 8, 1), (48, 8, 2)), "mcmc", "7a44e98d37aae49c"),
    # `dreglab verify --n-max 4 --d-max 4` plus the n = 5, d = 5 family.
    "verify-exhaustive": Verify(
        {
            (1, 1): (1, 0, 0, 1, 2, 0, 0, 0),
            (2, 1): (2, 2, 2, 2, 4, 0, 0, 0),
            (2, 2): (1, 0, 0, 1, 3, 1, 1, 0),
            (3, 1): (6, 18, 18, 6, 12, 0, 0, 1),
            (3, 2): (6, 18, 18, 6, 12, 0, 0, 1),
            (3, 3): (1, 0, 0, 3, 4, 1, 1, 1),
            (4, 1): (24, 144, 144, 24, 48, 0, 0, 2),
            (4, 2): (90, 1152, 1152, 540, 288, 90, 90, 2),
            (4, 3): (24, 144, 144, 24, 48, 0, 0, 2),
            (4, 4): (1, 0, 0, 6, 5, 1, 1, 2),
            (5, 5): (1, 0, 0, 10, 6, 1, 1, 3),
        }
    ),
}


@dataclass
class Times:
    """Unit times in seconds, as measured and rescaled to the reference speed."""

    raw: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)

    def add(self, raw: list[float], factor: float) -> None:
        self.raw.extend(raw)
        self.scaled.extend(t * factor for t in raw)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    samples: int = 0  # timed trials (grids) or sweeps (verify); traced ones in a traced run
    metrics: dict[str, float] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)  # end-to-end metrics before rescaling
    shares: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None


def run(name: str, seed: int, seconds: float, trace: bool, speed: Speed, setup: Times) -> Outcome:
    """Set up and measure one workload.

    ``speed`` has timed the reference kernel since before the library was
    imported.  ``setup`` holds the import time; each repetition of the
    workload's own set-up is appended to it.
    """
    spec = WORKLOADS[name]
    if isinstance(spec, Grid):
        return _run_grid(spec, seed, seconds, trace, speed, setup)
    return _run_verify(spec, seed, seconds, trace, speed, setup)


# ─── shared measurements ────────────────────────────────────────────────────


def _percentiles_ms(times: list[float]) -> tuple[float, float]:
    if len(times) == 1:
        return times[0] * 1000.0, times[0] * 1000.0
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    return cuts[4] * 1000.0, cuts[8] * 1000.0


def _end_to_end(trials: list[float], matrices_per_trial: int, setup: list[float], peak_mb: float) -> dict:
    """End-to-end metrics from per-trial times and set-up times (import first)."""
    p50, p90 = _percentiles_ms(trials)
    busy = sum(trials)
    import_s, *reps = setup
    return {
        "trials_per_s": len(trials) / busy,
        "trial_ms_p50": p50,
        "trial_ms_p90": p90,
        "matrices_per_s": len(trials) * matrices_per_trial / busy,
        "setup_s": import_s + statistics.median(reps),
        "peak_rss_mb": peak_mb,
    }


def _report(out: Outcome, times: Times, matrices_per_trial: int, setup: Times) -> None:
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.samples = len(times.scaled)
    out.metrics = _end_to_end(times.scaled, matrices_per_trial, setup.scaled, peak_mb)
    out.raw = _end_to_end(times.raw, matrices_per_trial, setup.raw, peak_mb)


def _layer_metrics(tracer: Tracer) -> dict[str, float]:
    stats = tracer.by_name()
    out: dict[str, float] = {}
    for name in (GRID_ROOT, *TRACED):
        entry = stats.get(name, {"busy": [], "self": [], "items": []})
        out[f"{name}.ms"] = median_ms(entry["self"])
        out[f"{name}.calls"] = len(entry["busy"])
        if name in COMPOSITES:
            out[f"{name}.total_ms"] = median_ms(entry["busy"])
    out["switching.switches_enumerated"] = sum(
        stats.get("switching.enumerate_switches", {"items": []})["items"]
    )
    return out


def _echelon_cache_counts() -> tuple[int, int]:
    info = getattr(getattr(linalg, "_echelon_of", None), "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses


class _Alternation:
    """Untraced and traced units in turn, until the deadline has passed.

    In an untraced run every unit is untraced.  A traced run ends only once
    it has at least one unit of each kind, and compares their mean rescaled
    time to estimate the tracing overhead.
    """

    def __init__(self, seconds: float, trace: bool):
        self.trace = trace
        self.deadline = perf_counter() + seconds
        self.unit_s: dict[bool, list[float]] = {False: [], True: []}
        self.count = 0

    def __iter__(self):
        while True:
            is_traced = self.trace and self.count % 2 == 1
            yield is_traced
            self.count += 1
            if perf_counter() >= self.deadline and (not self.trace or self.unit_s[True]):
                return

    def record(self, is_traced: bool, scaled_s: float) -> None:
        self.unit_s[is_traced].append(scaled_s)

    def overhead(self) -> float:
        return statistics.fmean(self.unit_s[True]) / statistics.fmean(self.unit_s[False]) - 1.0


# ─── grids ──────────────────────────────────────────────────────────────────


def _record_ok(rec: TrialRecord, n: int) -> bool:
    """A sampled matrix, a corank in [0, n], and a level-set size iff kernels were built."""
    if rec.error is not None or rec.corank is None or not 0 <= rec.corank <= n:
        return False
    level = rec.max_kernel_level_set
    if rec.corank == 0 or n > linalg.RATIONAL_THRESHOLD:
        return level is None
    return level is not None and 1 <= level <= n


def _setup_grid(spec: Grid, config: SamplerConfig, speed: Speed, setup: Times) -> bool:
    """Warm up on the check set; True when its records match the pinned digest."""
    lines: list[str] = []
    for r in range(SETUP_REPS):
        start = perf_counter()
        for n, d, t in spec.round(r):
            lines.append(experiment.run_trial(n, d, config, DEFAULT_SEED, t).to_json_line())
        setup.add([perf_counter() - start], speed.factor())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == spec.digest


def _traced_trial(n: int, d: int, config: SamplerConfig, seed: int, t: int) -> tuple[TrialRecord, bool]:
    """run_trial taken apart into its public calls, so each gets a span.

    Returns the rebuilt record and whether kernels were built.  Calls go
    through the module attributes so the installed tracer sees them.
    """
    rng = experiment.trial_rng(seed, n, d, t)
    base = dict(n=n, d=d, kind=config.kind, master_seed=seed, trial_index=t)
    try:
        a = sampler.draw_sample(n, d, config, rng)
    except (RejectionBudgetExceeded, NoSwitchError) as exc:
        return TrialRecord(**base, error=str(exc)), False
    report = linalg.rank_exact(a)
    max_level = None
    built = report.corank >= 1 and n <= linalg.RATIONAL_THRESHOLD
    if built:
        max_level = max(
            verifiers.level_sets(v).max_size
            for side in ("right", "left")
            for v in linalg.kernel(a, side).vectors
        )
    record = TrialRecord(
        **base,
        corank=report.corank,
        rank_confirmed=report.rationally_confirmed,
        max_kernel_level_set=max_level,
    )
    return record, built


def _stub_attempts(n: int, d: int, config: SamplerConfig, seed: int, t: int) -> tuple[int, int]:
    """Replay the trial's stub draws: (attempts, accepted)."""
    rng = experiment.trial_rng(seed, n, d, t)
    for attempt in range(1, config.max_rejections + 1):
        if sampler.sample_stub(n, d, rng) is not None:
            return attempt, 1
    return config.max_rejections, 0


def _run_grid(spec: Grid, seed: int, seconds: float, trace: bool, speed: Speed, setup: Times) -> Outcome:
    config = SamplerConfig(kind=spec.kind)
    digest_ok = _setup_grid(spec, config, speed, setup)
    checked = SETUP_REPS * len(spec.round(0))
    out = Outcome(attempted=checked, failed=0 if digest_ok else checked)

    times = Times()
    traced: list[tuple[int, int, int, TrialRecord]] = []
    tracer = Tracer(TRACED) if trace else None
    kernels_built = hits = misses = 0
    units = _Alternation(seconds, trace)
    for r, is_traced in enumerate(units, start=SETUP_REPS):
        scaled = 0.0
        for n, d, t in spec.round(r):
            if is_traced:
                tracer.trial = f"{n},{d},{t}"
                h0, m0 = _echelon_cache_counts()
                t0 = perf_counter()
                with tracer.installed(), tracer.span(GRID_ROOT):
                    rec, built = _traced_trial(n, d, config, seed, t)
                raw = perf_counter() - t0
                h1, m1 = _echelon_cache_counts()
                hits, misses = hits + h1 - h0, misses + m1 - m0
                traced.append((n, d, t, rec))
                kernels_built += built
            else:
                t0 = perf_counter()
                rec = experiment.run_trial(n, d, config, seed, t)
                raw = perf_counter() - t0
                out.attempted += 1
                out.failed += not _record_ok(rec, n)
            factor = speed.factor()
            scaled += raw * factor
            if not is_traced:
                times.add([raw], factor)
        units.record(is_traced, scaled)

    if not trace:
        _report(out, times, 1, setup)  # one matrix per trial
        return out

    # Untimed checks of the traced trials: the rebuilt record must equal
    # run_trial's byte for byte, and stub draws are replayed to count attempts.
    attempts = accepted = 0
    for n, d, t, rec in traced:
        reference = experiment.run_trial(n, d, config, seed, t)
        out.attempted += 1
        out.failed += rec.to_json_line() != reference.to_json_line() or not _record_ok(rec, n)
        if spec.kind == "stub_rejection":
            a, ok = _stub_attempts(n, d, config, seed, t)
            attempts, accepted = attempts + a, accepted + ok

    out.samples = len(traced)
    out.metrics = _layer_metrics(tracer)
    out.metrics.update(
        {
            "experiment.singular_frac": kernels_built / len(traced),
            "sampler.stub_attempts": attempts,
            "sampler.stub_acceptance": accepted / attempts if attempts else 0.0,
            "linalg.echelon_cache.hits": hits,
            "linalg.echelon_cache.misses": misses,
            "trace.overhead": units.overhead(),
        }
    )
    out.metrics.update({f"verifiers.check.{c}.{k}": 0 for c in CHECK_NAMES for k in ("ms", "instances")})
    out.shares = tracer.shares(GRID_ROOT)
    out.tracer = tracer
    return out


# ─── exhaustive verification ────────────────────────────────────────────────


def _enumerate(spec: Verify) -> list[list]:
    return [list(sampler.enumerate_all(n, d)) for n, d in spec.families]


def _run_verify(spec: Verify, seed: int, seconds: float, trace: bool, speed: Speed, setup: Times) -> Outcome:
    for _ in range(SETUP_REPS):
        start = perf_counter()
        pools = _enumerate(spec)
        setup.add([perf_counter() - start], speed.factor())
    shuffler = random.Random(seed)
    for pool in pools:
        shuffler.shuffle(pool)

    out = Outcome()
    tracer = Tracer(TRACED) if trace else None
    if trace:
        tracer.trial = "setup"
        with tracer.installed():
            _enumerate(spec)

    times = Times()
    check_ms: list[dict[str, int]] = []
    check_instances: dict[str, int] = {}
    hits = misses = 0
    units = _Alternation(seconds, trace)
    for sweep, is_traced in enumerate(units):
        if is_traced:
            tracer.trial = sweep
            h0, m0 = _echelon_cache_counts()
        family_s: list[float] = []
        family_factors: list[float] = []
        reports = []
        for family, pool in zip(spec.families, pools):
            t0 = perf_counter()
            if is_traced:
                with tracer.installed():
                    reps = verifiers.run_family_checks(pool)
            else:
                reps = verifiers.run_family_checks(pool)
            family_s.append(perf_counter() - t0)
            family_factors.append(speed.factor())
            got = tuple(rep.instances_checked for rep in reps)
            out.attempted += 1
            out.failed += any(rep.violations for rep in reps) or got != spec.instances[family]
            reports.append(reps)
        # a sweep's time is the sum of its families' times, each rescaled on its own
        scaled = sum(s * f for s, f in zip(family_s, family_factors))
        units.record(is_traced, scaled)
        if is_traced:
            h1, m1 = _echelon_cache_counts()
            hits, misses = hits + h1 - h0, misses + m1 - m0
        else:
            times.raw.append(sum(family_s))
            times.scaled.append(scaled)
            # per-check cost from CheckReport, on sweeps the tracer did not slow
            check_ms.append(
                {c: sum(r[i].wall_time_ms for r in reports) for i, c in enumerate(CHECK_NAMES)}
            )
            check_instances = {
                c: sum(r[i].instances_checked for r in reports) for i, c in enumerate(CHECK_NAMES)
            }

    if not trace:
        _report(out, times, sum(len(pool) for pool in pools), setup)
        return out

    out.samples = len(units.unit_s[True])
    out.metrics = _layer_metrics(tracer)
    out.metrics.update(
        {
            "experiment.singular_frac": 0.0,
            "sampler.stub_attempts": 0,
            "sampler.stub_acceptance": 0.0,
            "linalg.echelon_cache.hits": hits,
            "linalg.echelon_cache.misses": misses,
            "trace.overhead": units.overhead(),
        }
    )
    for c in CHECK_NAMES:
        out.metrics[f"verifiers.check.{c}.ms"] = statistics.median(s[c] for s in check_ms)
        out.metrics[f"verifiers.check.{c}.instances"] = check_instances[c]
    out.shares = tracer.shares(VERIFY_ROOT)
    out.tracer = tracer
    return out
