"""Acceptance gate: the eleven go/no-go checks, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s`. Each test prints
`ACCEPTANCE <k> <name>: PASS|FAIL` and then asserts, so the printed
transcript doubles as the sign-off sheet. Criteria with stated time
budgets assert those budgets too (single-threaded).
"""

import json
import pathlib
import time
from fractions import Fraction

import numpy as np

from dreglab import (
    GridSpec,
    SamplerConfig,
    apply_switch,
    block_diagonal,
    chi_square_uniform,
    compute_KA,
    count_all,
    count_with_bounds,
    count_x_bad,
    draw_sample,
    enumerate_all,
    identity,
    kernel,
    level_sets,
    random_switch,
    rank_exact,
    rank_mod_p,
    rational_rank,
    replay_KA_bound,
    run_grid,
    summarize,
    verify_increase_mechanism,
)
from dreglab.cli import main as cli_main

DATA = pathlib.Path(__file__).parent / "data"


def report(k: int, name: str, ok: bool, extra: str = "") -> None:
    tail = f"  ({extra})" if extra else ""
    print(f"ACCEPTANCE {k:2d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {k} ({name}) failed"


# ─── 1. switching-count lemma, exhaustive ────────────────────────────────────


def test_criterion_01_switch_count_exhaustive():
    t0 = time.monotonic()
    families = (
        [(n, 1) for n in range(2, 7)]
        + [(n, 2) for n in range(3, 7)]
        + [(n, 3) for n in (4, 5)]
    )
    checked = 0
    violations = 0
    for n, d in families:
        lo = n * (n - d) * d * d - n * d * (d - 1) ** 2
        hi = n * (n - d) * d * d
        for m in enumerate_all(n, d):
            total = count_with_bounds(m).total  # raises BoundViolation itself
            if not (lo <= total <= hi):
                violations += 1
            checked += 1
    elapsed = time.monotonic() - t0
    report(
        1,
        "switch-count-lemma",
        violations == 0 and elapsed < 300,
        f"{checked} matrices, {elapsed:.1f}s",
    )


# ─── 2. extremal counts ──────────────────────────────────────────────────────


def test_criterion_02_extremal_counts():
    ok = True
    for n in range(1, 65):
        ok = ok and count_with_bounds(identity(n)).total == n * (n - 1)
    for m in (2, 3, 4):
        for d in (2, 3, 4):
            n = m * d
            ok = ok and count_with_bounds(block_diagonal(m, d)).total == n * (n - d) * d * d
    report(2, "extremal-counts", ok, "identity n<=64, blocks m,d<=4")


# ─── 3. rank-delta law on random pairs ───────────────────────────────────────


def test_criterion_03_rank_delta_law():
    t0 = time.monotonic()
    rng = np.random.default_rng(0xD1CE)
    cfg = SamplerConfig(kind="mcmc")
    pairs = 0
    violations = 0
    recheck = 0
    while pairs < 10_000:
        n = int(rng.integers(10, 61))
        d = int(rng.integers(2, 6))
        a = draw_sample(n, d, cfg, rng)
        rank_a = rational_rank(a)
        for _ in range(20):
            sw = random_switch(a, rng)
            after = apply_switch(a, sw)
            delta = rational_rank(after) - rank_a
            if delta not in (-1, 0, 1):
                violations += 1
            restored = apply_switch(after, sw.reverse())
            if restored != a:
                violations += 1
            if pairs % 97 == 0:
                # independent recomputation of the restored rank: the modular
                # route with its certificate, not Bareiss
                if rank_exact(restored).rank != rank_a:
                    violations += 1
                recheck += 1
            pairs += 1
            if pairs >= 10_000:
                break
    elapsed = time.monotonic() - t0
    report(
        3,
        "rank-delta-law",
        violations == 0 and elapsed < 600,
        f"{pairs} pairs, {recheck} deep rechecks, {elapsed:.0f}s",
    )


# ─── 4. the increase mechanism, exhaustively ─────────────────────────────────


def test_criterion_04_increase_mechanism():
    t0 = time.monotonic()
    checked = 0
    violations = 0
    for n, d in [(4, 2), (5, 2)]:
        for m in enumerate_all(n, d):
            if rational_rank(m) == n:
                continue
            rep = verify_increase_mechanism(m)
            checked += 1
            violations += len(rep.violations)
    elapsed = time.monotonic() - t0
    report(
        4,
        "increase-mechanism",
        violations == 0 and elapsed < 600,
        f"{checked} singular matrices, {elapsed:.1f}s",
    )


# ─── 5. K_A replay ───────────────────────────────────────────────────────────


def test_criterion_05_ka_replay():
    checked = 0
    ok = True
    for n, d in [(4, 2), (5, 2)]:
        for m in enumerate_all(n, d):
            if rational_rank(m) == n:
                continue
            rep = replay_KA_bound(m)
            ka = compute_KA(m)
            ok = ok and all(pair in ka for pair in rep.certified_pairs)
            ok = ok and len(ka) >= rep.bound >= 1
            checked += 1
    report(5, "ka-replay", ok, f"{checked} singular matrices")


# ─── 6. x-bad chain inequality ───────────────────────────────────────────────


def _chain_ok(m, x) -> bool:
    prof = level_sets(x)
    c = count_x_bad(m, x)
    mid = m.d * m.d * sum(s * s for s in prof.sizes)
    return c <= mid <= m.n * prof.max_size * m.d * m.d


def test_criterion_06_x_bad_chain():
    rng = np.random.default_rng(0xBAD)
    values = [Fraction(v) for v in (-2, -1, 0, 1, 2)] + [Fraction(1, 2), Fraction(-1, 3)]
    checked = 0
    ok = True
    # random (matrix, vector) pairs
    cfg = SamplerConfig(kind="mcmc")
    for _ in range(100):
        n = int(rng.integers(4, 13))
        d = int(rng.integers(2, min(n, 5)))
        m = draw_sample(n, d, cfg, rng)
        for _ in range(10):
            x = tuple(values[int(rng.integers(0, len(values)))] for _ in range(n))
            ok = ok and _chain_ok(m, x)
            checked += 1
    # every canonical kernel vector from the criterion-4 families
    for n, d in [(4, 2), (5, 2)]:
        for m in enumerate_all(n, d):
            for x in kernel(m, "right").vectors:
                ok = ok and _chain_ok(m, x)
                checked += 1
    report(6, "x-bad-chain", ok, f"{checked} (matrix, vector) pairs")


# ─── 7. sampler exactness ────────────────────────────────────────────────────


def test_criterion_07_sampler_exactness():
    ok = True
    details = []
    cfg = SamplerConfig()
    for n, d in [(4, 2), (5, 2), (4, 1)]:
        support = list(enumerate_all(n, d))
        rng = np.random.default_rng(300 + n)
        draws = (draw_sample(n, d, cfg, rng) for _ in range(100_000))
        stat, critical, strays = chi_square_uniform(support, draws, 1e-3)
        ok = ok and stat <= critical and strays == 0
        details.append(f"({n},{d}) X2={stat:.1f}<={critical:.1f} over {len(support)}")
    assert count_all(4, 1) == 24  # the d=1 support is the permutation family
    report(7, "sampler-exactness", ok, "; ".join(details))


# ─── 8. linear-algebra oracle agreement ──────────────────────────────────────


def test_criterion_08_linalg_oracles():
    rng = np.random.default_rng(0x01AC)
    cfg = SamplerConfig(max_rejections=100_000)
    ok = True
    singular_seen = 0
    for _ in range(1000):
        n = int(rng.integers(5, 41))
        d = int(rng.integers(1, min(n, 5)))
        a = draw_sample(n, d, cfg, rng)
        rep = rank_exact(a)
        ok = ok and rep.rationally_confirmed and rep.rank == rational_rank(a)
        # modular consensus agrees with the rational answer on fixed primes
        ok = ok and max(rank_mod_p(a, 1_000_003), rank_mod_p(a, 999_983)) == rep.rank
        ok = ok and rational_rank(a.transpose()) == rep.rank
        if rep.corank >= 1:
            singular_seen += 1
            zero = tuple(Fraction(0) for _ in range(a.n))
            for x in kernel(a, "right").vectors:
                ok = ok and tuple(
                    sum(x[t] for t in a.row_supports[s]) for s in range(a.n)
                ) == zero
    report(8, "linalg-oracles", ok, f"1000 matrices, {singular_seen} singular")


# ─── 9. d=1 certainty ────────────────────────────────────────────────────────


def test_criterion_09_d1_certainty():
    grid = GridSpec(pairs=((10, 1), (100, 1)), trials=1000, sampler=SamplerConfig())
    rows = summarize(run_grid(grid, master_seed=9))
    ok = all(row["frac_full_rank"] == 1.0 for row in rows)
    report(9, "d1-certainty", ok, "1000 trials at n=10 and n=100")


# ─── 10. determinism of the estimate pipeline ────────────────────────────────


def test_criterion_10_determinism(tmp_path):
    args = ["estimate", "--pairs", "12:3,9:2", "--trials", "40", "--seed", "424242"]
    blobs = {}
    for tag, workers in [("a", 1), ("b", 1), ("c", 4)]:
        out = tmp_path / tag
        assert cli_main(args + ["--workers", str(workers), "--out", str(out)]) == 0
        blobs[tag] = (
            (tmp_path / f"{tag}.records.jsonl").read_bytes(),
            (tmp_path / f"{tag}.summary.csv").read_bytes(),
        )
    ok = blobs["a"] == blobs["b"] == blobs["c"]
    report(10, "determinism", ok, "2 runs x workers {1,4} byte-identical")


# ─── 11. regression-locked statistics ────────────────────────────────────────


def test_criterion_11_regression_baselines():
    baselines = json.loads((DATA / "regression_baselines.json").read_text())

    sf = baselines["singular_fraction"]
    grid = GridSpec(pairs=((sf["n"], sf["d"]),), trials=sf["trials"], sampler=SamplerConfig())
    records = run_grid(grid, sf["master_seed"])
    done = [r for r in records if r.corank is not None]
    frac = sum(1 for r in done if r.corank >= 1) / len(done)
    ok = sf["wilson_low"] <= frac <= sf["wilson_high"]

    hist = baselines["level_set_histogram"]
    grid = GridSpec(pairs=((hist["n"], hist["d"]),), trials=hist["trials"], sampler=SamplerConfig())
    records = run_grid(grid, hist["master_seed"])
    singular = [r for r in records if r.corank is not None and r.corank >= 1]
    counts: dict[str, int] = {}
    for rec in singular:
        counts[str(rec.max_kernel_level_set)] = counts.get(str(rec.max_kernel_level_set), 0) + 1
    for size, binfo in hist["bins"].items():
        got = counts.get(size, 0) / len(singular)
        ok = ok and binfo["wilson_low"] <= got <= binfo["wilson_high"]
    ok = ok and set(counts) == set(hist["bins"])
    report(
        11,
        "regression-baselines",
        ok,
        f"frac={frac:.4f} in [{sf['wilson_low']:.4f}, {sf['wilson_high']:.4f}]; "
        f"{len(hist['bins'])} histogram bins",
    )
