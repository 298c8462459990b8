"""Seeded Monte Carlo grids: records, summaries, determinism, Wilson CIs."""

import io
import json
import math

import pytest

import dreglab.experiment as experiment
from dreglab import (
    GridSpec,
    SamplerConfig,
    TrialRecord,
    run_grid,
    run_trial,
    summarize,
    trial_rng,
    wilson_interval,
    write_records,
    write_summary_csv,
    write_summary_json,
)

CFG = SamplerConfig()


# ─── Wilson interval: check against the closed form recomputed here ──────────


def wilson_oracle(k, m, z=1.959963984540054):
    p = k / m
    denom = 1 + z * z / m
    center = (p + z * z / (2 * m)) / denom
    half = z * math.sqrt(p * (1 - p) / m + z * z / (4 * m * m)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def test_wilson_matches_closed_form():
    for k, m in [(0, 10), (10, 10), (3, 17), (900, 1000), (1, 2)]:
        lo, hi = wilson_interval(k, m)
        olo, ohi = wilson_oracle(k, m)
        assert lo == pytest.approx(olo) and hi == pytest.approx(ohi)
        assert 0.0 <= lo <= k / m <= hi <= 1.0


def test_wilson_never_degenerate():
    lo, hi = wilson_interval(0, 5)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(5, 5)
    assert lo < 1.0 and hi == 1.0


def test_wilson_rejects_bad_input():
    with pytest.raises(ValueError):
        wilson_interval(3, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 3)


# ─── trial records ───────────────────────────────────────────────────────────


def test_run_trial_fields():
    rec = run_trial(6, 2, CFG, master_seed=5, trial_index=3)
    assert (rec.n, rec.d, rec.kind) == (6, 2, "stub_rejection")
    assert rec.master_seed == 5 and rec.trial_index == 3
    assert rec.corank is not None and rec.rank_confirmed is True
    if rec.corank >= 1:
        assert rec.max_kernel_level_set >= 1
    else:
        assert rec.max_kernel_level_set is None
    assert rec.wall_time_ms is None  # timings stay off unless asked
    assert rec.error is None


def test_run_trial_reproducible():
    a = run_trial(8, 2, CFG, master_seed=11, trial_index=0)
    b = run_trial(8, 2, CFG, master_seed=11, trial_index=0)
    assert a == b
    c = run_trial(8, 2, CFG, master_seed=11, trial_index=1)
    assert a != c  # different trial index, different stream


def test_trial_rng_streams_disjoint():
    r1 = trial_rng(1, 8, 2, 0).integers(0, 1 << 30, 4).tolist()
    r2 = trial_rng(1, 8, 2, 1).integers(0, 1 << 30, 4).tolist()
    r3 = trial_rng(1, 9, 2, 0).integers(0, 1 << 30, 4).tolist()
    r1b = trial_rng(1, 8, 2, 0).integers(0, 1 << 30, 4).tolist()
    assert r1 == r1b
    assert r1 != r2 and r1 != r3


def test_run_trial_sampler_error_recorded():
    # d = n = 8 cannot be stub-sampled within a tiny budget; the record keeps
    # the failure rather than dropping the trial
    cfg = SamplerConfig(max_rejections=2)
    rec = run_trial(8, 8, cfg, master_seed=0, trial_index=0)
    assert rec.corank is None and rec.error is not None
    line = json.loads(rec.to_json_line())
    assert "error" in line and line["n"] == 8


def test_record_json_shape():
    rec = run_trial(6, 2, CFG, master_seed=5, trial_index=0)
    payload = json.loads(rec.to_json_line())
    expected = {"n", "d", "kind", "master_seed", "trial_index", "corank", "rank_confirmed", "wall_time_ms"}
    if rec.corank and rec.corank >= 1:
        expected.add("max_kernel_level_set")
    assert set(payload) == expected
    assert payload["wall_time_ms"] is None


def test_record_json_line_is_compact():
    rec = run_trial(6, 2, CFG, master_seed=5, trial_index=0)
    assert " " not in rec.to_json_line()


# ─── grids ───────────────────────────────────────────────────────────────────


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(pairs=(), trials=5, sampler=CFG)
    with pytest.raises(ValueError):
        GridSpec(pairs=((4, 2),), trials=0, sampler=CFG)
    with pytest.raises(ValueError):
        GridSpec(pairs=((2, 4),), trials=5, sampler=CFG)  # d > n


def test_grid_spec_refuses_repeated_pair():
    # each (n, d) owns one trial stream, so a repeat would duplicate records
    with pytest.raises(ValueError, match="repeated pair"):
        GridSpec(pairs=((12, 3), (6, 2), (12, 3)), trials=5, sampler=CFG)


_MISTYPED_FIELDS = {
    "trials": lambda v: GridSpec(pairs=((5, 2),), trials=v, sampler=CFG),
    "n": lambda v: GridSpec(pairs=((v, 2),), trials=2, sampler=CFG),
    "d": lambda v: GridSpec(pairs=((5, v),), trials=2, sampler=CFG),
    "max_rejections": lambda v: SamplerConfig(max_rejections=v),
    "burn_in_steps": lambda v: SamplerConfig(kind="mcmc", burn_in_steps=v),
}


@pytest.mark.parametrize(
    "value", [3.0, 2.5, "3", True], ids=["float3.0", "float2.5", "str", "bool"]
)
@pytest.mark.parametrize("field", list(_MISTYPED_FIELDS))
def test_constructors_refuse_mistyped_numbers(field, value):
    # a number is taken as an int or refused, never coerced: 3.0 would pass
    # an int() call and True would count as 1
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        _MISTYPED_FIELDS[field](value)


def test_run_grid_sorted_and_reproducible():
    grid = GridSpec(pairs=((6, 2), (5, 1)), trials=6, sampler=CFG)
    records = run_grid(grid, master_seed=3)
    keys = [(r.n, r.d, r.trial_index) for r in records]
    assert keys == sorted(keys)
    assert len(records) == 12
    again = run_grid(grid, master_seed=3)
    assert records == again


def test_run_grid_workers_equivalent():
    grid = GridSpec(pairs=((6, 2),), trials=8, sampler=CFG)
    assert run_grid(grid, master_seed=9, workers=1) == run_grid(grid, master_seed=9, workers=4)


class _SerialPool:
    """Stands in for a process pool: maps in this process, starting none."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, func, tasks, chunksize=1):
        return map(func, tasks)


@pytest.mark.parametrize("workers, trials, sizes", [(64, 2, [2]), (3, 8, [3]), (64, 1, [])])
def test_run_grid_starts_at_most_one_process_per_trial(monkeypatch, workers, trials, sizes):
    asked = []

    class FakeContext:
        def Pool(self, k):
            asked.append(k)
            return _SerialPool()

    monkeypatch.setattr(experiment, "get_context", FakeContext)
    grid = GridSpec(pairs=((6, 2),), trials=trials, sampler=CFG)
    assert run_grid(grid, master_seed=9, workers=workers) == run_grid(grid, master_seed=9)
    assert asked == sizes


@pytest.mark.parametrize("workers", [0, -1, 1.0, True])
def test_run_grid_refuses_bad_worker_count(workers):
    grid = GridSpec(pairs=((6, 2),), trials=2, sampler=CFG)
    with pytest.raises(ValueError, match="workers"):
        run_grid(grid, master_seed=9, workers=workers)


def test_summarize_exact_fractions():
    recs = [
        TrialRecord(n=4, d=2, kind="stub_rejection", master_seed=0, trial_index=i,
                    corank=c, rank_confirmed=True,
                    max_kernel_level_set=(2 if c else None))
        for i, c in enumerate([0, 0, 1, 2, 0])
    ]
    row = summarize(recs)[0]
    assert row["n"] == 4 and row["trials"] == 5
    assert row["frac_full_rank"] == pytest.approx(3 / 5)
    assert row["frac_corank_le_1"] == pytest.approx(4 / 5)
    assert row["frac_singular"] == pytest.approx(2 / 5)
    lo, hi = wilson_oracle(4, 5)
    assert row["wilson_ci_low"] == pytest.approx(lo)
    assert row["wilson_ci_high"] == pytest.approx(hi)


def test_summarize_skips_errored_trials_in_fractions():
    ok = TrialRecord(n=8, d=8, kind="stub_rejection", master_seed=0, trial_index=0,
                     corank=0, rank_confirmed=True)
    bad = TrialRecord(n=8, d=8, kind="stub_rejection", master_seed=0, trial_index=1,
                      error="rejection budget exhausted")
    row = summarize([ok, bad])[0]
    assert row["trials"] == 2
    assert row["frac_full_rank"] == 1.0  # over the one completed trial


def test_write_records_and_summary_formats():
    grid = GridSpec(pairs=((5, 1),), trials=3, sampler=CFG)
    records = run_grid(grid, master_seed=1)
    buf = io.StringIO()
    write_records(records, buf)
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 3 and all(json.loads(ln)["d"] == 1 for ln in lines)

    rows = summarize(records)
    csv_buf = io.StringIO()
    write_summary_csv(rows, csv_buf)
    text = csv_buf.getvalue()
    assert text.splitlines()[0] == (
        "n,d,trials,frac_full_rank,frac_corank_le_1,frac_singular,"
        "wilson_ci_low,wilson_ci_high"
    )
    assert text.splitlines()[1].startswith("5,1,3,")

    json_buf = io.StringIO()
    write_summary_json(rows, json_buf)
    parsed = json.loads(json_buf.getvalue())
    assert parsed[0]["frac_full_rank"] == 1.0
