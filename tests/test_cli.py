"""End-to-end CLI behaviour: outputs, determinism, exit codes."""

import json
import pathlib

import pytest

from dreglab import (
    ConsistencyError,
    SamplerConfig,
    WitnessConstructionError,
    circulant,
    cli,
    identity,
    linalg,
    parse,
    run_trial,
    sampler,
    serialize,
    verifiers,
)
from dreglab.cli import main

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ─── estimate ────────────────────────────────────────────────────────────────


def test_estimate_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--pairs", "5:1,6:2", "--trials", "4", "--seed", "3"
    )
    assert code == 0
    lines = out.strip().split("\n")
    records = [json.loads(ln) for ln in lines[:8]]
    assert [(r["n"], r["d"], r["trial_index"]) for r in records] == [
        (5, 1, 0), (5, 1, 1), (5, 1, 2), (5, 1, 3),
        (6, 2, 0), (6, 2, 1), (6, 2, 2), (6, 2, 3),
    ]
    assert lines[8].startswith("n,d,trials,")
    assert len(lines) == 11


def test_estimate_files_and_determinism(tmp_path, capsys):
    args = ["estimate", "--pairs", "6:2", "--trials", "10", "--seed", "123"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (
        (tmp_path / "a.records.jsonl").read_bytes()
        == (tmp_path / "b.records.jsonl").read_bytes()
    )
    assert (
        (tmp_path / "a.summary.csv").read_bytes()
        == (tmp_path / "b.summary.csv").read_bytes()
    )


def test_estimate_records_match_golden(tmp_path):
    # pinned records of a grid that straddles RATIONAL_THRESHOLD: two of the
    # n = 130 samples are singular, and their ranks come from the primes alone
    args = ["estimate", "--pairs", "40:2,60:2,12:3,130:3", "--trials", "100", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "e")]) == 0
    golden = (DATA / "estimate_seed5.records.jsonl").read_bytes()
    assert (tmp_path / "e.records.jsonl").read_bytes() == golden


def test_estimate_workers_do_not_change_bytes(tmp_path):
    base = ["estimate", "--pairs", "6:2", "--trials", "8", "--seed", "7"]
    one = tmp_path / "w1"
    four = tmp_path / "w4"
    assert main(base + ["--workers", "1", "--out", str(one)]) == 0
    assert main(base + ["--workers", "4", "--out", str(four)]) == 0
    assert (
        (tmp_path / "w1.records.jsonl").read_bytes()
        == (tmp_path / "w4.records.jsonl").read_bytes()
    )


def test_estimate_refuses_repeated_pair(capsys):
    # a repeated pair would run its trials twice and count them as 2x trials
    code, out, err = run_cli(capsys, "estimate", "--pairs", "12:3,12:3", "--trials", "3")
    assert code == 2 and out == ""
    assert "repeated pair" in err


@pytest.mark.parametrize(
    "pairs, token", [("12", "12"), ("12:3:4", "12:3:4"), ("12:3,", ""), ("5:1,x:2", "x:2")]
)
def test_estimate_refuses_malformed_pairs(pairs, token, capsys):
    code, out, err = run_cli(capsys, "estimate", "--pairs", pairs, "--trials", "2")
    assert code == 2 and out == ""
    assert err == f"error: --pairs token {token!r} is not of the form n:d\n"


def test_estimate_json_summary(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--pairs", "5:1", "--trials", "2", "--seed", "0",
        "--format", "json",
    )
    assert code == 0
    summary_start = out.index("[")
    rows = json.loads(out[summary_start:])
    assert rows[0]["n"] == 5 and rows[0]["frac_singular"] == 0.0


def test_estimate_usage_errors(capsys):
    # the grid has no default: a missing --pairs or --trials is a usage error
    for argv, missing in ((["--pairs", "5:1"], "--trials"), (["--trials", "2"], "--pairs")):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"required: {missing}" in captured.err


def test_estimate_refuses_a_grid_file(tmp_path, monkeypatch, capsys):
    # the grid comes from --pairs, --trials and the sampler flags alone
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(json.dumps({"pairs": [[5, 2]], "trials": 2}))
    for grid in ([], ["--pairs", "5:2", "--trials", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", *grid, "--config", "g.json", "--seed", "1", "--out", "g"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --config g.json" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]


def test_estimate_timings_flag(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--pairs", "5:1", "--trials", "1", "--seed", "1",
        "--timings",
    )
    assert code == 0
    rec = json.loads(out.strip().split("\n")[0])
    assert isinstance(rec["wall_time_ms"], int)


# ─── verify ──────────────────────────────────────────────────────────────────


def test_verify_small_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "3", "--d-max", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_violations"] == 0
    seen = [(f["n"], f["d"]) for f in payload["families"]]
    assert seen == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]
    for fam in payload["families"]:
        # the family's own cost covers its checks' summed cost
        assert list(fam) == ["n", "d", "wall_time_ms", "checks"]
        assert fam["wall_time_ms"] >= sum(check["wall_time_ms"] for check in fam["checks"])
        for check in fam["checks"]:
            assert check["violations"] == 0
            assert isinstance(check["wall_time_ms"], int)


def _without_wall_times(obj):
    if isinstance(obj, dict):
        return {k: _without_wall_times(v) for k, v in obj.items() if k != "wall_time_ms"}
    if isinstance(obj, list):
        return [_without_wall_times(v) for v in obj]
    return obj


def _verify_report(capsys, n_max):
    code, out, _ = run_cli(capsys, "verify", "--n-max", n_max, "--d-max", n_max)
    assert code == 0
    return json.dumps(_without_wall_times(json.loads(out)), indent=2) + "\n"


def test_verify_report_matches_golden(capsys):
    # pins every family's per-check instance counts, violations and witnesses
    assert _verify_report(capsys, "4") == (DATA / "verify_n4_d4.json").read_text()


def test_verify_n5_report_matches_golden(capsys):
    # the only pin on (5,2) and (5,3), the largest families verify can sweep
    assert _verify_report(capsys, "5") == (DATA / "verify_n5_d5.json").read_text()


@pytest.mark.parametrize(
    "n_max, d_max", [("0", "1"), ("3", "0"), ("-1", "2"), ("2", "-3")]
)
def test_verify_refuses_empty_range(n_max, d_max, capsys):
    # a range that holds no family would print "families": [] and pass
    code, out, err = run_cli(capsys, "verify", "--n-max", n_max, "--d-max", d_max)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "1", "--d-max", "1", "--C", "1/0"],
        ["deloc-stats", "--n", "4", "--d", "2", "--trials", "2", "--C", "1/0"],
    ],
)
def test_zero_denominator_C_is_a_usage_error(argv, capsys):
    # Fraction("1/0") raises ZeroDivisionError, which must not escape as exit 1
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "zero denominator" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "2", "--d-max", "2", "--C", "1e400"],
        ["deloc-stats", "--n", "4", "--d", "2", "--trials", "2", "--C", "1e400"],
    ],
)
def test_C_beyond_float_range_is_a_usage_error(argv, capsys):
    # float(C) would raise OverflowError in the level-set bound
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "too large" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "2", "--d-max", "1", "--workers", "2"],
        ["verify", "--n-max", "2", "--d-max", "1", "--seed", "1"],
        ["sampler-test", "--n", "3", "--d", "1", "--samples", "6", "--workers", "2"],
        ["deloc-stats", "--n", "4", "--d", "2", "--trials", "2", "--format", "json"],
        ["enumerate", "--n", "2", "--d", "1", "--seed", "1"],
        ["rank", "m.txt", "--workers", "2"],
        ["estimate", "--pairs", "5:2", "--trials", "2", "--kind", "mcmc",
         "--spacing", "3"],
        ["sampler-test", "--n", "3", "--d", "2", "--samples", "6", "--kind", "mcmc",
         "--spacing", "3"],
    ],
)
def test_ignored_flags_are_refused(argv, capsys):
    # a flag the subcommand would not read is a usage error, not a no-op
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--pairs", "5:2", "--trials", "2", "--burn-in", "5"],
        ["estimate", "--pairs", "5:2", "--trials", "2", "--kind", "mcmc",
         "--max-rejections", "5"],
        ["sampler-test", "--n", "3", "--d", "2", "--samples", "60", "--burn-in", "7"],
        ["sampler-test", "--n", "3", "--d", "2", "--samples", "60",
         "--kind", "stub_rejection", "--burn-in", "7"],
        ["deloc-stats", "--n", "4", "--d", "2", "--trials", "2", "--burn-in", "5"],
        ["deloc-stats", "--n", "4", "--d", "2", "--trials", "2", "--kind", "mcmc",
         "--max-rejections", "5"],
        ["estimate", "--pairs", "5:2", "--trials", "2", "--kind", "stub_rejection",
         "--burn-in", "5"],
        ["deloc-stats", "--n", "4", "--d", "2", "--trials", "2",
         "--kind", "stub_rejection", "--burn-in", "5"],
        # a flag the kind reads does not excuse one beside it that it would not
        ["estimate", "--pairs", "5:2", "--trials", "2", "--kind", "mcmc",
         "--burn-in", "5", "--max-rejections", "5"],
        ["sampler-test", "--n", "3", "--d", "2", "--samples", "60", "--kind", "mcmc",
         "--max-rejections", "5"],
    ],
)
def test_sampler_flags_without_effect_are_refused(argv, capsys):
    # the stub sampler reads no burn-in, and the walk no rejection budget
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def _refuse_work(monkeypatch):
    # a refusal must come before any sample is drawn or any rank computed
    def started(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("run_grid", "enumerate_all", "rank_exact"):
        monkeypatch.setattr(cli, name, started)


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--pairs", "5:2", "--trials", "2"],
        ["sampler-test", "--n", "3", "--d", "2", "--samples", "6"],
        ["deloc-stats", "--n", "4", "--d", "2", "--trials", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_outside_u64_is_a_usage_error(argv, seed, monkeypatch, capsys):
    _refuse_work(monkeypatch)
    code, out, err = run_cli(capsys, *argv, "--seed", seed)
    assert code == 2 and out == ""
    assert err == f"error: seed must fit in u64, got {seed}\n"


def test_deloc_stats_size_guard(monkeypatch, capsys):
    # exact kernels stop at n = 128, so n = 129 is refused before any trial
    _refuse_work(monkeypatch)
    code, out, err = run_cli(capsys, "deloc-stats", "--n", "129", "--d", "3", "--trials", "1")
    assert code == 3 and out == ""
    assert err.startswith("size guard: ")


@pytest.mark.parametrize(
    "text", ["x 2\n0 1\n0 1\n", "2 3\n0 1\n0 1\n"], ids=["non-integer", "d-above-n"]
)
def test_rank_refuses_a_bad_header(text, tmp_path, monkeypatch, capsys):
    _refuse_work(monkeypatch)
    path = tmp_path / "m.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "rank", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: line 1: ")


def test_verify_keeps_its_report_when_a_replay_fails(monkeypatch, tmp_path, capsys):
    # a failed replay is a witness of ka-replay and of qr-relation, not an
    # error that ends the sweep before its report is written.  At C = 2
    # (theta ~ 2.77 < n = 4) the rank-2 members of (4,2) pass the event on
    # their basis vectors, so qr-relation's level-set filter reads their
    # replays; at theta = n it would read nothing
    def refused(basis, i):
        raise WitnessConstructionError("patched")

    monkeypatch.setattr(verifiers, "_left_vector_vanishing_at", refused)
    out = tmp_path / "verify.json"
    code, _, err = run_cli(
        capsys, "verify", "--n-max", "4", "--d-max", "2", "--C", "2", "--out", str(out)
    )
    assert code == 1 and err == ""
    family = json.loads(out.read_text())["families"][-1]
    checks = {check["check_name"]: check for check in family["checks"]}
    assert (family["n"], family["d"]) == (4, 2)
    assert checks["ka-replay"]["violations"] == 18
    assert checks["qr-relation"]["witnesses"] == [{"r": 2, "error": "patched"}]


def test_verify_size_guard(capsys):
    code, _, err = run_cli(capsys, "verify", "--n-max", "30", "--d-max", "3")
    assert code == 3 and "guard" in err.lower()


def test_verify_guards_every_family_before_the_first_runs(monkeypatch, capsys):
    # (7,2) is past the enumeration's guard, so the sweep stops before (1,1)
    def ran(*args):
        raise AssertionError("a family ran")

    monkeypatch.setattr(cli, "run_family_checks", ran)
    code, out, err = run_cli(capsys, "verify", "--n-max", "7", "--d-max", "2")
    assert code == 3 and out == "" and "guard" in err.lower()


def test_verify_sweeps_n6(capsys):
    # verify has no cap of its own: n = 6 runs wherever the enumeration does
    code, out, _ = run_cli(capsys, "verify", "--n-max", "6", "--d-max", "1")
    assert code == 0
    families = json.loads(out)["families"]
    assert [(f["n"], f["d"]) for f in families] == [(n, 1) for n in range(1, 7)]


# ─── sampler-test ────────────────────────────────────────────────────────────


def test_sampler_test_stub_passes(capsys):
    code, out, _ = run_cli(
        capsys, "sampler-test", "--n", "4", "--d", "2", "--samples", "9000",
        "--seed", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["support_size"] == 90
    assert payload["chi_square"] <= payload["critical_value"]
    assert 0.3 < payload["acceptance_rate"] < 0.7


def test_sampler_test_stub_stops_at_the_rejection_budget(capsys):
    # (7,7) has one member, which a stub draw almost never hits: without a
    # budget the loop would run for minutes
    code, out, err = run_cli(
        capsys, "sampler-test", "--n", "7", "--d", "7", "--samples", "1",
        "--max-rejections", "50",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "50 draws" in err


def test_sampler_test_broken_chain_fails(capsys):
    # zero burn-in pins the chain at its start state: flagrantly non-uniform
    code, out, _ = run_cli(
        capsys, "sampler-test", "--n", "4", "--d", "2", "--samples", "500",
        "--kind", "mcmc", "--burn-in", "0", "--seed", "2",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["acceptance_rate"] is None


def test_sampler_test_mcmc_passes(capsys):
    # the walk's default burn-in is uniform enough for the chi-square gate,
    # and it makes no stub draws, so it has no acceptance rate
    code, out, _ = run_cli(
        capsys, "sampler-test", "--n", "4", "--d", "2", "--samples", "3000",
        "--kind", "mcmc", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "mcmc"
    assert payload["acceptance_rate"] is None
    assert payload["passed"] is True


@pytest.mark.parametrize("significance", ["0", "1", "1.5", "-0.1", "nan"])
def test_sampler_test_refuses_significance_outside_unit_interval(significance, capsys):
    code, out, err = run_cli(
        capsys, "sampler-test", "--n", "3", "--d", "2", "--samples", "50",
        "--seed", "1", "--significance", significance,
    )
    assert code == 2
    assert out == ""
    assert "significance" in err


def test_sampler_test_size_guard(capsys):
    code, _, _ = run_cli(capsys, "sampler-test", "--n", "12", "--d", "3", "--samples", "10")
    assert code == 3


def test_sampler_test_refuses_a_factorial_family(monkeypatch, capsys):
    # n * d = 16 once admitted (16,1), whose 16! members no run could finish;
    # the guard refuses it before a member is built
    def built(*args):
        raise AssertionError("a member was built")

    monkeypatch.setattr(sampler, "build", built)
    code, out, err = run_cli(capsys, "sampler-test", "--n", "16", "--d", "1", "--samples", "10")
    assert code == 3 and out == ""
    assert err.startswith("size guard: ")


# ─── deloc-stats ─────────────────────────────────────────────────────────────


def test_deloc_stats_reports(capsys):
    code, out, _ = run_cli(
        capsys, "deloc-stats", "--n", "6", "--d", "2", "--trials", "40", "--seed", "11"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 40
    assert payload["singular_samples"] == sum(payload["level_set_histogram"].values())
    assert 0.0 <= payload["violation_fraction"] <= 1.0
    assert payload["theta"] > 0
    assert payload["errored_trials"] == 0


def test_deloc_stats_counts_errored_trials(capsys):
    # (5,5) has one member, which 3 stub draws almost never hit: both trials
    # end at the rejection budget and must be counted, not hidden
    code, out, _ = run_cli(
        capsys, "deloc-stats", "--n", "5", "--d", "5", "--trials", "2",
        "--max-rejections", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["errored_trials"] == 2
    assert payload["singular_samples"] == 0


# ─── enumerate and rank ──────────────────────────────────────────────────────


def test_enumerate_streams_family(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--d", "1")
    assert code == 0
    # six 3x3 permutation matrices, parseable back one by one
    blocks = out.strip().split("3 1\n")[1:]
    assert len(blocks) == 6
    matrices = {parse("3 1\n" + b if b.endswith("\n") else "3 1\n" + b + "\n") for b in blocks}
    assert len(matrices) == 6


def test_enumerate_size_guard(capsys):
    code, _, _ = run_cli(capsys, "enumerate", "--n", "30", "--d", "3")
    assert code == 3


def test_rank_on_file(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(serialize(identity(5)))
    code, out, _ = run_cli(capsys, "rank", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 5 and payload["corank"] == 0
    assert payload["rationally_confirmed"] is True
    # one prime proves full rank
    assert payload["primes_used"] == list(linalg._PRIMES[:1])
    assert "right_kernel" not in payload


def test_rank_singular_includes_kernels(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("4 2\n0 1\n0 1\n2 3\n2 3\n")
    code, out, _ = run_cli(capsys, "rank", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["corank"] == 2
    assert payload["right_kernel"] == ["1/1 -1/1 0/1 0/1", "0/1 0/1 1/1 -1/1"]
    assert payload["max_kernel_level_set"] == 2


def test_rank_prints_rational_rref(tmp_path, capsys):
    # kernel rows print as the RREF over Q, whatever form the library holds
    path = tmp_path / "m.txt"
    path.write_text("6 3\n0 1 2\n0 1 3\n0 2 3\n1 4 5\n2 4 5\n3 4 5\n")
    code, out, _ = run_cli(capsys, "rank", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["right_kernel"] == ["1/1 -1/2 -1/2 -1/2 0/1 1/2", "0/1 0/1 0/1 0/1 1/1 -1/1"]
    assert payload["max_kernel_level_set"] == 4


def test_row_and_column_rank_are_cross_checked(tmp_path, monkeypatch, capsys):
    # a left kernel whose dimension differs from the corank can only mean a
    # bug: both the trial and the rank command must refuse it.  circulant(6, 2)
    # has corank 1, and a zero burn-in draws it; the fault drops the one
    # vector that the recorded row operations give
    a = circulant(6, 2)
    real = linalg._left_kernel_mod_p
    monkeypatch.setattr(linalg, "_left_kernel_mod_p", lambda echelon, n: real(echelon, n)[:-1])
    config = SamplerConfig(kind="mcmc", burn_in_steps=0)
    with pytest.raises(ConsistencyError, match="row rank"):
        run_trial(6, 2, config, 0, 0)
    path = tmp_path / "m.txt"
    path.write_text(serialize(a))
    code, out, err = run_cli(capsys, "rank", str(path))
    assert code == 1 and out == ""
    assert "row rank" in err


def test_rank_bad_file(tmp_path, capsys):
    # a degree fault is a usage error like any other fault of the file: a
    # column by its index, a row by its line
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0\n0\n")  # column degrees wrong
    code, out, err = run_cli(capsys, "rank", str(path))
    assert code == 2 and out == ""
    assert err == "error: column 0: 2 entries, expected 1\n"
    path.write_text("3 2\n0 1\n1\n0 2\n")  # row 1 has one entry
    code, out, err = run_cli(capsys, "rank", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 3: 1 entries, expected 2\n"


@pytest.mark.parametrize("token", ["5", "-1"])
def test_rank_refuses_a_column_index_outside_the_range(token, tmp_path, capsys):
    # a usage error with its line, not a traceback from build's IndexError
    path = tmp_path / "m.txt"
    path.write_text(f"2 1\n0\n{token}\n")
    code, out, err = run_cli(capsys, "rank", str(path))
    assert code == 2 and out == ""
    assert err == f"error: line 3, token 0: column index {token} outside [0, 2)\n"


def test_rank_missing_file(capsys):
    code, _, _ = run_cli(capsys, "rank", "/nonexistent/matrix.txt")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == 2
