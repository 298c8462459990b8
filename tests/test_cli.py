"""End-to-end CLI behaviour: outputs, determinism, exit codes."""

import json

import pytest

from dreglab import identity, parse, serialize
from dreglab.cli import main


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


def test_estimate_config_file(tmp_path, capsys):
    cfg = {
        "pairs": [[5, 1]],
        "trials": 3,
        "sampler": {"kind": "stub_rejection", "seed": 5},
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "estimate", "--config", str(path), "--format", "json")
    assert code == 0
    assert '"frac_full_rank": 1.0' in out


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
    code, _, err = run_cli(capsys, "estimate", "--pairs", "5:1")
    assert code == 2 and "trials" in err
    code, _, err = run_cli(
        capsys, "estimate", "--pairs", "5:1", "--trials", "2",
        "--config", "/nonexistent.json",
    )
    assert code == 2


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
        for check in fam["checks"]:
            assert check["violations"] == 0
            assert isinstance(check["wall_time_ms"], int)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "2", "--d-max", "1", "--workers", "2"],
        ["verify", "--n-max", "2", "--d-max", "1", "--seed", "1"],
        ["sampler-test", "--n", "3", "--d", "1", "--samples", "6", "--workers", "2"],
        ["deloc-stats", "--n", "4", "--d", "2", "--trials", "2", "--format", "json"],
        ["enumerate", "--n", "2", "--d", "1", "--seed", "1"],
        ["rank", "m.txt", "--workers", "2"],
    ],
)
def test_ignored_flags_are_refused(argv, capsys):
    # a flag the subcommand would not read is a usage error, not a no-op
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_size_guard(capsys):
    code, _, err = run_cli(capsys, "verify", "--n-max", "30", "--d-max", "3")
    assert code == 3 and "guard" in err.lower()


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


def test_sampler_test_size_guard(capsys):
    code, _, _ = run_cli(capsys, "sampler-test", "--n", "12", "--d", "3", "--samples", "10")
    assert code == 3


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


def test_rank_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0\n0\n")  # column degrees wrong
    code, _, err = run_cli(capsys, "rank", str(path))
    assert code == 1 and "error" in err


def test_rank_missing_file(capsys):
    code, _, _ = run_cli(capsys, "rank", "/nonexistent/matrix.txt")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == 2
