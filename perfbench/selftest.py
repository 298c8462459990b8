"""Smoke self-test of the benchmark.

Runs every workload untraced and traced, prints every metric with its
unit, and checks that each run exits 0, reports correct outputs and emits
exactly the metrics ``BENCHMARK.json`` declares.  Then checks that a copy
of the benchmark without the library sources exits non-zero and prints no
result.  Run from the repository root:

    python3 perfbench/selftest.py    # 1-second runs, about a minute

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SECONDS = 1.0  # length of each run


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            before = len(problems)
            proc = _run(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            print(f"{label}: {'ok' if len(problems) == before else 'FAILED'}")
            for name, m in result["metrics"].items():
                print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
            sys.stdout.flush()

    # Without the library sources the benchmark must refuse to produce a result.
    bare = BENCH_DIR / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = _run(bare, declared["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout.strip()!r}")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
