"""Benchmark of dreglab: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload grid-kernel --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports the per-layer metrics.  Metric names
and units come from ``BENCHMARK.json``.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable summary.  Each run also writes
``perfbench/results/<workload>-seed<seed>-trace<t>.json`` stamped with the
machine and versions (and, for traced runs, a gzipped span file beside it).

Exits 2 without a result when the library sources under ``src/`` are absent.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("grid-kernel", "grid-rank", "grid-mcmc", "verify-exhaustive")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _stamp() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "dreglab" / "__init__.py").is_file():
        print(f"error: library sources not found under {src}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))

    import calibrate

    speed = calibrate.Speed()
    t0 = perf_counter()
    import workloads  # imports dreglab, so this is the import part of set-up

    import_s = perf_counter() - t0
    setup = workloads.Times()
    setup.add([import_s], speed.factor())

    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), speed, setup)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(outcome.metrics) != set(units):
        print(
            f"error: metrics emitted {sorted(outcome.metrics)} differ from declared {sorted(units)}",
            file=sys.stderr,
        )
        return 1
    metrics = {name: {"value": outcome.metrics[name], "unit": units[name]} for name in units}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": _stamp(),
        "failed_frac": outcome.failed / outcome.attempted,
        "samples": outcome.samples,
        "unscaled": outcome.raw,
        "reference_ms": speed.samples,
        "shares": outcome.shares,
        **result,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if outcome.tracer is not None:
        outcome.tracer.write(out_dir / f"{stem}.spans.jsonl.gz")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    for name, value in outcome.raw.items():
        print(f"  unscaled {name:35s} {value:14.6g}")
    print(
        f"  samples {outcome.samples}  attempted {outcome.attempted}  failed {outcome.failed}"
        f"  failed_frac {record['failed_frac']:.6g}"
    )
    if outcome.shares:
        print("  self-time share of the traced root spans:")
        for name, share in sorted(outcome.shares.items(), key=lambda kv: -kv[1]):
            print(f"    {name:42s} {share:7.1%}")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
