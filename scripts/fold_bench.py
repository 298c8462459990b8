"""Fold paired perfbench runs of a parent and a changed checkout into one file.

Run from the repository root, after running ``perfbench/run.py --trace 0``
with the same seeds and ``--seconds`` in both checkouts:

    python3 scripts/fold_bench.py --parent ../parent/perfbench/results \\
        --change perfbench/results --out BENCH_pr12.json

Runs pair up by workload and seed.  For every end-to-end metric that
``BENCHMARK.json`` declares, the output gives each side's median and
quartiles, the number of pairs, the pairs the change wins (ties count for
neither side), and two verdicts: ``gain`` (over at least ten pairs, the
change wins at least nine tenths of them and its median is better by more
than the parent's interquartile range, and for ``peak_rss_mb`` by at
least 5% and on grid-mcmc by at least 10%) and ``within_bound`` (the change's
median is no worse than the parent's by more than the declared bound).  Each side also keeps
the stamp of its first run (machine, versions, commit) and its failures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# fewer pairs than this cannot show a gain, however many the change wins
MIN_PAIRS = 10

# smallest relative change of the median that can count as a gain.  Peak RSS
# varies so little between runs that a 1% shift in import or allocation
# clears the interquartile-range rule on every pair
MIN_EFFECT = {"peak_rss_mb": 0.05}

# the same, per workload.  grid-mcmc moves by about 5% with the checkout's
# directory alone, the same commit in two directories, and two rounds on
# nearly the same change read +5.5% and then +1.3%, both on ten of ten pairs
MIN_WORKLOAD_EFFECT = {"grid-mcmc": 0.10}


def _runs(directory: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs[(record["workload"], record["seed"])] = record
    return runs


def _summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _compare(metric: dict, parent: list[float], change: list[float], workload: str = "") -> dict:
    sign = 1 if metric["better"] == "higher" else -1
    before, after = _summary(parent), _summary(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (after["median"] - before["median"])
    relative = gain / before["median"] if before["median"] else 0.0
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": before,
        "change": after,
        "ratio": after["median"] / before["median"] if before["median"] else None,
        "pairs": len(parent),
        "wins": wins,
        "gain": len(parent) >= MIN_PAIRS
        and wins >= 0.9 * len(parent)
        and gain > before["iqr"]
        and relative >= MIN_EFFECT.get(metric["name"], 0.0)
        and relative >= MIN_WORKLOAD_EFFECT.get(workload, 0.0),
        "within_bound": -relative <= metric["bound"],
    }


def fold(parent_dir: Path, change_dir: Path) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = _runs(parent_dir), _runs(change_dir)
    paired = sorted(parent.keys() & change.keys())
    if not paired:
        raise SystemExit("no workload and seed was run on both sides")
    workloads: dict[str, dict] = {}
    for name in dict.fromkeys(w for w, _ in paired):
        seeds = [s for w, s in paired if w == name]
        sides = {"parent": [parent[name, s] for s in seeds], "change": [change[name, s] for s in seeds]}
        workloads[name] = {
            "seeds": seeds,
            "seconds": sorted({r["seconds"] for runs in sides.values() for r in runs}),
            "attempted": {side: sum(r["attempted"] for r in runs) for side, runs in sides.items()},
            "failed": {side: sum(r["failed"] for r in runs) for side, runs in sides.items()},
            "metrics": {
                m["name"]: _compare(
                    m,
                    [r["metrics"][m["name"]]["value"] for r in sides["parent"]],
                    [r["metrics"][m["name"]]["value"] for r in sides["change"]],
                    name,
                )
                for m in declared["end_to_end"]
            },
        }
    return {
        "stamp": {
            "parent": parent[paired[0]]["stamp"],
            "change": change[paired[0]]["stamp"],
        },
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="results directory of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="results directory of the changed checkout")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    folded = fold(args.parent, args.change)
    args.out.write_text(json.dumps(folded, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
