"""Command-line front end.

Subcommands: ``estimate`` (seeded Monte Carlo corank grids), ``verify``
(exhaustive lemma sweeps), ``sampler-test`` (uniformity diagnostics),
``deloc-stats`` (kernel level-set statistics), ``enumerate`` (stream a
family), ``rank`` (exact rank/kernel of one matrix file).

Exit codes: 0 success, 1 violations or failed diagnostics, 2 usage error,
3 size-guard refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .errors import DreglabError, ParseError, SizeGuardError
from .experiment import (
    GridSpec,
    run_grid,
    summarize,
    trial_rng,
    write_records,
    write_summary_csv,
    write_summary_json,
)
from .linalg import format_vector, rank_exact
from .matrix import parse, serialize
from .sampler import SamplerConfig, _draw, chi_square_uniform, enumerate_all
from .verifiers import DelocParams, _guard, level_sets, run_family_checks

__all__ = ["main"]

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_SIZE_GUARD = 3


def _add_common(
    sub: argparse.ArgumentParser, *, seed: bool = False, workers: bool = False
) -> None:
    """Register --out, plus --seed and --workers where the subcommand reads them.

    A flag a subcommand would ignore is left unregistered, so argparse
    refuses it with exit code 2.
    """
    sub.add_argument("--out", type=str, default=None, help="output path (prefix for estimate)")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="master seed (u64)")
    if workers:
        sub.add_argument("--workers", type=int, default=1, help="process count")


def _add_sampler(sub: argparse.ArgumentParser) -> None:
    """Register --kind, --max-rejections and --burn-in.

    SamplerConfig refuses whichever of the last two the chosen kind would not read.
    """
    sub.add_argument("--kind", choices=("stub_rejection", "mcmc"), default="stub_rejection")
    sub.add_argument("--max-rejections", type=int, default=None)
    sub.add_argument("--burn-in", type=int, default=None)


def _sampler_config(args: argparse.Namespace) -> SamplerConfig:
    """The sampler the flags name; SamplerConfig refuses a flag it would not read."""
    return SamplerConfig(
        kind=args.kind,
        max_rejections=args.max_rejections,
        burn_in_steps=args.burn_in,
    )


def _resolve_seed(args: argparse.Namespace) -> int:
    """The master seed; ``--seed`` is its only source."""
    if not (0 <= args.seed < 1 << 64):
        raise ValueError(f"seed must fit in u64, got {args.seed}")
    return args.seed


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# ─── estimate ────────────────────────────────────────────────────────────────


def _cmd_estimate(args: argparse.Namespace) -> int:
    pairs = []
    for token in args.pairs.split(","):
        try:
            n, d = map(int, token.split(":"))
        except ValueError:  # a bad int, or not exactly two fields
            raise ValueError(f"--pairs token {token!r} is not of the form n:d") from None
        pairs.append((n, d))
    grid = GridSpec(pairs=tuple(pairs), trials=args.trials, sampler=_sampler_config(args))

    master_seed = _resolve_seed(args)
    records = run_grid(grid, master_seed, workers=args.workers, timings=args.timings)
    rows = summarize(records)

    write_summary = write_summary_csv if args.format == "csv" else write_summary_json
    if args.out is None:
        write_records(records, sys.stdout)
        write_summary(rows, sys.stdout)
    else:
        with Path(f"{args.out}.records.jsonl").open("w") as fp:
            write_records(records, fp)
        with Path(f"{args.out}.summary.{args.format}").open("w") as fp:
            write_summary(rows, fp)
    return EXIT_OK


# ─── verify ──────────────────────────────────────────────────────────────────


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max < 1 or args.d_max < 1:
        raise ValueError(f"--n-max and --d-max must be >= 1, got {args.n_max} and {args.d_max}")
    params = DelocParams(C=args.C)
    # every family's enumeration is started, and so size-guarded, before the first one runs
    pools = [
        (n, d, enumerate_all(n, d)) for n in range(1, args.n_max + 1) for d in range(1, min(n, args.d_max) + 1)
    ]
    families = []
    total_violations = 0
    for n, d, members in pools:
        start = time.perf_counter()
        reports = run_family_checks(members, params)
        elapsed = int((time.perf_counter() - start) * 1000)
        total_violations += sum(rep.violations for rep in reports)
        families.append(
            {
                "n": n,
                "d": d,
                "wall_time_ms": elapsed,
                "checks": [rep.to_dict() for rep in reports],
            }
        )
    payload = {"families": families, "total_violations": total_violations}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK if total_violations == 0 else EXIT_VIOLATIONS


# ─── sampler-test ────────────────────────────────────────────────────────────


def _cmd_sampler_test(args: argparse.Namespace) -> int:
    config = _sampler_config(args)
    master_seed = _resolve_seed(args)
    support = list(enumerate_all(args.n, args.d))
    rng = trial_rng(master_seed, args.n, args.d, 0)
    attempts = 0  # stub draws over all samples; the walk makes none

    def draws():
        nonlocal attempts
        for _ in range(args.samples):
            a, k = _draw(args.n, args.d, config, rng)
            attempts += k
            yield a

    stat, critical, strays = chi_square_uniform(support, draws(), args.significance)
    passed = stat <= critical and strays == 0

    payload = {
        "n": args.n,
        "d": args.d,
        "kind": config.kind,
        "samples": args.samples,
        "support_size": len(support),
        "chi_square": stat,
        "dof": len(support) - 1,
        "critical_value": critical,
        "significance": args.significance,
        "acceptance_rate": args.samples / attempts if attempts else None,
        "passed": passed,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK if passed else EXIT_VIOLATIONS


# ─── deloc-stats ─────────────────────────────────────────────────────────────


def _cmd_deloc_stats(args: argparse.Namespace) -> int:
    _guard(args.n)
    config = _sampler_config(args)
    master_seed = _resolve_seed(args)
    params = DelocParams(C=args.C)
    theta = params.beta(args.n, args.d)

    grid = GridSpec(pairs=((args.n, args.d),), trials=args.trials, sampler=config)
    records = run_grid(grid, master_seed, workers=args.workers)
    singular = [r for r in records if r.corank is not None and r.corank >= 1]
    histogram: dict[int, int] = {}
    for rec in singular:
        histogram[rec.max_kernel_level_set] = histogram.get(rec.max_kernel_level_set, 0) + 1
    violations = sum(
        count for size, count in histogram.items() if size > theta
    )
    payload = {
        "n": args.n,
        "d": args.d,
        "trials": args.trials,
        "errored_trials": sum(1 for r in records if r.error is not None),
        "C": str(params.C),
        "theta": theta,
        "singular_samples": len(singular),
        "level_set_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "bound_violations": violations,
        "violation_fraction": (violations / len(singular)) if singular else 0.0,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


# ─── enumerate and rank ──────────────────────────────────────────────────────


def _cmd_enumerate(args: argparse.Namespace) -> int:
    chunks = [serialize(m) for m in enumerate_all(args.n, args.d)]
    _emit("".join(chunks), args.out)
    return EXIT_OK


def _rref_text(row: tuple[int, ...]) -> str:
    """A canonical integer basis row printed as its RREF row over Q (lead 1)."""
    lead = next(v for v in row if v)
    return format_vector([Fraction(v, lead) for v in row])


def _cmd_rank(args: argparse.Namespace) -> int:
    text = Path(args.matrix_file).read_text()
    a = parse(text)
    report = rank_exact(a)
    payload = {
        "n": a.n,
        "d": a.d,
        "rank": report.rank,
        "corank": report.corank,
        "rationally_confirmed": report.rationally_confirmed,
        "primes_used": list(report.primes_used),
    }
    if report.kernel is not None:
        right, left = report.kernel.vectors, report.left_kernel.vectors
        payload["right_kernel"] = [_rref_text(v) for v in right]
        payload["left_kernel"] = [_rref_text(v) for v in left]
        payload["max_kernel_level_set"] = max(level_sets(v).max_size for v in right + left)
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_OK


# ─── parser wiring ───────────────────────────────────────────────────────────


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dreglab",
        description="Rank and switching experiments on d-regular 0/1 matrices",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="Monte Carlo corank estimation over a grid")
    _add_common(est, seed=True, workers=True)
    est.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="summary format"
    )
    est.add_argument("--pairs", type=str, required=True, help='the grid, e.g. "40:2,60:2"')
    est.add_argument("--trials", type=int, required=True)
    _add_sampler(est)
    est.add_argument(
        "--timings",
        action="store_true",
        help="include real wall times (breaks byte-identical reruns)",
    )
    est.set_defaults(fn=_cmd_estimate)

    ver = subs.add_parser("verify", help="exhaustive lemma checks over small families")
    _add_common(ver)
    ver.add_argument("--n-max", type=int, required=True)
    ver.add_argument("--d-max", type=int, required=True)
    ver.add_argument("--C", type=str, default="1", help="deloc constant (rational)")
    ver.set_defaults(fn=_cmd_verify)

    st = subs.add_parser("sampler-test", help="uniformity diagnostics against full enumeration")
    _add_common(st, seed=True)
    st.add_argument("--n", type=int, required=True)
    st.add_argument("--d", type=int, required=True)
    st.add_argument("--samples", type=int, required=True)
    _add_sampler(st)
    st.add_argument("--significance", type=float, default=1e-3)
    st.set_defaults(fn=_cmd_sampler_test)

    dl = subs.add_parser("deloc-stats", help="kernel level-set statistics of singular samples")
    _add_common(dl, seed=True, workers=True)
    dl.add_argument("--n", type=int, required=True)
    dl.add_argument("--d", type=int, required=True)
    dl.add_argument("--trials", type=int, required=True)
    dl.add_argument("--C", type=str, default="1", help="deloc constant (rational)")
    _add_sampler(dl)
    dl.set_defaults(fn=_cmd_deloc_stats)

    en = subs.add_parser("enumerate", help="stream every matrix of a family")
    _add_common(en)
    en.add_argument("--n", type=int, required=True)
    en.add_argument("--d", type=int, required=True)
    en.set_defaults(fn=_cmd_enumerate)

    rk = subs.add_parser("rank", help="exact rank/kernel of one matrix file")
    _add_common(rk)
    rk.add_argument("matrix_file", type=str)
    rk.set_defaults(fn=_cmd_rank)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DreglabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATIONS


if __name__ == "__main__":
    sys.exit(main())
