"""Command-line surface: reproducible experiments and the acceptance suite.

Every command returns a list of `record.CheckResult`; `main` alone writes
them, one JSON line each (`check`, the record's fields and `passed`, in
sorted key order) on stdout or --out FILE, and sets the exit code from
them: 0 when every record passed, 1 when at least one failed.  `random`
writes an instance and no record.  Exit code 2 is a usage error: a
rejected argument or input, an instance past a state cap or a series
past `bounds.TRUNCATION_CAP` included, is reported as one JSON line
({"error": type, "message": text}) on stderr.
verify --threads N (1..os.cpu_count(), default 1) sets the verify worker
count; it affects speed only, never results.  simulate --kind
cyclic|plain|extended passes by `record.law_fit`, c13's rule.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from math import comb

import numpy as np

from . import bounds, distributions, matchings, posets, rotations
from .counting import FamilyError
from .distributions import EXTENDED, PLAIN, DistributionError
from .instances import (InstanceError, parse_instance, random_instance,
                        serialize_instance)
from .posets import PosetError
from .record import CheckResult, law_fit
from .verify import CHECK_IDS, RunConfig, max_threads, run_verify_suite

SERIES_VARIANTS = {"tg": PLAIN, "sm": EXTENDED}
SERIES_LIMITS = {"tg": bounds.PLAIN_LOG_LIMIT, "sm": bounds.EXTENDED_LOG_LIMIT}


class UsageError(ValueError):
    """Command-line arguments that name no usable input."""


USAGE_ERRORS = (InstanceError, FamilyError, DistributionError, PosetError,
                rotations.StateCapError, ValueError)


def _emit(stream, obj) -> None:
    stream.write(json.dumps(obj, sort_keys=True, default=str) + "\n")


def _load_profile(args):
    if args.infile:
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read --in {args.infile}: {exc.strerror or exc}") from exc
        return parse_instance(text)
    if args.n is None:
        raise UsageError("give an instance with --in FILE or --n N")
    return random_instance(args.n, args.seed)


def _cmd_enumerate(args, out) -> list[CheckResult]:
    profile = _load_profile(args)
    counts = {}
    if args.method in ("brute", "both"):
        counts["brute"] = len(matchings.enumerate_stable_bruteforce(profile))
    if args.method in ("rotations", "both"):
        rposet = rotations.build_rotation_poset(profile)
        counts["rotations"] = len(rotations.enumerate_stable_via_rotations(profile, rposet))
        counts["downsets"] = posets.count_downsets(rotations.to_finite_poset(rposet))
    return [CheckResult("enumerate", len(set(counts.values())) <= 1,
                        {"n": profile.n, "counts": counts})]


def _cmd_rotations(args, out) -> list[CheckResult]:
    profile = _load_profile(args)
    rposet = rotations.build_rotation_poset(profile)
    report = rotations.check_structure(rposet)
    return [CheckResult("rotations", report.passed,
                        {"n": profile.n, "poset": rotations.poset_to_json(rposet),
                         "structure": report.fields["checks"]})]


def _cmd_grids(args, out) -> list[CheckResult]:
    if args.diamond is not None:
        grid = posets.grid_diamond(args.diamond)
        expected = comb(2 * args.diamond, args.diamond)
    else:
        profile = _load_profile(args)
        grid = posets.embed_in_tangled_grid(rotations.build_rotation_poset(profile))
        expected = None
    downsets = posets.count_downsets(grid.poset)
    return [CheckResult("grids", expected is None or downsets == expected,
                        {"grid": posets.grid_to_json(grid), "downsets": downsets,
                         "expected": expected})]


def _cmd_series(args, out) -> list[CheckResult]:
    interval = bounds.gap_log_series(args.truncate, SERIES_VARIANTS[args.which])
    limit = SERIES_LIMITS[args.which]
    return [CheckResult(f"series_{args.which}", interval.hi <= limit,
                        {"lo": interval.lo, "hi": interval.hi,
                         "certified_base": interval.certified_base,
                         "truncation": interval.truncation, "limit": limit})]


def _cmd_bounds(args, out) -> list[CheckResult]:
    report = bounds.bound_report(args.n)
    return [CheckResult("bounds", all(report["checks"].values()), report)]


def _freq(samples, shown: int | None = None) -> dict:
    """The frequency of each drawn value, or of the `shown` smallest."""
    values, counts = np.unique(samples, return_counts=True)
    return dict(zip(values[:shown].tolist(), (counts[:shown] / len(samples)).tolist()))


def _cmd_simulate(args, out) -> list[CheckResult]:
    if args.kind == "cyclic":
        samples = distributions.sample_cyclic_gap(args.n, args.l, args.seed, args.samples)
        exact = distributions.cyclic_gap_pmf(args.n, args.l)
        return [CheckResult("simulate_cyclic", not law_fit(samples, [p for _, p in exact]),
                            {"n": args.n, "l": args.l, "pmf": {k: str(p) for k, p in exact},
                             "freq": _freq(samples)})]
    if args.kind in ("plain", "extended"):
        samples = distributions.sample_line_gap(args.x, args.kind, args.seed, args.samples)
        cells = distributions.line_gap_cells(args.x, args.kind)
        return [CheckResult(f"simulate_{args.kind}", not law_fit(samples, *cells),
                            {"x": args.x, "window": distributions.line_gap_window(args.x),
                             "freq": _freq(samples, distributions.FIT_CELLS)})]
    if args.kind == "dependence":
        results = distributions.gap_dependence_cells(
            args.x, distributions.legal_identification_patterns(), args.seed, args.samples)
        return [CheckResult("simulate_dependence", res.passed, dataclasses.asdict(res))
                for res in results]
    return [distributions.asymptotic_dominance_probe(args.n, args.seed,
                                                     samples=args.samples)]


def _check_range(name: str, value: int, lo: int, hi: int | None = None) -> None:
    if value < lo or (hi is not None and value > hi):
        bounds_text = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise UsageError(f"{name} must be {bounds_text}, got {value}")


def _cmd_verify(args, out) -> list[CheckResult]:
    # reject every bad number before the suite runs, not partway through it
    _check_range("--samples", args.samples, 1)
    _check_range("--instances", args.instances, 0)
    _check_range("--max-n", args.max_n, 2, matchings.BRUTE_FORCE_CAP)
    min_k = max(bounds.SERIES_MIN_TRUNCATION.values())
    _check_range("--truncate", args.truncate, min_k)
    _check_range("--truncate", args.truncate, min_k, bounds.TRUNCATION_CAP)
    _check_range("--threads", args.threads, 1, max_threads())
    config = RunConfig(
        seed=args.seed,
        max_n=args.max_n,
        num_instances=args.instances,
        mc_samples=args.samples,
        series_truncation=args.truncate,
        inject_fault=args.inject_fault,
        threads=args.threads,
    )
    only = None
    if args.only is not None:
        only = args.only.split(",")
        unknown = [c for c in only if c not in CHECK_IDS]
        if unknown:
            raise UsageError(f"--only: unknown check id {unknown[0]!r}; "
                             f"known ids are {CHECK_IDS[0]}..{CHECK_IDS[-1]}")
    return run_verify_suite(config, only)


def _cmd_random(args, out) -> list[CheckResult]:
    out.write(serialize_instance(random_instance(args.n, args.seed)) + "\n")
    return []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smcensus",
        description="stable matching census: enumeration, grids, bounds, verification")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON-lines report to FILE")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    def add_instance_args(p):
        p.add_argument("--in", dest="infile", help="instance JSON file")
        p.add_argument("--n", type=int, help="random instance side size")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("enumerate", help="count stable matchings")
    add_instance_args(p)
    p.add_argument("--method", choices=("brute", "rotations", "both"),
                   default="both")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("rotations", help="rotation poset and structure checks")
    add_instance_args(p)
    p.set_defaults(handler=_cmd_rotations)

    p = sub.add_parser("grids", help="tangled grid embedding or diamond grids")
    add_instance_args(p)
    p.add_argument("--diamond", type=int, help="diamond grid side size")
    p.set_defaults(handler=_cmd_grids)

    p = sub.add_parser("bounds", help="exponential bound report")
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("series", help="series constant enclosures")
    p.add_argument("--which", choices=tuple(SERIES_VARIANTS), required=True)
    p.add_argument("--truncate", type=int, default=10 ** 7)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("simulate", help="samplers and Monte Carlo checks")
    p.add_argument("--kind", choices=("cyclic", "plain", "extended",
                                      "dependence", "asymptotic"),
                   required=True)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--x", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=10 ** 5)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--max-n", dest="max_n", type=int, default=7)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--samples", type=int, default=10 ** 6)
    p.add_argument("--truncate", type=int, default=10 ** 7)
    p.add_argument("--inject-fault", action="store_true",
                   help="negative control: corrupt one enumeration")
    p.add_argument("--threads", type=int, default=1,
                   help="worker count, 1..os.cpu_count() (default 1)")
    p.add_argument("--only", help="comma-separated check ids to run, e.g. c10,c11 "
                   f"(default: all of {CHECK_IDS[0]}..{CHECK_IDS[-1]})")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("random", help="emit a random instance as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_random)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    close = False
    try:
        if getattr(args, "out", None):
            try:
                out = open(args.out, "w", encoding="utf-8")
            except OSError as exc:
                raise UsageError(f"cannot write --out {args.out}: "
                                 f"{exc.strerror or exc}") from exc
            close = True
        records = args.handler(args, out)
        for res in records:
            _emit(out, res.to_json())
        return 0 if all(r.passed for r in records) else 1
    except USAGE_ERRORS as exc:
        _emit(sys.stderr, {"error": type(exc).__name__, "message": str(exc)})
        return 2
    finally:
        if close:
            out.close()


if __name__ == "__main__":
    raise SystemExit(main())
