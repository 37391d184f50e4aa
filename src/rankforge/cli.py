"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 budget
exceeded.  All randomness funnels through an explicit --seed flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys

from . import experiments, prob_bounds
from .errors import (BudgetExceededError, InvalidParameterError, RankforgeError,
                     VerificationError)
from .field_arith import Element, FieldSpec, _checked_keys
from .fq_linalg import linearly_independent_over_base
from .mrd_criteria import is_gabidulin, is_mrd
from .rank_codes import RankCode, gabidulin, min_rank_distance

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _load_json(path, decode):
    """decode(data) for the JSON in path; unreadable or malformed data is invalid input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return decode(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError, InvalidParameterError) as exc:
        raise InvalidParameterError(
            f"cannot read JSON from {path}: {type(exc).__name__}: {exc}") from exc


def _print_json(data):
    print(json.dumps(data, indent=2))


def _cmd_field_info(args):
    keys = ("base_modulus", "ext_modulus")

    def build(data):
        if isinstance(data, dict):  # both keys are optional: a missing one is the default
            data = {**dict.fromkeys(keys), **data}
        _checked_keys(data, keys, "modulus file")
        return FieldSpec(args.p, args.e, args.m, **data)
    spec = _load_json(args.modulus_file, build) if args.modulus_file else build({})
    _print_json(spec.to_json())
    return EXIT_OK


def _random_independent_tuple(spec, n, rng):
    if n > spec.m:
        raise InvalidParameterError(
            f"n = {n} exceeds m = {spec.m}; independent tuples of that length do not exist")
    while True:
        g = [Element(spec, rng.randrange(spec.order)) for _ in range(n)]
        if linearly_independent_over_base(g):
            return g


def _cmd_gen_gabidulin(args):
    spec = FieldSpec.from_prime_power(args.q, args.m)
    if args.g_file:
        g = _load_json(args.g_file,
                       lambda data: [spec.element_from_coeffs(entry) for entry in data])
    else:
        rng = random.Random(args.seed)
        g = _random_independent_tuple(spec, args.n, rng)
    if len(g) != args.n:
        raise InvalidParameterError(f"expected {args.n} evaluation points, got {len(g)}")
    code = gabidulin(g, args.s, args.k)
    if args.check and not is_mrd(code):
        raise VerificationError("constructed code failed the maximality check")
    _print_json(code.to_json())
    return EXIT_OK


def _cmd_check(args):
    code = _load_json(args.code_file, RankCode.from_json)
    verdict = {}
    mrd = is_mrd(code)
    verdict["mrd"] = mrd
    if args.what in ("gabidulin", "both"):
        verdict["gabidulin_s"] = is_gabidulin(code) if mrd else "not_applicable"
    try:
        verdict["min_distance"] = min_rank_distance(code)
    except BudgetExceededError:
        verdict["min_distance"] = None
    _print_json(verdict)
    return EXIT_OK


def _m_range(args):
    """--m-from..--m-to, refused unless 1 <= --m-from <= --m-to."""
    if args.m_from < 1:
        raise InvalidParameterError(f"--m-from must be at least 1, got {args.m_from}")
    if args.m_from > args.m_to:
        raise InvalidParameterError("--m-from must not exceed --m-to")
    return range(args.m_from, args.m_to + 1)


def _cmd_bounds(args):
    reports = prob_bounds.bound_table(args.q, args.k, args.n, _m_range(args))
    if 1 < args.k < args.n - 1:
        M = prob_bounds.min_extension_degree(args.q, args.k, args.n)
        print(f"M({args.q},{args.k},{args.n})={M}")
    else:
        print(f"# no minimum extension degree: k={args.k} outside 1 < k < n-1")
    rows = [prob_bounds.bound_report_row(r) for r in reports]
    header = ["q", "k", "n", "m", *prob_bounds.BOUND_NAMES]
    print("\t".join(header))
    for row in rows:
        print("\t".join(str(row[h]) for h in header))
    if args.csv:
        experiments.write_csv(args.csv, prob_bounds.BOUNDS_CSV_FIELDS, rows)
    return EXIT_OK


def _cmd_simulate(args):
    batch = experiments.monte_carlo(args.q, args.k, args.n, args.m,
                                    args.trials, args.seed, args.workers)
    row = experiments.trial_batch_row(batch)
    _print_json({**row, "mrd_fraction": float(batch.mrd_fraction),
                 "gab_fraction": float(batch.gab_fraction),
                 "elapsed_seconds": round(batch.elapsed, 6)})
    if args.csv:
        experiments.write_csv(args.csv, experiments.TRIALS_CSV_FIELDS, [row], append=True)
    return EXIT_OK


def _cmd_census(args):
    if args.stop_after is not None and not args.resume:
        raise InvalidParameterError("--stop-after needs --resume to keep the partial scan")
    result = experiments.census(args.q, args.k, args.n, args.m,
                                checkpoint_path=args.resume, stop_after=args.stop_after)
    if result is None:
        visited, to_visit = experiments.census_progress(args.resume)
        _print_json({
            "q": args.q, "k": args.k, "n": args.n, "m": args.m,
            "orbits_visited": visited, "orbits_to_visit": to_visit,
        })
        return EXIT_OK
    _print_json({**dataclasses.asdict(result), "per_s_gab_counts": {
        str(s): c for s, c in sorted(result.per_s_gab_counts.items())}})
    if args.csv:
        experiments.write_csv(args.csv, experiments.CENSUS_CSV_FIELDS,
                              experiments.census_rows(result))
    return EXIT_OK


def _cmd_verify(args):
    report = experiments.verify_lemma_suite(args.suite)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_figure(args):
    fields, rows = experiments.figure_data(
        args.id, q=args.q, k=args.k, n=args.n,
        m_values=_m_range(args),
        trials=args.trials, seed=args.seed, workers=args.workers)
    experiments.write_csv(args.csv, fields, rows)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return EXIT_OK


def _int_flags(p, names: str, **kwargs):
    """One integer flag --name per space-separated name, in that order."""
    for name in names.split():
        p.add_argument(f"--{name}", type=int, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankforge",
        description="Construct, classify and count linear rank-metric codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="resolve and print a field tower")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--modulus-file", help="JSON file with base_modulus/ext_modulus")
    p.set_defaults(func=_cmd_field_info)

    p = sub.add_parser("gen-gabidulin", help="emit a generalized Gabidulin code")
    _int_flags(p, "q m n k", required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--g-file", help="JSON list of evaluation points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true",
                   help="verify the maximal-distance property before printing")
    p.set_defaults(func=_cmd_gen_gabidulin)

    p = sub.add_parser("check", help="classify a code file")
    p.add_argument("--code-file", required=True)
    p.add_argument("--what", choices=["mrd", "gabidulin", "both"], default="both")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bounds", help="evaluate the probability bounds")
    _int_flags(p, "q k n m-from m-to", required=True)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("simulate", help="Monte-Carlo classification of random codes")
    _int_flags(p, "q k n m", required=True)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--csv", help="append a schema-versioned row to this file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("census", help="exhaustive classification of all systematic blocks")
    _int_flags(p, "q k n m", required=True)
    p.add_argument("--resume", help="checkpoint file to write to and resume from")
    p.add_argument("--stop-after", type=int,
                   help="visit at most this many first-row orbits, then save the "
                        "checkpoint and exit without CSV (needs --resume)")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify", help="run the lemma-verification suites")
    p.add_argument("--suite", default="all", choices=["all", *experiments._SUITES])
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("figure", help="emit CSV data behind the bound/experiment figures")
    p.add_argument("--id", type=int, required=True, choices=experiments.FIGURE_FIELDS)
    _int_flags(p, "q k n")
    p.add_argument("--m-from", type=int, default=4)
    p.add_argument("--m-to", type=int, default=14)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (RankforgeError, ZeroDivisionError) as exc:
        # invalid parameters, mismatched towers or shapes, any other library error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
