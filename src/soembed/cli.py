"""Command line front-end: `so-embed <command> ...`.

Exit codes: 0 success (and "is self-orthogonal" for check), 1 semantic
negative (not self-orthogonal, nothing found, bound missed), 2 parse or
I/O failure, 3 violated precondition (dimension, rank, domain, caps).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from . import constructions, distances, golden, oracle, profiles
from .embedding import EmbedPolicy, embed
from .errors import MatrixParseError, MissingSeedError, NoSOCodeError, SoEmbedError
from .gf2 import BinaryMatrix, min_distance, parse_matrix, rank
from .tables import dim4_tables_json

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


def _read_matrix(path: str) -> BinaryMatrix:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise MatrixParseError(str(exc)) from exc
    return parse_matrix(text)


def cmd_check(args) -> int:
    m = _read_matrix(args.file)
    prof = profiles.column_profile(m)
    verdicts = profiles.so_verdicts(m, prof)
    print(f"n={m.n} k={m.k} rank={rank(m)}")
    nonzero = {i: c for i, c in enumerate(prof.ell, start=1) if c}
    print(f"profile: zero_count={prof.zero_count} ell={nonzero}")
    for name, value in verdicts.items():
        print(f"{name}: {'yes' if value else 'no'}")
    so = verdicts["gram_zero"]
    print("self-orthogonal" if so else "not self-orthogonal")
    return EXIT_OK if so else EXIT_NEGATIVE


def cmd_embed(args) -> int:
    m = _read_matrix(args.file)
    policy = EmbedPolicy(s0=args.policy_s0, tie4=args.tie4)
    rep = embed(m, policy, allow_rank_deficient=args.allow_rank_deficient)
    if args.json:
        print(rep.to_json())
        return EXIT_OK
    out = rep.output
    d = min_distance(out)  # before any output: it may refuse the code
    if rep.added_count == 0:
        print("already self-orthogonal; 0 columns added")
    else:
        cols = ", ".join(f"h{idx}@{lv}rows" for lv, idx in rep.added)
        print(f"{rep.added_count} columns added: {cols}")
    print(f"[{out.n},{m.k},{d}] self-orthogonal output:")
    print(out.to_text())
    return EXIT_OK


def cmd_dmin(args) -> int:
    m = _read_matrix(args.file)
    print(f"n={m.n} k={m.k} rank={rank(m)} dmin={min_distance(m)}")
    return EXIT_OK


def cmd_formula(args) -> int:
    fn = distances.dso_opt if args.so else distances.d_opt
    value = fn(args.n, args.k)
    print(f"{value.value} ({value.status}, {value.source})")
    return EXIT_OK


def cmd_table(args) -> int:
    rows = distances.make_table(args.start, args.end, args.k)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"n": n, "value": v.value, "status": v.status, "source": v.source}
                    for n, v in rows
                ],
                indent=2,
            )
        )
    elif args.format == "csv":
        print("n,value,status,source")
        for n, v in rows:
            print(f"{n},{v.value},{v.status},{v.source}")
    else:
        print(f"| n | best self-orthogonal distance, k={args.k} |")
        print("|---|---|")
        for n, v in rows:
            marker = "†" if v.status == distances.STATUS_CONJECTURED else ""
            print(f"| {n} | {v.value}{marker} |")
    return EXIT_OK


def cmd_build(args) -> int:
    reg = constructions.registry()
    matrix, value = constructions.build_optimal(args.n, args.k, args.so, reg)
    kind = "self-orthogonal " if args.so else ""
    print(
        f"[{args.n},{args.k},{value.value}] {kind}code"
        f" ({value.status}, {value.source})"
    )
    print(matrix.to_text())
    return EXIT_OK if value.status == distances.STATUS_EXACT else EXIT_NEGATIVE


def cmd_oracle_min_embed(args) -> int:
    m = _read_matrix(args.file)
    result = oracle.min_embedding_oracle(m, args.max_add)
    if result is None:
        print(f"not embeddable within {args.max_add} columns")
        return EXIT_NEGATIVE
    print(f"minimum columns to append: {result}")
    return EXIT_OK


def cmd_oracle_enumerate(args) -> int:
    result = oracle.enumerate_codes_by_profile(args.n, args.k, args.so)
    wit = result.witness
    nonzero = {i: wit.count(i) for i in range(1, 1 << wit.k) if wit.count(i)}
    print(f"best distance: {result.distance}")
    print(f"witness profile: zero_count={wit.zero_count} ell={nonzero}")
    return EXIT_OK


def cmd_oracle_claims414(args) -> int:
    result = oracle.verify_claims_prop414()
    print(f"tight 3+4 patterns: {result.count1}, worst appended {result.max1}")
    print(f"tight 3+3 and 2+4 patterns: {result.count2}, worst appended {result.max2}")
    ok = result.max1 <= 5 and result.max2 <= 5
    print("within the five-column bound" if ok else "BOUND EXCEEDED")
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_oracle_random(args) -> int:
    best = oracle.random_so_search(
        args.n, args.k, args.trials, args.target, args.seed
    )
    print(f"best distance found: {best} (seed {args.seed}, {args.trials} trials)")
    if best == 0:
        return EXIT_NEGATIVE
    if args.target is not None and best < args.target:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_verify_examples(args) -> int:
    failures = 0
    for name, ok in golden.run_examples():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


def cmd_tables(args) -> int:
    if args.dump:
        print(json.dumps(dim4_tables_json(), indent=2))
        return EXIT_OK
    print("nothing to do (use --dump)")
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="so-embed",
        description="Self-orthogonality checks, shortest self-orthogonal "
        "embeddings, and optimal-distance formulas for binary linear codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="profile and self-orthogonality verdicts")
    p.add_argument("file", help="matrix text file, or - for stdin")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("embed", help="embed into a self-orthogonal code")
    p.add_argument("file")
    p.add_argument("--policy-s0", type=int, default=None, dest="policy_s0")
    p.add_argument(
        "--tie4", choices=["intersect", "difference"], default="intersect"
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--allow-rank-deficient", action="store_true")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("dmin", help="exact minimum distance")
    p.add_argument("file")
    p.set_defaults(func=cmd_dmin)

    p = sub.add_parser("formula", help="optimal distance value at (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--so", action="store_true")
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("table", help="table of optimal self-orthogonal distances")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--from", type=int, required=True, dest="start")
    p.add_argument("--to", type=int, required=True, dest="end")
    p.add_argument("--format", choices=["csv", "json", "md"], default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("build", help="construct an optimal code from seeds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--so", action="store_true")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    q = osub.add_parser("min-embed", help="minimal embedding size by search")
    q.add_argument("file")
    q.add_argument("--max-add", type=int, default=8, dest="max_add")
    q.set_defaults(func=cmd_oracle_min_embed)

    q = osub.add_parser("enumerate", help="best distance by profile search")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--so", action="store_true")
    q.set_defaults(func=cmd_oracle_enumerate)

    q = osub.add_parser("claims414", help="worst-case pattern sweep")
    q.set_defaults(func=cmd_oracle_claims414)

    q = osub.add_parser("random", help="seeded random self-orthogonal search")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--trials", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--target", type=int, default=None)
    q.set_defaults(func=cmd_oracle_random)

    p = sub.add_parser("verify-examples", help="run the built-in worked examples")
    p.set_defaults(func=cmd_verify_examples)

    p = sub.add_parser("tables", help="inspect the dimension-4 constant tables")
    p.add_argument("--dump", action="store_true")
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NoSOCodeError, MissingSeedError) as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except SoEmbedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
