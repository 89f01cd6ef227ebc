"""Span tracing for the traced run, recorded from the benchmark's side.

The traced run replays each command as the public library calls that
`soembed.cli` makes for it at this commit, with a span around each call.
Work inside a call (for example the column joins inside `embed`) stays
in that call's span.  The replay prints what the command prints, and the
run compares the two outputs, so a replay that drifts from the CLI shows
up as a failed op.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from soembed import cli, constructions, distances, oracle, profiles
from soembed.embedding import EmbedPolicy, embed
from soembed.gf2 import gram, min_distance, parse_matrix, rank

LAYERS = ("cli", "gf2", "profiles", "embedding", "constructions", "distances", "oracle")


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id, raised]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[tuple[int, str], float]:
        """Seconds per (op, span name), less the time child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[int, str], float] = {}
        for i, (name, start, end, _, op, _) in enumerate(self.spans):
            out[op, name] = out.get((op, name), 0.0) + (end - start) - child[i]
        return out

    def errors(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for name, *_mid, raised in self.spans:
            out[name.split(".")[0]] += raised
        return out


def replay(argv: list[str], t: Tracer) -> int:
    """Run one command as its chain of traced library calls."""
    with t.span("cli"):
        args = cli.build_parser().parse_args(argv)
        name = args.oracle_command if args.command == "oracle" else args.command
        return _REPLAY[name](args, t)


def _read(args, t: Tracer):
    text = Path(args.file).read_text()
    with t.span("gf2.parse"):
        return parse_matrix(text)


def _check(args, t: Tracer) -> int:
    # cli.cmd_check, with profiles.so_verdicts opened up to show the Gram test
    m = _read(args, t)
    with t.span("profiles.column_profile"):
        prof = profiles.column_profile(m)
    with t.span("profiles.so_verdicts"):
        with t.span("gf2.gram"):
            verdicts = {"gram_zero": gram(m).is_zero()}
        verdicts["column_test"] = profiles.is_so_profile(m)
        if 2 <= m.k <= 4:
            with t.span("profiles.column_profile"):
                dim_prof = profiles.column_profile(m)
            verdicts[f"dim{m.k}_test"] = profiles.is_so_dim_check(dim_prof)
    with t.span("gf2.rank"):
        r = rank(m)
    print(f"n={m.n} k={m.k} rank={r}")
    nonzero = {i: prof.count(i) for i in range(1, 1 << m.k) if prof.count(i)}
    print(f"profile: zero_count={prof.zero_count} ell={nonzero}")
    for key, value in verdicts.items():
        print(f"{key}: {'yes' if value else 'no'}")
    so = verdicts["gram_zero"]
    print("self-orthogonal" if so else "not self-orthogonal")
    return 0 if so else 1


def _embed(args, t: Tracer) -> int:
    m = _read(args, t)
    policy = EmbedPolicy(s0=args.policy_s0, tie4=args.tie4)
    with t.span("embedding.embed"):
        rep = embed(m, policy, allow_rank_deficient=args.allow_rank_deficient)
    if rep.added_count == 0:
        print("already self-orthogonal; 0 columns added")
    else:
        cols = ", ".join(f"h{idx}@{lv}rows" for lv, idx in rep.added)
        print(f"{rep.added_count} columns added: {cols}")
    out = rep.output
    with t.span("gf2.gray"):
        d = min_distance(out)
    print(f"[{out.n},{m.k},{d}] self-orthogonal output:")
    with t.span("gf2.to_text"):
        text = out.to_text()
    print(text)
    return 0


def _dmin(args, t: Tracer) -> int:
    m = _read(args, t)
    with t.span("gf2.rank"):
        r = rank(m)
    with t.span("gf2.gray"):
        d = min_distance(m)
    print(f"n={m.n} k={m.k} rank={r} dmin={d}")
    return 0


def _build(args, t: Tracer) -> int:
    # cli.cmd_build, with constructions.build_optimal opened up
    n, k, so = args.n, args.k, args.so
    with t.span("constructions.build_optimal"):
        reg = constructions.registry()
        period = (1 << k) - 1
        length = max(s for s in reg.lengths(k, so) if s <= n and (n - s) % period == 0)
        with t.span("constructions.juxtapose"):
            built = constructions.juxtapose_simplex(reg.get(length, k, so).matrix, (n - length) // period)
        with t.span("gf2.gray"):
            achieved = min_distance(built)
        with t.span("distances.formula"):
            target = (distances.dso_opt if so else distances.d_opt)(n, k)
        exact = target.status == distances.STATUS_EXACT and achieved == target.value
        value = (
            distances.DistanceValue(achieved, distances.STATUS_EXACT, target.source)
            if exact
            else distances.DistanceValue(achieved, distances.STATUS_WITNESS, "juxtaposition")
        )
    kind = "self-orthogonal " if so else ""
    print(f"[{n},{k},{value.value}] {kind}code ({value.status}, {value.source})")
    with t.span("gf2.to_text"):
        text = built.to_text()
    print(text)
    return 0 if exact else 1


def _min_embed(args, t: Tracer) -> int:
    m = _read(args, t)
    with t.span("oracle.min_embed"):
        result = oracle.min_embedding_oracle(m, args.max_add)
    if result is None:
        print(f"not embeddable within {args.max_add} columns")
        return 1
    print(f"minimum columns to append: {result}")
    return 0


def _enumerate(args, t: Tracer) -> int:
    with t.span("oracle.enumerate"):
        result = oracle.enumerate_codes_by_profile(args.n, args.k, args.so)
    wit = result.witness
    nonzero = {i: wit.count(i) for i in range(1, 1 << wit.k) if wit.count(i)}
    print(f"best distance: {result.distance}")
    print(f"witness profile: zero_count={wit.zero_count} ell={nonzero}")
    return 0


def _claims414(args, t: Tracer) -> int:
    with t.span("oracle.claims414"):
        result = oracle.verify_claims_prop414()
    print(f"tight 3+4 patterns: {result.count1}, worst appended {result.max1}")
    print(f"tight 3+3 and 2+4 patterns: {result.count2}, worst appended {result.max2}")
    ok = result.max1 <= 5 and result.max2 <= 5
    print("within the five-column bound" if ok else "BOUND EXCEEDED")
    return 0 if ok else 1


def _random(args, t: Tracer) -> int:
    with t.span("oracle.random_search"):
        best = oracle.random_so_search(args.n, args.k, args.trials, args.target, args.seed)
    print(f"best distance found: {best} (seed {args.seed}, {args.trials} trials)")
    if best == 0 or (args.target is not None and best < args.target):
        return 1
    return 0


_REPLAY = {
    "check": _check,
    "embed": _embed,
    "dmin": _dmin,
    "build": _build,
    "min-embed": _min_embed,
    "enumerate": _enumerate,
    "claims414": _claims414,
    "random": _random,
}
