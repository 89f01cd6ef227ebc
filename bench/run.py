"""Layered benchmark of the `so-embed` commands.

    python3 bench/run.py --workload wide|deep|verify --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The inputs are generated from
--seed and written under .bench_run/ before timing starts; the commands
then run in-process through soembed.cli.main(argv), one at a time in a
closed loop (one client, one thread), in whole passes over the workload
until --seconds of command time has been measured.  Every output is
checked by the benchmark's own code, outside the timed window.

End-to-end timings are reported at a nominal machine speed: a fixed
calibration kernel is timed between the commands, and each time is scaled
by the kernel's nominal over its local time (see calibrate.py).  The raw
times are kept in the report under .bench_run/results/.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each command
untraced and then as a traced replay of its library calls, and reports
the per-layer metrics and the tracing overhead.  --corrupt embed|dmin
damages those outputs before they are checked, to show that the checks
catch it.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_REPEATS = 7

cli = None  # soembed.cli, imported from the checkout's src/ by main()

# Import of the package plus the first seed-registry load (which verifies
# every seed), in a fresh interpreter, then the calibration kernel in the
# same interpreter.
SETUP_CODE = """
import json, time
t0 = time.perf_counter()
import soembed.cli
from soembed import constructions
t1 = time.perf_counter()
reg = constructions.registry()
t2 = time.perf_counter()
import calibrate, statistics
calibrate.sample()
cal = statistics.median(calibrate.sample() for _ in range(5))
print(json.dumps({"import_s": t1 - t0, "seed_load_s": t2 - t1, "calibration_s": cal,
                  "seeds": len(reg.entries), "file": soembed.cli.__file__}))
"""

COMMANDS = ("check", "embed", "dmin", "build", "min_embed", "enumerate", "random")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    **{f"{c}_p50_ms": "ms" for c in COMMANDS},
    "peak_rss_mib": "MiB",
}

COUNT_KEYS = (
    "gf2.parse_chars",
    "gf2.to_text_chars",
    "gf2.gray_codewords",
    "profiles.cells",
    "embedding.columns_added",
    "embedding.excess_columns",
)

LAYER_TIMES = {
    "gf2.parse": "gf2.parse_s",
    "gf2.to_text": "gf2.to_text_s",
    "gf2.rank": "gf2.rank_s",
    "gf2.gram": "gf2.gram_s",
    "gf2.gray": "gf2.gray_s",
    "profiles.column_profile": "profiles.column_profile_s",
    "profiles.so_verdicts": "profiles.so_verdicts_s",
    "embedding.embed": "embedding.embed_s",
    "constructions.juxtapose": "constructions.juxtapose_s",
    "constructions.build_optimal": "constructions.build_optimal_s",
    "distances.formula": "distances.formula_s",
    "oracle.min_embed": "oracle.min_embed_s",
    "oracle.enumerate": "oracle.enumerate_s",
    "oracle.claims414": "oracle.claims414_s",
    "oracle.random_search": "oracle.random_search_s",
    "cli": "cli.self_s",
}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", choices=("embed", "dmin"), default=None)
    args = p.parse_args(argv)

    if not (SRC / "soembed" / "__init__.py").is_file():
        print(f"error: no soembed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global cli
    from soembed import cli, constructions

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported soembed from {cli.__file__}", file=sys.stderr)
        return 2
    constructions.registry()
    marks = [time.perf_counter()]
    setup = measure_setup()
    marks.append(time.perf_counter())

    ops, files = workloads.generate(args.workload, args.seed)
    digest = workloads.digest(ops, files)
    problems = generator_problems(args.workload, args.seed, digest)
    warm_ops, warm_files = workloads.warm_up_set(ops, files)
    paths = write_inputs(args.workload, args.seed, {**files, **warm_files})
    checker = checks.Checker(files)
    marks.append(time.perf_counter())
    for op in warm_ops:
        run_cli(op.argv(paths.get(op.file)))
    # The benchmark's own objects (inputs, checker tables, loaded modules)
    # leave the collector's view, so that, as in a fresh `so-embed`
    # process, a collection inside a command scans what it allocated.
    gc.collect()
    gc.freeze()
    marks.append(time.perf_counter())

    loop = traced_loop if args.trace else timed_loop
    run = loop(ops, paths, args.seconds, checker, args.corrupt)
    marks.append(time.perf_counter())
    phases = {name: b - a for name, a, b in zip(("setup", "inputs", "warm_up", "loop"), marks, marks[1:])}
    phases["measured"] = run["measured_s"]
    env = environment()
    problems += run["problems"]
    problems += count_problems(args.workload, args.seed, digest, env["source_sha256"], run["counts"])

    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        metrics = layer_metrics(run, setup)
    else:
        metrics = e2e_metrics(run, setup)
    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corrupt": args.corrupt,
        "input_digest": digest,
        "command_mix": workloads.command_mix(ops),
        "passes": run["passes"],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "counts": run["counts"],
        "op_tail": run["tail"],
        "command_seconds": run["command_seconds"],
        "phase_seconds": phases,
        "setup": setup,
        "calibration": run["calibration"],
        "raw_metrics": run.get("raw_metrics"),
        "input_ms": [[*op.argv(op.file), 1000 * dt] for op, (_, dt) in zip(ops, run.get("typical", []))],
        "problems": problems[:50],
        "environment": env,
        "metrics": metrics,
    }
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    WORK.joinpath("results", name).write_text(json.dumps(report, indent=1))
    if args.trace:
        write_spans(args.workload, args.seed, run["tracer"])

    for line in problems[:20]:
        print(f"problem: {line}")
    for key in ("workload", "seed", "input_digest", "passes", "command_mix", "command_seconds",
                "phase_seconds", "counts", "op_tail"):
        print(f"{key}: {json.dumps(report[key])}")
    print(f"error_rate: {report['error_rate']:.6g} ({failed} of {attempted} commands)")
    for key, m in metrics.items():
        print(f"metric {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"report": report}))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# set-up, inputs, environment


def measure_setup() -> dict:
    """Medians over fresh interpreters, each scaled by its own kernel time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    if not all(Path(r["file"]).resolve().is_relative_to(SRC) for r in runs):
        raise RuntimeError("set-up imported soembed from outside the checkout")
    for r in runs:
        r["scale"] = calibrate.NOMINAL_S / r["calibration_s"]
        r["setup_s"] = r["import_s"] + r["seed_load_s"]
    med = {k: statistics.median(r[k] * r["scale"] for r in runs) for k in ("import_s", "seed_load_s", "setup_s")}
    med["raw_setup_s"] = statistics.median(r["setup_s"] for r in runs)
    med["calibration_s"] = statistics.median(r["calibration_s"] for r in runs)
    med["seeds"] = runs[0]["seeds"]
    return med


def generator_problems(workload: str, seed: int, digest: str) -> list[str]:
    """The same seed must give identical inputs and another seed different ones."""
    out = []
    if workloads.digest(*workloads.generate(workload, seed)) != digest:
        out.append("generator is not deterministic for a fixed seed")
    if workloads.digest(*workloads.generate(workload, seed + 1)) == digest:
        out.append("a different seed gave the same inputs")
    return out


def write_inputs(workload: str, seed: int, files: dict[str, str]) -> dict[str, str]:
    where = WORK / "inputs" / f"{workload}-seed{seed}"
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    for name, text in files.items():
        where.joinpath(name).write_text(text)
    return {name: str(where / name) for name in files}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "soembed").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "load": "closed loop, 1 client, 1 thread",
    }


# ---------------------------------------------------------------------------
# the loops


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Exit code (-1 if it raised), stdout and seconds of one command.

    Each command starts with the collector's counts at zero, as in a fresh
    process; otherwise a collection lands inside whichever command happens
    to cross the collector's threshold, and a short command's time moves
    from pass to pass with the commands that ran before it.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed command, not the end of the run
            rc = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


class Pass:
    """Per-pass tallies: the exact counts and the facts behind the ratios."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.added: dict[str, int] = {}
        self.minimum: dict[str, int] = {}
        self.searches = 0
        self.hits = 0

    def add(self, op, facts: dict) -> None:
        for key, value in facts["counts"].items():
            self.counts[key] += value
        if "added" in facts:
            self.added[op.file] = facts["added"]
        if "minimum" in facts:
            self.minimum[op.file] = facts["minimum"]
        if "hit" in facts:
            self.searches += 1
            self.hits += facts["hit"]

    def summary(self) -> dict:
        both = [f for f in self.minimum if f in self.added]
        excess = [self.added[f] - self.minimum[f] for f in both]
        counts = dict(self.counts, **{"embedding.excess_columns": sum(excess)})
        counts["embedding.embeddings_checked"] = len(both)
        counts["embedding.minimal_embeddings"] = sum(e == 0 for e in excess)
        counts["oracle.random_search.calls"] = self.searches
        counts["oracle.random_search.hits"] = self.hits
        return counts


def _judge(op, rc, out, checker, corrupt, failures, tally) -> bool:
    if corrupt:
        out = checks.corrupt(op, out, corrupt)
    found, facts = checker.check(op, rc, out)
    tally.add(op, facts)
    if found:
        failures.append(f"op {op.index} {op.cmd} {op.meta}: {'; '.join(found)}")
    return not found


def _loop(ops, seconds, one_op) -> dict:
    """Whole passes over ops until `seconds` of measured time is reached."""
    measured, passes, summaries, failures = 0.0, 0, [], []
    while passes == 0 or measured < seconds:
        tally = Pass()
        for op in ops:
            measured += one_op(op, tally, failures)
        passes += 1
        summaries.append(tally.summary())
    problems = [f"pass {i} counts differ from pass 0" for i, s in enumerate(summaries) if s != summaries[0]]
    return {"passes": passes, "counts": summaries[0], "failed": len(failures),
            "problems": problems + failures, "measured_s": measured}


def per_input(times: list[float], ops) -> list[tuple[str, float]]:
    """(command, median over its passes) per input, from times listed pass
    by pass.

    Medians and tails are taken over these per-input values: an input's
    repeats are spread across the run, so their median rides out the
    stretches of seconds in which other tenants of a shared machine slow
    everything down, and a command's median never falls between the
    samples of two inputs of very different cost.
    """
    return [(op.cmd, statistics.median(times[op.index :: len(ops)])) for op in ops]


def timed_loop(ops, paths, seconds, checker, corrupt) -> dict:
    times: list[float] = []
    cal = calibrate.Calibration()
    cal.after(0, 0.0)

    def one_op(op, tally, failures):
        rc, out, dt = run_cli(op.argv(paths.get(op.file)))
        times.append(dt)
        cal.after(len(times), dt)
        _judge(op, rc, out, checker, corrupt, failures, tally)
        return dt

    run = _loop(ops, seconds, one_op)
    scaled = [dt * s for dt, s in zip(times, cal.scales(len(times)))]
    typical = per_input(scaled, ops)
    raw = per_input(times, ops)
    run.update(attempted=len(times), typical=typical, tail=tail([dt for _, dt in typical]),
               scaled_s=sum(scaled),
               calibration={"samples": len(cal.seconds), "median_s": statistics.median(cal.seconds),
                            "nominal_s": calibrate.NOMINAL_S,
                            "quartiles_s": statistics.quantiles(cal.seconds, n=4)},
               raw_metrics=command_metrics(raw, len(times) / run["measured_s"]),
               command_seconds=per_command(zip((op.cmd for op in ops * run["passes"]), times)))
    return run


def traced_loop(ops, paths, seconds, checker, corrupt) -> dict:
    import tracing

    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []

    def one_op(op, tally, failures):
        argv = op.argv(paths.get(op.file))
        rc, out, dt = run_cli(argv)
        tracer.op = len(plain)
        buf = io.StringIO()
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc_t = tracing.replay(argv, tracer)
        except Exception as exc:  # the op fails; the run goes on
            rc_t = f"raised {type(exc).__name__}: {exc}"
        dt_t = time.perf_counter() - start
        plain.append(dt)
        traced.append(dt_t)
        if _judge(op, rc, out, checker, corrupt, failures, tally) and (rc_t, buf.getvalue()) != (rc, out):
            failures.append(f"op {op.index} {op.cmd}: traced replay differs from the command ({rc_t})")
        return dt + dt_t

    run = _loop(ops, seconds, one_op)
    run.update(attempted=len(plain), tracer=tracer, inputs=len(ops), tail=None, calibration=None,
               plain=per_input(plain, ops), traced=per_input(traced, ops),
               command_seconds=per_command(zip((op.cmd for op in ops * run["passes"]), plain)))
    return run


def count_problems(workload: str, seed: int, digest: str, source: str, counts: dict) -> list[str]:
    """Counts must repeat exactly for the same inputs and the same sources."""
    where = WORK / "counts" / f"{workload}-seed{seed}-{digest[:16]}-{source[:16]}.json"
    if where.is_file():
        before = json.loads(where.read_text())
        if before != counts:
            return [f"counts differ from an earlier run with seed {seed}: {before} vs {counts}"]
        return []
    where.parent.mkdir(parents=True, exist_ok=True)
    where.write_text(json.dumps(counts))
    return []


def write_spans(workload: str, seed: int, tracer) -> None:
    where = WORK / "spans"
    where.mkdir(parents=True, exist_ok=True)
    with open(where / f"{workload}-seed{seed}.jsonl", "w") as fh:
        for name, start, end, parent, op, raised in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                 "op": op, "raised": raised}) + "\n")


# ---------------------------------------------------------------------------
# metrics


def quantile(values: list[float], q: float) -> float:
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(values: list[float]) -> dict:
    """The highest percentile that still has 10 samples beyond it (the
    median when there are fewer than 20)."""
    n = len(values)
    q = max(0.5, 1 - 10 / n)
    return {"percentile": 100 * q, "samples": n, "beyond": n * (1 - q),
            "value_ms": 1000 * quantile(values, q)}


def per_command(samples) -> dict:
    """Total untraced seconds and op count per command."""
    out: dict[str, list] = {}
    for cmd, dt in samples:
        tot = out.setdefault(cmd, [0.0, 0])
        tot[0] += dt
        tot[1] += 1
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def command_metrics(typical, ops_per_s) -> dict:
    times = [dt for _, dt in typical]
    m = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": 1000 * statistics.median(times),
        "op_tail_ms": tail(times)["value_ms"],
    }
    for c in COMMANDS:
        m[f"{c}_p50_ms"] = 1000 * statistics.median(dt for cmd, dt in typical if cmd == c)
    return m


def e2e_metrics(run, setup) -> dict:
    """Timings at the nominal speed of calibrate.py."""
    m = {"setup_s": setup["setup_s"], **command_metrics(run["typical"], run["attempted"] / run["scaled_s"])}
    m["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {k: _metric(m[k], E2E_UNITS[k]) for k in E2E_UNITS}


def layer_metrics(run, setup) -> dict:
    """Layer self times are each layer's median over the passes."""
    tracer = run["tracer"]
    counts = run["counts"]
    per_pass = [dict.fromkeys(LAYER_TIMES, 0.0) for _ in range(run["passes"])]
    for (op_id, name), seconds in tracer.self_times().items():
        per_pass[op_id // run["inputs"]][name] += seconds
    m = {metric: _metric(statistics.median(p[span] for p in per_pass), "s")
         for span, metric in LAYER_TIMES.items()}
    for key in COUNT_KEYS:
        m[key] = _metric(counts[key], "count")
    codewords = counts["gf2.gray_codewords"]
    m["gf2.gray_ns_per_codeword"] = _metric(1e9 * m["gf2.gray_s"]["value"] / max(codewords, 1), "ns")
    checked = counts["embedding.embeddings_checked"]
    m["embedding.minimal_ratio"] = _metric(
        counts["embedding.minimal_embeddings"] / checked if checked else 1.0, "ratio")
    calls = counts["oracle.random_search.calls"]
    m["oracle.random_search.hit_ratio"] = _metric(
        counts["oracle.random_search.hits"] / calls if calls else 1.0, "ratio")
    m["setup.import_s"] = _metric(setup["import_s"], "s")
    m["constructions.seed_load_s"] = _metric(setup["seed_load_s"], "s")
    m["constructions.seeds_loaded"] = _metric(setup["seeds"], "count")
    errors = tracer.errors()
    errors["cli"] += run["failed"]
    for layer, n in errors.items():
        m[f"{layer}.errors"] = _metric(n, "count")
    plain_ms = 1000 * statistics.fmean(dt for _, dt in run["plain"])
    traced_ms = 1000 * statistics.fmean(dt for _, dt in run["traced"])
    m["trace.untraced_op_ms"] = _metric(plain_ms, "ms")
    m["trace.traced_op_ms"] = _metric(traced_ms, "ms")
    m["trace.overhead_ms"] = _metric(traced_ms - plain_ms, "ms")
    return m


if __name__ == "__main__":
    sys.exit(main())
