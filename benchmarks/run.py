"""Closed-loop benchmark of the mpcquant CLI and of square-root branch tracking.

Run from the repository root:

    python3 benchmarks/run.py --workload lattice --seed 1 --seconds 20 --trace 0

One client runs one operation at a time.  CLI workloads start a fresh
`python -m mpcquant.cli` child per document; the `branch` workload calls
`mpcquant.mpc.track_sqrt` in this process.  BLAS threads are capped at 1 in
both.  Every outcome is checked against the oracles in `oracles.py`, which
never call mpcquant.

A run is a fixed number of whole cycles of operations (see `cycle_count`):
the count depends on the workload and `--seconds` only, never on how fast
the program is, so every commit measures the same documents.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same documents
through the CLI for a third of the time, replays them in process through
`mpcquant.cli.main(argv)` untraced and then traced (see `tracing.py`),
checks that machine reports and SVGs are byte-identical across the three,
and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `failed` counts operations
that broke any check; `correct` is false when an answer to a well-formed
document was wrong, a replay was not byte-identical, or an oracle failed its
self-test.  A malformed document that is accepted, or that ends in a
traceback, counts in `failed` but leaves `correct` true.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_CAP = "1"
perf_counter = time.perf_counter

SETUP_REPEATS = 21
OP_TIMEOUT_S = 120.0
TRACE_SUBPROCESS_SHARE = 1 / 3
# Tail percentile of latency_tail_s per workload.
TAIL_PCT = {"lattice": 75, "holonomy": 80, "verdicts": 90, "branch": 90}
# Seconds one cycle took at the seed (summed operation latency, 2 shared
# vCPUs).  They turn --seconds into a cycle count once, here; they are not
# re-measured, so the count stays the same when the program gets faster.
CYCLE_SECONDS = {"lattice": 8.0, "holonomy": 3.8, "verdicts": 1.8, "branch": 0.7}

# Names and units of the metrics, as declared in BENCHMARK.json.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
DECLARED = {0: [m["name"] for m in SPEC["end_to_end"]], 1: [m["name"] for m in SPEC["per_layer"]]}


@dataclass
class Outcome:
    op: workloads.Op
    latency: float
    rc: int = 0
    rss_kb: int = 0
    problems: list = field(default_factory=list)
    stdout: bytes = b""
    svg: bytes = None
    mu: complex = None


# ------------------------------------------------------------------ helpers

def cycle_count(workload, seconds, cycle_len) -> int:
    """Whole cycles in a run of `seconds` at the seed's speed, and never
    fewer than leave ten operations beyond the workload's tail percentile."""
    tail_ops = -(-1000 // (100 - TAIL_PCT[workload]))  # ceil(10 / (1 - p/100))
    return max(-(-tail_ops // cycle_len), round(seconds / CYCLE_SECONDS[workload]))


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def spawn(argv, env, cwd: Path, err):
    """Run a child to completion: (wall time from spawn to exit with stdout
    fully read, exit code, stdout bytes, resource usage).  The child's
    stderr goes to the open file `err`.  Waiting is a blocking wait4, not a
    polling loop, so the time has no sleep granularity in it."""
    t0 = perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
    timer = threading.Timer(OP_TIMEOUT_S, child.kill)
    timer.start()
    try:
        out = child.stdout.read()
    finally:
        child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
        timer.cancel()
    wall = perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, child.returncode, out, usage


def setup_probe(env, work: Path, err):
    """A callable timing one fresh interpreter that imports mpcquant.cli."""
    argv = [sys.executable, "-c", "import mpcquant.cli"]

    def probe():
        wall, rc, _, _ = spawn(argv, env, work, err)
        if rc != 0:
            raise RuntimeError(f"importing mpcquant.cli failed with exit code {rc}")
        return wall

    return probe


def closed_loop(ops, run_op):
    """Run the operations one at a time; return their outcomes and summed
    latency."""
    outcomes = [run_op(op, index) for index, op in enumerate(ops)]
    return outcomes, sum(o.latency for o in outcomes)


def is_machine(op) -> bool:
    return "--format" in op.flags and op.flags[op.flags.index("--format") + 1] == "machine"


def cli_argv(op, work: Path, index: int):
    name = f"absent-{index:05d}.json" if op.missing else f"d{index:05d}.json"
    inp = work / name
    if not op.missing:
        inp.write_text(op.document_text(), encoding="utf-8")
    argv = [op.command, "--input", str(inp)] + list(op.flags)
    svg = None
    if op.command == "render":
        svg = work / f"d{index:05d}.svg"
        argv += ["--output", str(svg)]
    return argv, svg


def read_svg(path):
    if path is None or not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    return data


# ------------------------------------------------------------- operations

def cli_runner(env, work: Path, err, keep_bytes: bool):
    """A callable running one CLI operation in a child process: the clock
    runs from spawn to exit with stdout fully read; the oracle check comes
    after.  `err` is an open file that takes the child's stderr."""
    def run_op(op, index):
        argv, svg_path = cli_argv(op, work, index)
        err.seek(0)
        err.truncate()
        latency, rc, out, usage = spawn(
            [sys.executable, "-m", "mpcquant.cli"] + argv, env, work, err)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
        svg = read_svg(svg_path)
        outcome = Outcome(op, latency, rc, usage.ru_maxrss)
        outcome.problems = oracles.check_cli(
            op, outcome.rc, out.decode("utf-8", "replace"), stderr, svg)
        if keep_bytes:
            outcome.stdout = out if is_machine(op) else b""
            outcome.svg = svg
        return outcome

    return run_op


def call_main(main, argv):
    """mpcquant.cli.main(argv) in process: (exit code, stdout, stderr,
    uncaught exception or None)."""
    out, err = io.StringIO(), io.StringIO()
    uncaught = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback in the CLI: record it, keep going
            traceback.print_exc()
            rc, uncaught = 1, exc
    return rc, out.getvalue(), err.getvalue(), uncaught


def replay(outcomes, main, work: Path, tracer=None):
    """Replay CLI operations in process; return per-op wall times, root
    span durations and the number of operations whose exit code, machine
    report or SVG differs from the subprocess run."""
    walls, roots, mismatched = [], [], []
    for index, outcome in enumerate(outcomes):
        op = outcome.op
        argv, svg_path = cli_argv(op, work, index)
        if tracer is not None:
            tracer.doc = index
            root = len(tracer.spans)
        t0 = perf_counter()
        rc, out, _, uncaught = call_main(main, argv)
        walls.append(perf_counter() - t0)
        if tracer is not None:
            span = tracer.spans[root]
            roots.append(span[tracing.END] - span[tracing.START])
            if uncaught is not None:
                tracer.counts["cli.uncaught"] += 1
        svg = read_svg(svg_path)
        same = rc == outcome.rc and svg == outcome.svg
        if is_machine(op):
            same = same and out.encode("utf-8") == outcome.stdout
        if not same:
            mismatched.append(index)
    return walls, roots, mismatched


def branch_runner(mpc, error_type):
    """A callable running one in-process track_sqrt operation; the path is
    built before the clock starts."""
    def run_op(op, index):
        path = workloads.build_path(op.spec)
        t0 = perf_counter()
        mu, error_name = track(mpc.track_sqrt, path, op.spec["steps"], error_type)
        outcome = Outcome(op, perf_counter() - t0, mu=mu)
        outcome.problems = oracles.check_branch(op.spec, mu, error_name)
        return outcome

    return run_op


def track(track_sqrt, path, steps, error_type):
    try:
        return track_sqrt(path, steps), None
    except error_type as exc:
        return None, type(exc).__name__
    except Exception as exc:  # a defect in the program: report, keep going
        return None, f"uncaught {type(exc).__name__}: {exc}"


def branch_replay(outcomes, mpc, error_type, tracer=None):
    walls, roots, mismatched = [], [], []
    for index, outcome in enumerate(outcomes):
        spec = outcome.op.spec
        path = workloads.build_path(spec)
        if tracer is not None:
            tracer.doc = index
            root = len(tracer.spans)
            if callable(path):
                path = tracer.tally("bench.path", path)
        t0 = perf_counter()
        mu, error_name = track(mpc.track_sqrt, path, spec["steps"], error_type)
        walls.append(perf_counter() - t0)
        if tracer is not None:
            span = tracer.spans[root]
            roots.append(span[tracing.END] - span[tracing.START])
            want = oracles.expected_mu(spec)
            if mu is not None and want is not None:
                tracer.maxima["mpc.max_abs_err"] = max(
                    tracer.maxima["mpc.max_abs_err"], abs(mu - want))
        if mu != outcome.mu:
            mismatched.append(index)
    return walls, roots, mismatched


# ---------------------------------------------------------------- metrics

def end_to_end(outcomes, busy, setup_s, peak_rss_kb, pct):
    lat = [o.latency for o in outcomes]
    failed = sum(1 for o in outcomes if o.problems)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": statistics.quantiles(lat, n=100, method="inclusive")[pct - 1],
        "docs_per_s": len(outcomes) / busy,
        "ok_frac": (len(outcomes) - failed) / len(outcomes),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    by_kind = {}
    for o in outcomes:
        by_kind.setdefault(o.op.kind, []).append(o.latency)
    notes = [f"  {kind:40s} n={len(v):4d}  median {statistics.median(v):.4f} s"
             for kind, v in sorted(by_kind.items())]
    notes += [f"samples: {len(lat)} operations, {SETUP_REPEATS} interpreter starts",
             f"latency_tail_s is p{pct} ({len(lat) * (100 - pct) // 100} samples beyond)",
             f"failed_frac = {failed / len(outcomes):.4f} ({failed} of {len(outcomes)})"]
    return metrics, notes


def import_mpcquant(src: Path):
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import mpcquant
    import mpcquant.cli  # noqa: F401  (binds every submodule the tracer wraps)
    import mpcquant.errors
    return mpcquant


def environment_line() -> str:
    return (f"python {platform.python_version()}, numpy {importlib.metadata.version('numpy')}, "
            f"nproc {os.cpu_count()}, BLAS threads capped at {BLAS_CAP} ({', '.join(BLAS_VARS)})")


def traced_replay(workload, outcomes, src: Path, work: Path):
    """Replay the operations in process untraced, then traced; return the
    per-layer metrics, the tracer and the indices of operations whose
    outputs differ between the subprocess run and either replay."""
    mq = import_mpcquant(src)
    error_type = mq.errors.MpcquantError
    tracer = tracing.Tracer(error_type)
    if workload == "branch":
        def again(t=None):
            return branch_replay(outcomes, mq.mpc, error_type, t)
    else:
        def again(t=None):
            main = t.span("cli.main", mq.cli.main) if t else mq.cli.main
            return replay(outcomes, main, work, t)
    untraced, _, mism_u = again()
    tracer.install(mq)
    try:
        walls, roots, mism_t = again(tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, walls, roots, sum(untraced))
    return metrics, tracer, set(mism_u) | set(mism_t)


def run(args, src: Path, work: Path):
    """One benchmark run; returns (result dict, lines to print first)."""
    lines = [environment_line()]
    broken = selftest.run_selftests()
    for name in broken:
        lines.append(f"SELFTEST FAILED: an oracle misjudged a planted answer ({name})")
    env = child_env(src)
    cycles = workloads.WORKLOADS[args.workload](args.seed)
    first = next(cycles)
    if args.trace:
        seconds = args.seconds * (0.5 if args.workload == "branch" else TRACE_SUBPROCESS_SHARE)
        count = max(1, round(seconds / CYCLE_SECONDS[args.workload]))
    else:
        count = cycle_count(args.workload, args.seconds, len(first))
    ops = [op for cycle in itertools.chain([first], itertools.islice(cycles, count - 1))
           for op in cycle]
    with open(work / "stderr.txt", "w+b") as err:
        if not args.trace:
            # Interpreter starts, in one block before the operations.
            probe = setup_probe(env, work, err)
            probe()  # warm-up: fills the bytecode cache, as an installed package has it
            setup_times = [probe() for _ in range(SETUP_REPEATS)]
        if args.workload == "branch":
            mq = import_mpcquant(src)
            run_op = branch_runner(mq.mpc, mq.errors.MpcquantError)
        else:
            run_op = cli_runner(env, work, err, keep_bytes=bool(args.trace))
        outcomes, busy = closed_loop(ops, run_op)
    failed_ops = {i for i, o in enumerate(outcomes) if o.problems}
    wrong = any(o.problems and not o.op.malformed for o in outcomes)

    if args.trace:
        metrics, tracer, mismatched = traced_replay(args.workload, outcomes, src, work)
        for i in sorted(mismatched):
            lines.append(f"NOT DETERMINISTIC: operation {i} ({outcomes[i].op.kind}) differs "
                         "between the subprocess run and the in-process replay")
        failed_ops |= mismatched
        wrong = wrong or bool(mismatched)
        spans_file = work.parent / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.to_records()), encoding="utf-8")
        lines.append(f"traced {len(outcomes)} operations, {len(tracer.spans)} spans -> {spans_file}")
    else:
        if args.workload == "branch":
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = max(o.rss_kb for o in outcomes)
        metrics, notes = end_to_end(outcomes, busy, statistics.median(setup_times), peak_kb,
                                    TAIL_PCT[args.workload])
        lines.extend(notes)
    if sorted(metrics) != sorted(DECLARED[args.trace]):
        raise RuntimeError("the metrics measured differ from those declared in BENCHMARK.json")
    lines.extend(failure_lines(outcomes))
    for name, value in metrics.items():
        lines.append(f"{name:32s} {value:>14.6g} {UNITS[name]}")
    result = {
        "correct": not wrong and not broken,
        "attempted": len(outcomes),
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    return result, lines


def failure_lines(outcomes):
    seen = {}
    for o in outcomes:
        for problem in o.problems:
            key = (o.op.kind, problem)
            seen[key] = seen.get(key, 0) + 1
    return [f"FAILED x{count} {kind}: {problem}" for (kind, problem), count in sorted(seen.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_VARS:  # before numpy is imported here or in a child
        os.environ[var] = BLAS_CAP
    root = Path.cwd()
    src = root / "src"
    if not (src / "mpcquant" / "cli.py").is_file():
        print(f"error: {src / 'mpcquant' / 'cli.py'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, lines = run(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
