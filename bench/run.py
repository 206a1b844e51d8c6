"""Benchmark of the `cga` command.  See bench/README.md.

    python3 bench/run.py --workload generate --seed 1 --seconds 36 --trace 0

Runs one workload from the root of a source checkout, checks its outputs
and prints, as the last line of stdout, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` gives the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run.
`--workload all` runs every workload in its own process and prints one
table of every metric with its unit and the failure ratio.
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
from pathlib import Path
from time import perf_counter

from cgabench.metrics import END_TO_END, PER_LAYER, LayerProbe
from cgabench.workloads import WORKLOADS, Outcome, count_failures, outcome_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MAX_THREADS = 2
# set-up repetitions before and after the timed passes, so that their
# median spans the run rather than one moment of it
SETUP_BEFORE, SETUP_AFTER = 2, 2
MIN_PASSES = 3  # timed passes of an untraced run
MIN_PAIRS = 2  # (untraced, traced) pass pairs of a traced run

# Set-up in a fresh interpreter: import cga, write the input files and
# run the cga calls that build the rest.  Prints its own duration.
SETUP_SCRIPT = r"""
import contextlib, io, json, os, sys, time
t0 = time.perf_counter()
spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
import cga.cli
if not os.path.realpath(cga.cli.__file__).startswith(spec["src"] + os.sep):
    sys.exit("cga imported from outside the checkout: " + cga.cli.__file__)
for name, text in spec["files"].items():
    with open(name, "w", newline="\n") as fh:
        fh.write(text)
for argv in spec["calls"]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cga.cli.main(argv)
    if rc != 0:
        sys.exit(f"set-up call {argv} exited with {rc}")
print(json.dumps({"seconds": time.perf_counter() - t0}))
"""


def import_cga():
    """Import `cga` from this checkout's `src`, never from elsewhere."""
    if not (SRC / "cga" / "__init__.py").is_file():
        raise SystemExit(f"error: no cga sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cga.cli

    if not Path(cga.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: cga imported from {cga.cli.__file__}, not from {SRC}")
    return cga.cli


def setup_once(wl, where: Path) -> tuple[float, list]:
    """Build the inputs in a fresh interpreter, in directory `where`.
    Returns the set-up time and a digest of the files built."""
    where.mkdir(parents=True)
    spec = json.dumps({"src": str(SRC), "files": wl.setup_files(), "calls": wl.setup_calls()})
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, spec],
        cwd=where, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    digest = sorted((p.name, hashlib.sha256(p.read_bytes()).digest()) for p in where.iterdir())
    return json.loads(proc.stdout.splitlines()[-1])["seconds"], digest


def make_runner(cli):
    """A function that runs one call through `cli.main` and returns its
    time and outcome."""

    def run_call(call) -> tuple[float, Outcome]:
        # a call that writes no file must not be credited with the last one
        out = Path(call.output) if call.output else None
        if out is not None:
            out.unlink(missing_ok=True)
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(list(call.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        wall = perf_counter() - t0
        output = out.read_bytes() if out is not None and out.exists() else None
        return wall, Outcome(rc, buf.getvalue(), output)

    return run_call


def run_pass(run_call, calls) -> tuple[float, list]:
    # start every pass from the same heap: no cycles left by the last one
    gc.collect()
    wall, outcomes = 0.0, []
    for call in calls:
        seconds, outcome = run_call(call)
        wall += seconds
        outcomes.append(outcome)
    return wall, outcomes


def environment(wl) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "threads": wl.threads,
    }


def run_workload(args, work: Path) -> dict:
    cli = import_cga()
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    wl = WORKLOADS[args.workload](args.seed, threads)
    setups = [setup_once(wl, work / f"setup{k}") for k in range(1 if args.trace else SETUP_BEFORE)]
    os.chdir(work / "setup0")
    run_call = make_runner(cli)

    def untimed(call):
        return run_call(call)[1]

    wl.prepare(untimed)
    calls = wl.calls()

    first, keys, walls, traced_walls, per_pass, missing = None, [], [], [], [], []

    def record(outcomes: list) -> None:
        nonlocal first
        first = first or outcomes
        keys.append([outcome_key(o) for o in outcomes])

    start = perf_counter()
    if not args.trace:
        while len(walls) < MIN_PASSES or perf_counter() - start < args.seconds:
            wall, outcomes = run_pass(run_call, calls)
            walls.append(wall)
            record(outcomes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        # alternate which of a pair goes first, so neither side always
        # runs on a warmer cache
        pair = 0
        while pair < MIN_PAIRS or perf_counter() - start < args.seconds:
            for traced in (pair % 2 == 1, pair % 2 == 0):
                if traced:
                    with LayerProbe() as probe:
                        wall, outcomes = run_pass(run_call, calls)
                    traced_walls.append(wall)
                    per_pass.append(probe.metrics())
                    missing = probe.missing
                else:
                    wall, outcomes = run_pass(run_call, calls)
                    walls.append(wall)
                record(outcomes)
            pair += 1

    if not args.trace:
        setups += [setup_once(wl, work / f"setup{k}")
                   for k in range(SETUP_BEFORE, SETUP_BEFORE + SETUP_AFTER)]
    attempted, failed = count_failures(wl, first, keys, untimed)
    # each set-up is one more operation: it fails if it built other bytes
    attempted += len(setups)
    failed += sum(digest != setups[0][1] for _, digest in setups)
    wall = statistics.median(walls)
    if not args.trace:
        values = {
            "setup_s": statistics.median(seconds for seconds, _ in setups),
            "wall_s": wall,
            "peak_rss_mb": peak_rss_mb,
            "edges_per_s": wl.work.edges / wall,
            "trials_per_s": wl.work.graphs / wall,
            "calls_per_s": wl.work.calls / wall,
        }
        units = END_TO_END
    else:
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["oracle.sets_checked"] = wl.work.sets_checked
        values["experiments.csv_bytes"] = wl.work.csv_bytes
        values["experiments.sets_scanned"] = wl.work.sets_scanned
        values["experiments.thread_speedup"] = wl.reference_wall / wall
        values["trace.overhead_ratio"] = statistics.median(traced_walls) / wall
        units = PER_LAYER

    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(environment(wl))}")
    print(f"# inputs {json.dumps(wl.sizes)}")
    print(f"# passes={len(keys)} pass_walls_s={[round(w, 4) for w in walls + traced_walls]}")
    if missing:
        print(f"# not traced, absent from cga: {', '.join(missing)}")
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# fail_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def run_all(args) -> int:
    """Every workload, each in its own process, then one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(f"{'workload':<10} {'metric':<42} {'value':>14} unit")
    for name, res in results.items():
        for metric, entry in res["metrics"].items():
            print(f"{name:<10} {metric:<42} {entry['value']:>14.6g} {entry['unit']}")
        print(f"{name:<10} {'fail_ratio':<42} {res['failed'] / res['attempted']:>14.6g} "
              f"({res['failed']}/{res['attempted']})")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(args, work)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
