"""Benchmark entry point for orlicztf.

    python3 benchmark/run.py --workload {battery,phase_space_sweep,cli_requests}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  It compiles the package's bytecode, then
runs the workload in fresh single-process runs of benchmark/workloads.py,
one after another, each with one BLAS thread.

With --trace 0 the timed rounds are split over PROCESSES worker processes,
each measuring for its share of --seconds: run time on this kind of shared
machine moves with the process as well as with the clock, and pooling the
rounds of several processes steadies the medians.  setup_s is the median
set-up time of SETUPS processes (the extra ones only set up).
With --trace 1 one process runs the timed rounds untraced, then one traced
round, and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object {"correct",
"attempted", "failed", "metrics"}; the full record, and with --trace 1 the
span table, go to .bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("battery", "phase_space_sweep", "cli_requests")
SETUPS = 3
PROCESSES = 2
MIN_REQUESTS = 100  # cli_requests: successes per run, so p90 has a tail
BLAS_THREADS = "1"
DEADLINE_S = 170.0

END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "request_p50_ms", "request_p90_ms")
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "request_p50_ms": "ms",
         "request_p90_ms": "ms"}


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["ORLICZ_TF_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline: float, seconds: float, min_successes: int = 0,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--min-successes", str(min_successes)]
    if setup_only:
        cmd.append("--setup-only")
    env = worker_env()
    env["BENCH_T0"] = repr(time.monotonic())
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"benchmark: {args.workload} worker passed the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: {args.workload} worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit("benchmark: worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    package = os.path.join(ROOT, "src", "orlicztf")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"benchmark: no orlicztf package under {ROOT}/src", file=sys.stderr)
        return 2
    # Users pay bytecode compilation once per install; a fresh checkout
    # would otherwise pay it inside the first run's set-up.
    if not (compileall.compile_dir(package, quiet=1)
            and compileall.compile_dir(HERE, quiet=1)):
        print("benchmark: bytecode compilation failed", file=sys.stderr)
        return 2

    if args.trace:
        runs = [run_worker(args, deadline, args.seconds, MIN_REQUESTS)]
        setups = [runs[0]["setup_s"]]
    else:
        runs = [run_worker(args, deadline, args.seconds / PROCESSES,
                           -(-MIN_REQUESTS // PROCESSES))
                for _ in range(PROCESSES)]
        setups = [r["setup_s"] for r in runs]
        setups += [run_worker(args, deadline, 0.0, setup_only=True)["setup_s"]
                   for _ in range(SETUPS - PROCESSES)]

    walls = [w for r in runs for w in r["walls_s"]]
    latencies = [v for r in runs for v in r["latencies_ms"]]
    unexpected = [u for r in runs for u in r["unexpected"]]
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in runs[0]["per_layer"].items()}
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(walls),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
        if latencies:
            values["request_p50_ms"] = statistics.median(latencies)
            values["request_p90_ms"] = statistics.quantiles(latencies, n=10)[8]
        else:
            # One request is one whole round here; a run holds too few
            # rounds for a tail, so the median stands in for the 90th
            # percentile.
            values["request_p50_ms"] = values["request_p90_ms"] = 1000.0 * values["wall_s"]
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in END_TO_END}
    correct = not unexpected
    for what in unexpected:
        print(f"benchmark: unexpected failure: {what}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    os.makedirs(OUT, exist_ok=True)
    kind = "trace" if args.trace else "result"
    record = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  correct=correct, attempted=attempted, failed=failed, metrics=metrics,
                  setups_s=setups, processes=runs, blas_threads=BLAS_THREADS,
                  nproc=os.cpu_count(), python=sys.version.split()[0])
    with open(os.path.join(OUT, f"{kind}-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"benchmark: {args.workload} seed={args.seed} processes={len(runs)} "
          f"rounds={len(walls)} BLAS threads={BLAS_THREADS} nproc={os.cpu_count()}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
