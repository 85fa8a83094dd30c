#!/usr/bin/env python3
"""Builds st4ml_bench from source and runs benchmark workloads.

One workload, the form a benchmark runner invokes:
    python3 perfbench/run.py --workload apps_cold --seed 1 --seconds 15 \
        --trace 0

All four workloads, each in its own process:
    python3 perfbench/run.py [--seed N] [--traced]

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build)/perfbench; each run stages its data into a fresh directory
under $CARGO_TARGET_DIR/runs that is removed afterwards. A traced run also
writes a Chrome-trace JSON under $CARGO_TARGET_DIR/traces. Output: one JSON
line per metric, then the result object as the last line. Exits non-zero
on a failed build, a crash, a timeout or a wrong answer.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["apps_cold", "serve_warm", "serve_thrash", "ingest_mixed"]
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures once, then builds incrementally; build logs go to stderr."""
    build_dir = os.path.join(target_dir(), "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    compile_cmd = ["cmake", "--build", build_dir, "--target", "st4ml_bench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "st4ml_bench")


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its exit code."""
    runs = os.path.join(target_dir(), "runs")
    run_dir = os.path.join(runs, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # Nothing from the caller's environment may steer the engine (cache
    # budget, backend, executor, disk index); temp files stay in the run dir.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ST4ML_")}
    env["TMPDIR"] = run_dir
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--data-dir=" + os.path.join(run_dir, "data")]
    if trace:
        traces = os.path.join(target_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace-out=" + os.path.join(
            traces, "%s-seed%d.json" % (workload, seed)))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              universal_newlines=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("st4ml_bench: %s timed out" % workload, file=sys.stderr)
        return 124
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        print("st4ml_bench: %s exited with %d" % (workload, proc.returncode),
              file=sys.stderr)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    args = parser.parse_args()
    trace = 1 if args.traced else args.trace

    binary = build()
    if binary is None:
        print("st4ml_bench: build failed", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else WORKLOADS
    status = 0
    for workload in workloads:
        code = run_workload(binary, workload, args.seed, args.seconds, trace)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
