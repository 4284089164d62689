#!/usr/bin/env python3
"""Builds and runs the sim2rec benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload train-lts --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 perfbench/run.py --self-test           # the harness's own tests

The first run configures and builds the repository and the benchmark
binary into .bench_build/ at the repository root (the library with its
default build type; nothing but sizes, seeds, shard count, addresses and
action bounds is set by the benchmark). Build output goes to standard
error; the benchmark's last line on standard output is its JSON result.
The exit code is non-zero when the build fails or a correctness check
fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["train-lts", "train-dpr", "serve-open"]
# A run must end within 180 s; the binary is stopped before that.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=log,
                               stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" %
                                 " ".join(step[:2]))
                return False
    return True


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run(args):
    env = dict(os.environ, PERFBENCH_REVISION=revision())
    try:
        return subprocess.run([BINARY] + args, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")
    if not build():
        return 1
    work_dir = os.path.join(".bench_build", "perfbench-work")
    if args.self_test:
        return run(["--self-test", "--work-dir", work_dir])
    status = 0
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        sys.stdout.flush()
        rc = run(["--workload", workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--work-dir", work_dir])
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
