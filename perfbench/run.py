#!/usr/bin/env python3
"""Builds the engine and runs one benchmark workload.

    python3 perfbench/run.py --workload tc_batch --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. It builds the engine library, the
`idlog` CLI and the `perfbench` program from the checkout's sources
(Release, into $CARGO_TARGET_DIR if set, else .bench_build), runs the
workload in .bench_work/ and prints the result as the last line of
standard output. Build output and a readable summary go to standard
error; the full report, with stamps and (for --trace 1) the spans, is
written to .bench_work/reports/.

Workloads: tc_batch, tc_parallel, id_sampling, update_session (see
perfbench/README.md).
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tc_batch", "tc_parallel", "id_sampling", "update_session")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no engine sources under {root}/src")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs,
                   "--target", "perfbench", "idlog_cli"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (no git metadata)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    build(root, build_dir)

    work = os.path.join(root, ".bench_work")
    run_dir = os.path.join(work, f"{args.workload}-{args.seed}-t{args.trace}")
    reports = os.path.join(work, "reports")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(reports, exist_ok=True)
    report = os.path.join(
        reports, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", run_dir,
           "--cli", os.path.join(build_dir, "tools", "idlog"),
           "--report", report, "--git-sha", git_sha(root)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"perfbench exited with status {proc.returncode}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
