#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the paper networks.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the library sources and the benchmark (perfbench/CMakeLists.txt)
into .bench_build/ at the repository root, runs one workload and passes
the benchmark's output through; its last line is the result object. Build
output goes to stderr. Exits non-zero, without a result line, when the
build or the run fails.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["resnet18_batch", "vgg32_overload", "alexnet_linked"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Run to completion; if interrupted, kill the child and wait for it."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:  # timeout, Ctrl-C or SIGTERM: stop the child
            proc.kill()
            proc.wait()
            raise
        return proc.returncode, out


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        code, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, target)


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        code, out = run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"], 30,
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                        env=env, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.strip() if code == 0 and out.strip() else "unknown"


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if args.selftest:
        code, _ = run([build("qnn_perfbench_selftest")], RUN_TIMEOUT_S)
        sys.exit(code)

    binary = build("qnn_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-rev", git_rev()]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        code, _ = run(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    if code != 0:
        sys.exit(f"perfbench: benchmark exited with code {code}")


if __name__ == "__main__":
    main()
