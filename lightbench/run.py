#!/usr/bin/env python3
"""Whole-pipeline benchmark of the Light record/replay system.

    python3 lightbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the benchmark from the source tree on first use (CMake, into
$CARGO_TARGET_DIR/lightbench or .bench_build/lightbench at the repository
root), then runs one workload and passes its output through. The last line
of stdout is the JSON result; a traced run (--trace 1) also leaves its
spans in spans/<workload>-seed<N>.json beside the build. Further flags
(--tiny, --negative-control, --size N, --spans-out F) go to the benchmark
binary unchanged; README.md lists them. Exits nonzero without a result when the build fails, for
instance in a directory that holds the benchmark but not the program.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("record-mt", "reproduce-dense", "stream-scale", "explore-suite")


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build():
    """Configures and builds the benchmark binary; returns its path or None."""
    out = os.path.join(build_root(), "lightbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    make = ["cmake", "--build", out, "--target", "lightbench", "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "lightbench")


def main(argv):
    args = list(argv)

    def value(flag):
        i = args.index(flag) + 1 if flag in args else len(args)
        return args[i] if i < len(args) else None

    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        if value(flag) is None:
            print(f"run.py: missing {flag} <value>", file=sys.stderr)
            return 2
    workload = value("--workload")
    if workload not in WORKLOADS:
        print(f"run.py: unknown workload {workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    extra = ["--work-dir", os.path.join(build_root(), "work")]
    if value("--trace") == "1" and "--spans-out" not in args:
        # Keep the traced run's spans for inspection.
        spans = os.path.join(build_root(), "spans")
        os.makedirs(spans, exist_ok=True)
        name = f"{workload}-seed{value('--seed')}.json"
        extra += ["--spans-out", os.path.join(spans, name)]
    sys.stdout.flush()
    return subprocess.run([binary, *args, *extra]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
