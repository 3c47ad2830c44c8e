#!/usr/bin/env python3
"""Build and run the colmr end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the
library from ../src) in Release mode into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Traced runs write their spans under
<build dir>/traces/. Without the library sources next to perfbench/,
the script exits with status 2 and prints no result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "2"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build(target):
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE not in f.read():
                shutil.rmtree(out)  # configured for another checkout
    for cmd in (configure,
                ["cmake", "--build", out, "--target", target, "-j", BUILD_JOBS]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, target)


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the colmr sources (src/) are not next to perfbench/",
              file=sys.stderr)
        return 2
    if argv == ["--self-test"]:
        binary = build("perfbench_test")
        return 2 if binary is None else subprocess.run([binary]).returncode
    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = list(argv)
    if "--trace-out" not in args:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", traces]
    sys.stdout.flush()
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
