#!/usr/bin/env python3
"""Build terasem_bench from this checkout, then run it.

Usage, from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Every argument goes to terasem_bench (benchmark/README.md).  The build
directory is $CARGO_TARGET_DIR when set, else .bench_build/ at the
repository root.  Build output goes to stderr, so the last line on stdout
is the benchmark's JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: no library sources (CMakeLists.txt, src/) beside "
                 "benchmark/; nothing to build")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                            or os.path.join(ROOT, ".bench_build"))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build, "--target", "terasem_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    # A child process, not exec: the compilers above would otherwise count
    # as its reaped children in the peak-RSS metric.
    exe = os.path.join(build, "terasem_bench")
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
