#!/usr/bin/env python3
"""Build the compiler and the benchmark harness from source, then run one
benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a repository checkout.  The last line of standard
output is the JSON summary printed by perfbench.exe; build output goes to
standard error.  Outside a checkout (no dune-project, lib/ or bin/) it exits
with status 2 before printing anything.
"""

import os
import shutil
import subprocess
import sys

TARGETS = ["perfbench/perfbench.exe", "bin/hida_compile.exe", "bin/hida_serve_cli.exe"]


def main():
    root = os.getcwd()
    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(os.path.join(root, p))]
    if missing:
        sys.stderr.write("perfbench: not a repository checkout (missing %s)\n" % ", ".join(missing))
        return 2
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("perfbench: dune is not on PATH\n")
        return 2
    build = subprocess.run(
        # --cache=disabled keeps dune from writing a shared cache outside
        # the checkout.
        [dune, "build", "--root", ".", "--display", "quiet", "--cache=disabled"]
        + ["./" + t for t in TARGETS],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    args = [
        exe,
        "--compile-exe", os.path.join("_build", "default", "bin", "hida_compile.exe"),
        "--serve-exe", os.path.join("_build", "default", "bin", "hida_serve_cli.exe"),
    ] + sys.argv[1:]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(exe, args)


if __name__ == "__main__":
    sys.exit(main())
