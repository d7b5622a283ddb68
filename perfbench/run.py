#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds epicd and the benchmark
program with dune (the shared dune cache is disabled, so the build reads
and writes only inside the checkout), then runs perfbench/perfbench.exe,
whose last line of standard output is the JSON result.  Build output
goes to standard error.  Exits non-zero, without a result, when the
checkout is not a buildable copy of the repository.
"""

import os
import subprocess
import sys

REQUIRED = ["dune-project", "bin/epicd.ml", "lib", "perfbench/dune", "perfbench/perfbench.ml"]
TARGETS = ["bin/epicd.exe", "perfbench/perfbench.exe"]


def main():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print("perfbench: not at the root of a repository checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", *TARGETS],
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # exec, so a signal sent to this process reaches perfbench.exe, which
    # then stops its daemons.
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    os.execve(exe, [exe, *sys.argv[1:]], env)


if __name__ == "__main__":
    sys.exit(main())
