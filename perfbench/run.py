#!/usr/bin/env python3
"""Build the AIR benchmark program from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload leo-dense --seed 1 --seconds 10 --trace 0

Every argument is passed to the program (perfbench/perfbench.ml), which
prints a stamp line and, last, one JSON result line. The build goes to
.bench_build/ in the checkout, with dune's shared cache off, so nothing
is read or written outside the checkout. See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"


def revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the program is built from."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of an "
                  "AIR checkout", file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, TARGET],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    run = subprocess.run([exe] + sys.argv[1:] + ["--revision", revision()])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
