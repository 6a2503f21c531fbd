#!/usr/bin/env python3
"""Build and run the FCatch benchmark; perfbench/README.md describes it.

Run from the repository root:

    python3 perfbench/run.py --workload eval-sweep --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from source into .bench_build/,
with the Go build cache, module cache, home and temporary directories all
inside the checkout, so a run reads and writes nothing outside it. Every
argument is passed through to the program, whose last line of standard
output is the JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("HOME", "home"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
        ("TMPDIR", "tmp"),
        ("GOTMPDIR", "tmp"),
    ):
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
