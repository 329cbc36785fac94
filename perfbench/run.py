#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload link-query --seed 1 --seconds 10 --trace 0

The script builds perfbench/ (a Go module that imports the repository's
packages through a replace directive) into .bench_build/, with the Go
build cache, temporary files and all scratch data kept under
.bench_build/, then replaces itself with the benchmark binary, whose
last line of output is the JSON result. It exits non-zero without a
result when the tree holds no Go sources to build.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
SRC = os.path.dirname(os.path.abspath(__file__))


def main():
    go_mod = os.path.join(ROOT, "go.mod")
    if not os.path.isfile(go_mod) or not os.path.isdir(os.path.join(ROOT, "internal")):
        sys.stderr.write("perfbench: run from the root of the fpdyn source tree (go.mod and internal/ not found)\n")
        return 2
    go = shutil.which("go")
    if go is None:
        sys.stderr.write("perfbench: the go toolchain is not on PATH\n")
        return 2

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOENV": "off",
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=SRC, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
