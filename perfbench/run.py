#!/usr/bin/env python3
"""Build and run the vismat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a vismat source tree.  It builds
perfbench/vbench.exe from source into .bench_build (release profile, no
shared dune cache), runs one workload and passes its output through: the
last line is the JSON result.  With --trace 1 the recorded spans also go to
.bench_build/perfbench-traces/.  Exits 2 without a result when the tree
cannot be built (for instance when the vismat sources are missing).
See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "vbench.exe")
TRACE_DIR = os.path.join(BUILD_DIR, "perfbench-traces")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175
SOURCE_DIRS = ("lib", "bin", "perfbench")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when the tree is a git checkout, else a digest of
    the sources that make up the benchmarked program: a tree exported
    without its history (git archive) has no commit to report."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath("."):
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    h = hashlib.sha256()
    for d in SOURCE_DIRS:
        for root, dirs, files in os.walk(d):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f in ("dune", "dune-project"):
                    path = os.path.join(root, f)
                    h.update(path.encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("not the root of a vismat source tree (dune-project or lib/ missing)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "./perfbench/vbench.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build did not finish: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        die("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("workload did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
