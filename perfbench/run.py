#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune, runs one workload in its own
process, and forwards its output. The last line of standard output is
the result object {correct, attempted, failed, metrics}. Exits non-zero,
without a result line, when the checkout cannot be built or the run
fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
SOURCE_DIRS = ("lib", "bin", "perfbench")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def src_digest():
    """Content digest of the measured sources: identifies the code even in
    a checkout that is not a git repository."""
    h = hashlib.sha1()
    for top in SOURCE_DIRS:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("not the root of a source checkout (no dune-project or lib/)")
    # The shared dune cache lives outside the checkout; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                              stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail(f"build failed with exit code {done.returncode}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", git_rev(), "--src-digest", src_digest(),
           "--nproc", str(len(os.sched_getaffinity(0)))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"bench.exe exited with code {done.returncode}", 3)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last output line is not a JSON result", 3)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result object has the wrong keys", 3)
    os.makedirs(".bench_out", exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(".bench_out", name), "w") as f:
        f.write(done.stdout)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
