#!/usr/bin/env python3
"""Build the simulator's benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository.  It builds perfbench/rnbench.exe
with dune, runs the workload in a fresh process and passes its report
on; the last line of standard output is one JSON object with the
metrics.  When the benchmark cannot be built or run, the script exits
non-zero and prints no result.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("sweep-quick", "beacon-sparse-n64k", "beacon-dense-n4k")
TARGET = "./perfbench/rnbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "rnbench.exe")
WORKDIR = ".perfbench-work"
BUILD_TIMEOUT_S = 700  # a fresh checkout compiles the libraries first
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_bounded(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and kills the whole group if it
    overruns, so no child outlives the benchmark."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    return proc.returncode, out


def source_version():
    """The git commit, or outside a git checkout a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            code, out = run_bounded(["git", "rev-parse", "--short=12", "HEAD"], 30,
                                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                    text=True)
            if code == 0:
                return out.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        if os.path.isfile(top):
            files = [top]
        else:
            files = sorted(os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in files:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description="Run one workload of the simulator's benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: dune-project or lib/ is missing")

    # Keep the build inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code, _ = run_bounded(["dune", "build", "--root", ".", TARGET], BUILD_TIMEOUT_S,
                              stdout=sys.stderr, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if code != 0:
        fail("build failed")

    workdir = os.path.join(WORKDIR, str(os.getpid()))
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(len(os.sched_getaffinity(0))),
           "--commit", source_version(), "--workdir", workdir]
    try:
        code, out = run_bounded(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORKDIR) and not os.listdir(WORKDIR):
            os.rmdir(WORKDIR)
    if code != 0:
        sys.stderr.write(out)
        fail(f"rnbench exited with code {code}")
    try:
        json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out)
        fail("rnbench printed no result line")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
