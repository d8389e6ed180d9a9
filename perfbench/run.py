#!/usr/bin/env python3
"""Run one workload of the ccpred serving benchmark; see README.md here.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --test

Run from anywhere; paths resolve against the repository this file sits
in. The first call builds the daemon and the benchmark (Release) into
.bench_build/perfbench; later calls reuse that build. Every run works in
its own directory under .bench_build/runs, removed when the run ends.
The last line of standard output is the result JSON; build output goes
to standard error.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
RUN_TIMEOUT_S = 170
SOURCES = ("CMakeLists.txt", "src/CMakeLists.txt", "tools/ccpred_serverd.cpp")
WORKLOADS = ("warm_pipelined", "cold_open_loop", "feedback_mix", "fleet_binary")


def build(targets):
    """Configures (Release) and builds `targets`; a lock serializes concurrent builds."""
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j",
                        str(os.cpu_count() or 4), "--target", *targets],
                       check=True, stdout=sys.stderr)


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the repository's build inputs (src/, tools/, root build)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not all(os.path.isfile(os.path.join(ROOT, p)) for p in SOURCES):
        print("perfbench: the ccpred sources are not beside this directory",
              file=sys.stderr)
        return 2
    if args.test:
        build(["perfbench_test"])
        return subprocess.run([os.path.join(BUILD, "perfbench_test")],
                              cwd=BUILD).returncode
    if args.workload is None:
        ap.error("--workload is required")
    build(["ccpred_serverd", "perfbench"])

    os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(WORK, "runs"))
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serverd", os.path.join(BUILD, "ccpred", "tools", "ccpred_serverd"),
           "--workdir", workdir,
           "--spans", os.path.join(WORK, "traces", args.workload + ".spans.jsonl"),
           "--git-rev", git_rev(), "--source-digest", source_digest()]
    # Own process group: a timeout takes the daemon and its shards too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
