#!/usr/bin/env python3
"""Runs the X-Stream repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --gate-test

Run from the root of a checkout. The first call builds the system under test
and the benchmark program from source into .bench_build/ (perfbench/CMakeLists.txt);
later calls rebuild incrementally. NAME is inmem-pagerank, ooc-wcc or
serve-mixed (see perfbench/README.md), or `all` to run the three in turn.
The last line of stdout is the run's JSON result; the exit code is nonzero
when the build fails or any result fails the correctness gate.
--gate-test builds and runs the gate's own test instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("inmem-pagerank", "ooc-wcc", "serve-mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def child_env():
    """The environment for the build and the benchmark program: temporary files (the
    compiler's included) stay inside the checkout."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(target):
    """Configures (once) and builds `target`; returns its path or exits 3."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j",
                  str(max(1, min(4, os.cpu_count() or 1)))])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S, env=child_env()).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)  # so the next call configures again
                sys.stderr.write("perfbench: build step failed: %s\n%s\n" % (" ".join(cmd), tail))
                sys.exit(3)
    return os.path.join(BUILD, target)


def clear_stale_workdirs(work_root):
    """Removes work directories of runs whose process is gone."""
    if not os.path.isdir(work_root):
        return
    for name in os.listdir(work_root):
        pid = name.rsplit("-", 1)[-1]
        if pid.isdigit() and not os.path.exists("/proc/%s" % pid):
            shutil.rmtree(os.path.join(work_root, name), ignore_errors=True)


def run_workload(program, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, result or None)."""
    work_root = os.path.join(BUILD, "work")
    clear_stale_workdirs(work_root)
    workdir = os.path.join(work_root, "%s-%d" % (workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [program, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace, "--workdir=" + workdir]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace-out=" + os.path.join(traces, "%s-seed%d.json" % (workload, seed)))
    # A run takes `seconds` plus set-up and checks; with the default window
    # it stays well inside the 170 s cap.
    timeout = max(RUN_TIMEOUT_S, seconds + 150)
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout,
                              env=child_env())
        rc, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        rc, out = 124, (e.stdout or b"").decode(errors="replace")
        sys.stderr.write("perfbench: %s did not finish within %d s\n" % (workload, timeout))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return rc, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gate-test", action="store_true",
                        help="build and run the correctness gate's own test")
    args = parser.parse_args()
    if args.gate_test:
        sys.exit(subprocess.run([build("perfbench_gate_test")], env=child_env()).returncode)
    if args.workload is None or args.seed < 0 or args.seconds <= 0:
        parser.error("--workload, a seed >= 0 and --seconds > 0 are required")
    program = build("xstream_bench")

    if args.workload != "all":
        rc, lines, result = run_workload(program, args.workload, args.seed, args.seconds,
                                         args.trace)
        print("\n".join(lines))
        sys.exit(rc if rc != 0 or result is not None else 1)

    # Every workload in turn, with one combined result line.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        rc, lines, result = run_workload(program, workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines[:-1] if result is not None else lines))
        worst = worst or rc
        if result is None:
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(total))
    sys.exit(worst)


if __name__ == "__main__":
    main()
