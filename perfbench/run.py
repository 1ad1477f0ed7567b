#!/usr/bin/env python3
"""Closed-loop serving benchmark: build, run one workload, report.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload demo_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all   # the three, one after another
    python3 perfbench/run.py --self-test      # the benchmark's own unit tests

It builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the perfbench_serving binary on the
workload, prints a host-noise and provenance record, and prints the
binary's result JSON as the last line. The exit code is the binary's: non-
zero when the output check fails. A failed build prints no result.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

WORKLOADS = ("demo_hot", "demo_zipf", "paper_cold")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Every run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
# One intra-op thread. With the default (one per core) the intra-op pool,
# the batcher, IO and generator threads oversubscribe the cores, and on a
# 4-vCPU host paper_cold ran 13-35% slower and its goodput spread 12-23%
# between runs; at one thread it repeated within 1-2.5%. See README.md.
PINNED_ENV = {"DOT_NUM_THREADS": "1"}
SIMD_FLAGS = ("avx2", "fma", "avx512f", "avx512_vnni", "avx_vnni", "amx_int8",
              "amx_tile")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            if cmd[1] == "-S":
                shutil.rmtree(out, ignore_errors=True)  # retry configure next time
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, target)


def read_file(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def cpu_pressure_us():
    """Cumulative microseconds some task waited for a CPU (PSI), or None."""
    for line in read_file("/proc/pressure/cpu").splitlines():
        if line.startswith("some "):
            for field in line.split():
                if field.startswith("total="):
                    return int(field[len("total="):])
    return None


def steal_ticks():
    """Cumulative CPU ticks stolen by the hypervisor, or None."""
    fields = read_file("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def cpu_identity():
    model, flags = "unknown", []
    for line in read_file("/proc/cpuinfo").splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name" and model == "unknown":
            model = value.strip()
        elif key.strip() == "flags" and not flags:
            have = set(value.split())
            flags = [f for f in SIMD_FLAGS if f in have]
    return model, flags


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def delta(after, before):
    return None if after is None or before is None else after - before


def run_workload(args):
    binary = build("perfbench_serving")
    if binary is None:
        return 1
    workdir = os.path.join(build_dir(), "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    psi0, steal0 = cpu_pressure_us(), steal_ticks()
    load0 = os.getloadavg()
    usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    env = dict(os.environ, **PINNED_ENV)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    wall = time.monotonic() - start
    usage1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    shutil.rmtree(workdir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys %s" % sorted(result))
    except (ValueError, IndexError) as err:
        sys.stdout.write(stdout)
        log("perfbench: no result line (%s), exit code %d" %
            (err, proc.returncode))
        return proc.returncode or 1

    model, flags = cpu_identity()
    psi = delta(cpu_pressure_us(), psi0)
    record = {
        # Host noise over this run: tells a loaded-host outlier apart from
        # a regression. Not metrics.
        "cpu_pressure_some_ms": None if psi is None else psi / 1e3,
        "steal_ticks": delta(steal_ticks(), steal0),
        "involuntary_ctx_switches": usage1.ru_nivcsw - usage0.ru_nivcsw,
        "voluntary_ctx_switches": usage1.ru_nvcsw - usage0.ru_nvcsw,
        "loadavg_start": load0,
        "loadavg_end": os.getloadavg(),
        "run_wall_s": round(wall, 3),
        # Provenance.
        "cpu_model": model,
        "cpu_flags": flags,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "dot_env": {k: v for k, v in sorted(env.items())
                    if k.startswith("DOT_")},
        "argv": cmd[1:-2],
    }
    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return proc.returncode


def self_test():
    binary = build("perfbench_logic_test")
    if binary is None:
        return 1
    return subprocess.run([binary]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload != "all":
        return run_workload(args)
    failed = False
    for workload in WORKLOADS:
        args.workload = workload
        failed = run_workload(args) != 0 or failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
