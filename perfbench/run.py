#!/usr/bin/env python3
"""Runs the SSIN repository benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>]
    python3 perfbench/run.py --self-check

The first call builds the program from source into .bench_build/perfbench
(CMake, Release) and later calls reuse that build. The benchmark binary
then runs one workload (its fixed settings are compiled in, see kWorkloads
in perfbench/src/main.cc) and prints, as its last stdout line, one JSON
object with the keys correct, attempted, failed and metrics. A traced run
(--trace 1) also writes a Perfetto-loadable trace under
.bench_build/traces/.

--all runs every workload of BENCHMARK.json untraced for its run_seconds
and prints one result line per workload, tagged with its name.

--self-check runs every workload briefly, traced and untraced, checks that
each metric named in BENCHMARK.json is printed with its unit, and checks
that a deliberately corrupted served answer is counted as a failure.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "ssin_perfbench")
RUN_TIMEOUT_S = 170
SELF_CHECK_SECONDS = 6


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def jobs():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no SSIN sources next to perfbench/; run from a source checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ssin_perfbench",
                  "-j", str(jobs())])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def workload_names(contract):
    return [workload["name"] for workload in contract["workloads"]]


def bench_command(workload, seed, seconds, trace, extra=()):
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        command += ["--trace-out", os.path.join(
            TRACE_DIR, "%s_seed%s.json" % (workload, seed))]
    command += ["--git-sha", git_sha(), "--source-digest", source_digest()]
    return command + list(extra)


def run_bench(command):
    """Runs the binary; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S, code=1)
    return done.returncode, done.stdout.splitlines()


def self_check(contract):
    problems = []

    def check_metrics(label, result, expected):
        for spec in expected:
            got = result["metrics"].get(spec["name"])
            if got is None:
                problems.append("%s: metric %s missing" % (label, spec["name"]))
            elif got.get("unit") != spec["unit"] or not isinstance(
                    got.get("value"), (int, float)):
                problems.append("%s: metric %s printed as %r, expected unit %s"
                                % (label, spec["name"], got, spec["unit"]))

    for workload in workload_names(contract):
        for trace, expected in ((0, contract["end_to_end"]),
                                (1, contract["per_layer"])):
            label = "%s trace=%d" % (workload, trace)
            code, lines = run_bench(bench_command(workload, 1,
                                                  SELF_CHECK_SECONDS, trace))
            # Slices this short can be judged invalid (exit 3); the
            # self-check is about output shape and correctness.
            if code not in (0, 3) or not lines:
                problems.append("%s: exit code %d" % (label, code))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correctness failure %s" % (label, lines[-1]))
            check_metrics(label, result, expected)
            print("self-check %s: %d metrics, exit %d" % (
                label, len(result["metrics"]), code), file=sys.stderr)

    for workload in workload_names(contract):
        label = "%s corrupted answer" % workload
        code, lines = run_bench(bench_command(
            workload, 1, SELF_CHECK_SECONDS, 0, extra=["--corrupt-answer"]))
        result = json.loads(lines[-1]) if lines else {}
        if code != 1 or result.get("correct") is not False or \
                result.get("failed", 0) < 1:
            problems.append("%s: not counted as a failure (exit %d, %s)"
                            % (label, code, lines[-1] if lines else "no output"))
        else:
            print("self-check %s: counted (failed=%d)" % (label, result["failed"]),
                  file=sys.stderr)

    for problem in problems:
        print("SELF-CHECK FAILED: " + problem, file=sys.stderr)
    print("self-check %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    build()
    contract = load_contract()
    if args.self_check:
        return self_check(contract)
    if args.all:
        worst = 0
        for workload in workload_names(contract):
            code, lines = run_bench(bench_command(
                workload, args.seed, contract["run_seconds"], 0))
            result = json.loads(lines[-1]) if lines else {}
            print(json.dumps({"workload": workload, "exit": code, **result}))
            worst = max(worst, code)
        return worst
    if args.workload not in workload_names(contract):
        fail("--workload must be one of: %s"
             % ", ".join(workload_names(contract)))
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    code, lines = run_bench(bench_command(args.workload, args.seed, seconds,
                                          args.trace))
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
