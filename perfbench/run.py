#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload hot_zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Every invocation first (re)builds the
`perfbench` binary from the checkout's own sources into `.bench_build/`
(a no-op when nothing changed), then runs it. The binary's standard output
is passed through unchanged; its last line is the JSON result. Build logs go
to standard error. The exit code is the binary's, or non-zero when the
sources are missing or the build fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; True when it succeeded."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no repository sources at {ROOT}; nothing to build")
        return False
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        if not run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *targets],
                      BUILD_TIMEOUT_S)


def source_id():
    """The commit when the checkout is a git repository, else empty (the
    binary then reports the source as unknown)."""
    if not (ROOT / ".git").exists():
        return ""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return head.stdout.strip() if head.returncode == 0 else ""


def run_binary(cmd):
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S}s; killing it")
        proc.kill()
        proc.wait()
        return 3


def selftest():
    if not build(["perfbench", "perfbench_selftest"]):
        return 2
    if subprocess.run([str(BUILD_DIR / "perfbench_selftest")]).returncode != 0:
        return 1
    # The binary's metric table must be exactly what BENCHMARK.json declares.
    listed = subprocess.run([str(BUILD_DIR / "perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {(kind, m["name"], m["unit"]) for kind in ("end_to_end", "per_layer")
            for m in declared[kind]}
    got = {tuple(line.split()) for line in listed.splitlines() if line.strip()}
    workloads = {w["name"] for w in declared["workloads"]}
    got_workloads = {name for kind, name, *_ in got if kind == "workload"}
    got_metrics = {entry for entry in got if entry[0] != "workload"}
    ok = True
    if got_metrics != want:
        log(f"metric table differs from BENCHMARK.json: only in binary "
            f"{sorted(got_metrics - want)}, only in BENCHMARK.json {sorted(want - got_metrics)}")
        ok = False
    if got_workloads != workloads:
        log(f"workloads differ: binary {sorted(got_workloads)}, "
            f"BENCHMARK.json {sorted(workloads)}")
        ok = False
    print("selftest: BENCHMARK.json matches the binary" if ok else "selftest: FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    if not build(["perfbench"]):
        return 2
    trace_out = ROOT / ".bench_build" / f"trace-{args.workload}-{args.seed}.json"
    return run_binary([str(BUILD_DIR / "perfbench"),
                       "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--source", source_id(), "--trace-out", str(trace_out)])


if __name__ == "__main__":
    sys.exit(main())
