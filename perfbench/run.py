#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload engine-large|wire-small|wire-mix|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench (the MIDAS libraries from src/ plus the program in perfbench/lib)
in Release mode under .bench_build/perfbench; later runs rebuild only what
changed. Before the workload's own output it prints a `stamp` line naming
the hardware and build the numbers came from. The last line of standard
output is the JSON result: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. On a shared host the end-to-end qps and
latency_p50_ms are taken over the stretches of the window in which the
host stole the least CPU time (/proc/stat steal); a note line gives the
steal share and the figures over the whole window. `--workload all` runs the three
workloads in turn and prefixes each metric with its workload.

The benchmark's own tests, once a run has configured the build tree (the
test target is defined where GTest is installed):

    cmake --build .bench_build/perfbench -j4 --target perfbench_tests
    ctest --test-dir .bench_build/perfbench
"""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["engine-large", "wire-small", "wire-mix"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no MIDAS sources under {ROOT}/src; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler_version():
    files = os.path.join(BUILD, "CMakeFiles")
    for d in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        path = os.path.join(files, d, "CMakeCXXCompiler.cmake")
        if os.path.isfile(path):
            with open(path) as f:
                m = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]+)"', f.read())
                if m:
                    return m.group(1)
    return "unknown"


def source_digest():
    """sha256 over src/ (paths and bytes): names the code that was built,
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "none"


def stamp():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and model == "unknown":
                    model = line.split(":", 1)[1].strip()
                elif line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "gfni": "gfni" in flags,
        "avx512f": "avx512f" in flags,
        "avx512bw": "avx512bw" in flags,
        "avx2": "avx2" in flags,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": cmake_cache("CMAKE_CXX_COMPILER") + " " +
                    compiler_version(),
        "midas_native": False,  # perfbench never adds -march=native
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def run_one(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, f"{workload}-{seed}.json")]
    r = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"{workload} printed no result (exit code {r.returncode})")
    return r.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    print("stamp " + json.dumps(stamp(), sort_keys=True))
    sys.stdout.flush()

    if args.workload != "all":
        code, result = run_one(binary, args.workload, args.seed,
                               args.seconds, args.trace)
        print(json.dumps(result))
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, result = run_one(binary, w, args.seed, args.seconds, args.trace)
        worst = worst or code
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
