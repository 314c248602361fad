#!/usr/bin/env python3
"""The repository benchmark.

Builds the measuring binary (perfbench/main.cc and friends) from this
checkout's sources, runs one workload and prints one result line:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. Every metric the binary measured is
printed above the result line with its unit, and stored with a description
of the machine under .bench_build/results/. The traced run also writes a
Chrome trace there. The exit code is 0 only when every operation passed its
output check.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the program's sources (src/) are not in this checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configuring the benchmark failed")
    jobs = str(len(os.sched_getaffinity(0)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def read_first(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def machine():
    """What the figures depend on: CPUs, caches, build type and compiler."""
    model = ""
    for line in read_first("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_root):
        for index in sorted(os.listdir(cache_root)):
            d = os.path.join(cache_root, index)
            if index.startswith("index"):
                caches.append("L%s %s %s" % (read_first(d + "/level"),
                                             read_first(d + "/type"),
                                             read_first(d + "/size")))
    cache = read_first(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    def cached(key):
        m = re.search(r"^%s:[A-Z]+=(.*)$" % re.escape(key), cache, re.M)
        return m.group(1) if m else ""
    compiler = cached("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        version = out.stdout.splitlines()[0] if out.stdout else ""
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "memory_kb": int(read_first("/proc/meminfo", "x 0").split()[1]),
        "kernel": os.uname().release,
        "build_type": cached("CMAKE_BUILD_TYPE"),
        "compiler": version or compiler,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", RESULTS_DIR]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the run printed no record (exit code %d)" % run.returncode)
    for line in lines[:-1]:
        print(line)

    measured = record["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["value"] is None:
            fail("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, not %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    correct = run.returncode == 0 and record["failed"] == 0
    desc = machine()
    stored = os.path.join(RESULTS_DIR, "%s.seed%d.trace%d.json" %
                          (args.workload, args.seed, args.trace))
    with open(stored, "w") as f:
        json.dump({"machine": desc, "correct": correct, "record": record}, f, indent=1)

    width = max(len(name) for name in measured)
    print("%s  seed %d  trace %d  attempted %d  failed %d" %
          (args.workload, args.seed, args.trace, record["attempted"], record["failed"]))
    for name, m in measured.items():
        value = "null" if m["value"] is None else "%.6g" % m["value"]
        print("  %-*s %14s %s" % (width, name, value, m["unit"]))
    print("machine: " + json.dumps(desc))
    print("results: " + stored)
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
