#!/usr/bin/env python3
"""Build and run the wasmctr benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the wasmctr library plus the benchmark binary) in
Release mode under $CARGO_TARGET_DIR, or .bench_build when it is unset;
later runs only rebuild what changed. The binary's stdout is passed
through; its last line, the result object, is checked against
BENCHMARK.json and printed again as the last line. With --trace 1 the
traced run's spans are written to <build dir>/spans/<workload>-<seed>.json.

--self-test checks that the metric and workload names the binary prints
match BENCHMARK.json and perfbench/design.json one for one.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
DESIGN = os.path.join(HERE, "design.json")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure once, then build; returns the benchmark binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the wasmctr sources (src/) are missing next to perfbench/")
    cmake_dir = os.path.join(build_dir(), "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "wasmctr_perfbench"])
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, env=env,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "wasmctr_perfbench")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def expected_metrics(bench, traced):
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if traced else "end_to_end"]}


def self_test(binary):
    bench = load_json(BENCHMARK)
    design = load_json(DESIGN)
    listed = json.loads(subprocess.run(
        [binary, "--list"], stdout=subprocess.PIPE, text=True,
        check=True).stdout)
    problems = []

    def compare(what, printed, declared):
        if printed != declared:
            problems.append(f"{what}: binary {printed} != declared {declared}")

    for key in ("end_to_end", "per_layer"):
        compare(key, [(m["name"], m["unit"]) for m in listed[key]],
                [(m["name"], m["unit"]) for m in bench[key]])
    names = [w["name"] for w in bench["workloads"]]
    compare("workloads", listed["workloads"], names)
    compare("design workloads", sorted(design["workloads"]), sorted(names))
    compare("design per_layer", sorted(design["per_layer"]),
            sorted(m["name"] for m in bench["per_layer"]))
    for name, entry in design["per_layer"].items():
        for field in ("moves", "should_not_move"):
            for target in entry.get(field, []):
                metric, _, workload = target.partition("@")
                if workload not in names + ["*"]:
                    problems.append(f"{name}.{field}: no workload {workload}")
                if metric not in list(expected_metrics(bench, False)) + ["*"]:
                    problems.append(f"{name}.{field}: no metric {metric}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        return self_test(binary)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    bench = load_json(BENCHMARK)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited with {done.returncode}")
    result = json.loads(lines[-1])
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected_metrics(bench, args.trace == 1):
        sys.stdout.write(done.stdout)
        fail("printed metrics do not match BENCHMARK.json")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
