#!/usr/bin/env python3
"""Host-speed benchmark of the simulator: build, run, gate, report.

    python3 hostbench/run.py --workload meta-kv|uc-object|kv-churn \
        --seed N --seconds S --trace 0|1

Builds hostbench/ (which pulls in ../src) with CMake into
$CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench) and runs the
single-threaded bench binary. The workload seed is N mod 41 (input sets
0..40), so that every run is checked against a committed reference. Every
cell's simulated-output digest must be the same in every
round of the run and equal to the digest in hostbench/reference.json. A
cell that fails conservation or the digest check counts all its ops as
failed. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Extra flags: --size tiny (small inputs, for the tests), --record-reference
(write this run's digests into hostbench/reference.json, after a deliberate
change to simulated output).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("meta-kv", "uc-object", "kv-churn")
INPUT_SETS = 41  # workload seeds 0..40, each with its digests in REFERENCE
REFERENCE = HERE / "reference.json"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"hostbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "hostbench"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "dcache_hostbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return bdir / "dcache_hostbench"


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {}


def gate(result, key, reference_path, record=False):
    """Count failed ops per cell; returns (attempted, failed, report).

    `key` is (size, workload, seed): where the reference sits in the file.
    With `record`, a run whose cells pass every other check writes its
    digests there instead of being checked against them.
    """
    table = load_json(reference_path)
    reference = table.get(key[0], {}).get(key[1], {}).get(key[2])
    if reference is None and not record:
        fail(f"no reference digests for {key} in {reference_path}")
    attempted = failed = 0
    lines, fresh = [], {}
    for cell in result["cells"]:
        ops = cell["ops"] * len(cell["digests"])
        attempted += ops
        digest = fresh[cell["arch"]] = cell["digests"][0]
        problems = []
        if cell["conservation"]:
            problems.append("conservation: " + cell["conservation"])
        if len(set(cell["digests"])) > 1:
            problems.append("digest differs between rounds")
        if not record and reference.get(cell["arch"]) != digest:
            problems.append(f"digest {digest} != reference "
                            f"{reference.get(cell['arch'])}")
        if problems:
            failed += ops
        lines.append(f"  {cell['arch']:<15} {digest}  "
                     + ("; ".join(problems) or "ok"))
    if record and failed == 0:
        table.setdefault(key[0], {}).setdefault(key[1], {})[key[2]] = fresh
        reference_path.write_text(
            json.dumps(table, indent=1, sort_keys=True) + "\n")
    report = [f"correctness gate ({key[1]}, input set {key[2]}, "
              + ("recorded now)" if record else "against reference.json)")
              ] + lines
    return attempted, failed, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    input_set = args.seed % INPUT_SETS

    binary = build(build_dir())
    command = [str(binary), "--workload", args.workload,
               "--seed", str(input_set), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"dcache_hostbench exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"dcache_hostbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("dcache_hostbench printed nothing")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    attempted, failed, report = gate(
        result, (args.size, args.workload, str(input_set)), REFERENCE,
        args.record_reference)
    print("\n".join(report))
    metrics = result["metrics"]
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
