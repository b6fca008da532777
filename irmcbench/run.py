#!/usr/bin/env python3
"""Runs one workload of the irmcsim benchmark and prints its result.

    python3 irmcbench/run.py --workload load_vct --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. It builds the library and the
benchmark from source into .bench_build/, runs the workload, and prints as
its last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1. The exit code is 0 only when every
correctness check passed. See irmcbench/README.md.

--pin stores the gate digest of this build in irmcbench/pinned.json
instead of checking it; use it only after a change that is meant to alter
simulated results.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PINNED = os.path.join(HERE, "pinned.json")
# Trial-executor threads: fixed, and capped by the cores present.
THREADS = min(4, os.cpu_count() or 1)
BUILD_TIMEOUT_S = 840
RUN_MARGIN_S = 150


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", str(THREADS)],
    ]
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail("build failed: %s" % e)
    return os.path.join(BUILD_DIR, "irmcbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        with open(PINNED) as f:
            pinned = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read the benchmark definition: %s" % e)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--threads", str(THREADS)]
    if not args.pin:
        cmd += ["--expect-digest", pinned.get(args.workload, "unpinned")]
    if args.trace:
        cmd += ["--spans",
                os.path.join(BUILD_DIR, "spans-%s.csv" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("the benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])

    correct = bool(result["correct"]) and proc.returncode == 0
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or \
                not math.isfinite(got["value"]):
            print("run.py: metric %s missing or malformed" % m["name"],
                  file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = got

    if args.pin and correct:
        pinned[args.workload] = result["gate_digest"]
        with open(PINNED, "w") as f:
            json.dump(pinned, f, indent=2, sort_keys=True)
            f.write("\n")
        print("run.py: pinned %s = %s" % (args.workload,
                                          result["gate_digest"]),
              file=sys.stderr)

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
