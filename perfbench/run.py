#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the perfbench program from source (CMake, into
$CARGO_TARGET_DIR or .bench_build/ under the checkout root), runs one
workload in a fresh process, checks its outputs and prints one JSON result
line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. A failed output check makes the run exit non-zero; a
failed build exits non-zero without printing a result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# p_shot must sit within this many standard deviations of the reference
# rate (plus a small-count slack), so a fresh seed is still checked. The
# reference's dispersion inflates the binomial variance where shots are
# not independent (a scenario timeline's shots share one defect stream).
BAND_Z = 5.0
BAND_SLACK = 3.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build incrementally; None when either fails."""
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", out, "-j4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed:", " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def band_check(band, ref):
    """True when the band's failures/shots is consistent with ref."""
    shots, failures = band["shots"], band["failures"]
    rate, dispersion = ref["p_shot"], ref["dispersion"]
    mean = shots * rate
    sd = math.sqrt(dispersion * shots * rate * (1 - rate))
    return abs(failures - mean) <= BAND_Z * sd + BAND_SLACK * dispersion


def evaluate(raw, workload, trace, spec, reference):
    """Turn the perfbench program's raw line into the result object."""
    failed = list(raw["failed_checks"])
    band, ref = raw["band"], reference["references"][workload]
    log("p_shot band: %d failures / %d shots" % (band["failures"], band["shots"]))
    if not band_check(band, ref):
        failed.append("p_shot %d/%d outside the band of reference %g"
                      % (band["failures"], band["shots"], ref["p_shot"]))
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            failed.append("metric %s missing or not in %s" % (m["name"], m["unit"]))
            continue
        metrics[m["name"]] = got
    for what in failed:
        log("check failed:", what)
    attempted = raw["attempted"] + 1 + len(wanted)
    return {"correct": not failed, "attempted": attempted,
            "failed": len(failed), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--reference", default=os.path.join(HERE, "baseline.json"),
                    help="reference rates for the p_shot band check")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(args.reference) as f:
        reference = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("unknown workload", args.workload)
        return 2

    binary = build()
    if binary is None:
        return 1
    workdir = os.path.join(build_dir(), "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        log("perfbench exited with", proc.returncode)
        return 1
    result = evaluate(json.loads(lines[-1]), args.workload, args.trace, spec,
                      reference)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
