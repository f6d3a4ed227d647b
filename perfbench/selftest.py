#!/usr/bin/env python3
"""Short self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json it runs run.py briefly (--seconds 1),
untraced and traced, and checks that every end-to-end and per-layer metric
is emitted, with the unit BENCHMARK.json gives it, as a finite number. It
then runs every workload against a reference file with a wrong p_shot rate
(so a wrong expected failure count) and checks that the output checks
catch it: non-zero exit, "correct": false and at least one failure.
Exits non-zero on any mismatch.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 424242
WRONG_P_SHOT = 0.95


def run(workload, trace, reference=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace)]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def metric_problems(result, wanted):
    problems = []
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append("missing " + m["name"])
        elif got["unit"] != m["unit"]:
            problems.append("%s in %s, want %s" % (m["name"], got["unit"], m["unit"]))
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append("%s is not a finite number" % m["name"])
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "baseline.json")) as f:
        reference = json.load(f)
    for ref in reference["references"].values():
        ref["p_shot"] = WRONG_P_SHOT
    build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    os.makedirs(os.path.join(ROOT, build), exist_ok=True)
    wrong = os.path.join(ROOT, build, "selftest-wrong-reference.json")
    with open(wrong, "w") as f:
        json.dump(reference, f)

    failures = 0
    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, err = run(w, trace)
            if rc or result is None or not result["correct"]:
                problems = ["run failed (exit %d)" % rc]
            else:
                problems = metric_problems(result, spec[key])
            print("%-14s trace=%d  %s" % (w, trace, "; ".join(problems) or "ok"))
            if problems:
                failures += 1
                print(err[-2000:], file=sys.stderr)
        rc, result, err = run(w, 0, wrong)
        caught = (rc != 0 and result is not None and not result["correct"]
                  and result["failed"] >= 1)
        print("%-14s wrong reference  %s" % (w, "caught" if caught else "NOT CAUGHT"))
        failures += not caught
    os.remove(wrong)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
