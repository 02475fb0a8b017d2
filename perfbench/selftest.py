#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (about a minute in all).

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it checks that an untraced run prints exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly the per-layer
ones, each with its unit and a finite value; that both runs are correct
with no failed op (which includes the recorded toy digest for seed 1); and
that a deliberately wrong answer (one selection index flipped after the
solve) is counted as a failed op. Exits non-zero on the first mismatch.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--toy", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" %
                             (" ".join(command), done.returncode,
                              done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result, declared, label):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        raise AssertionError("%s: metrics %s, expected %s" %
                             (label, sorted(got), sorted(want)))
    for name, unit in want.items():
        entry = got[name]
        if entry["unit"] != unit:
            raise AssertionError("%s: %s has unit %s, expected %s" %
                                 (label, name, entry["unit"], unit))
        if not isinstance(entry["value"], (int, float)) or \
                not math.isfinite(entry["value"]):
            raise AssertionError("%s: %s is not a finite number" %
                                 (label, name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            label = "%s --trace %d" % (workload, trace)
            result = run(workload, trace)
            check_metrics(result, declared, label)
            if not result["correct"] or result["failed"] != 0:
                raise AssertionError("%s: correct=%s failed=%d" %
                                     (label, result["correct"],
                                      result["failed"]))
            print("ok   %s: %d ops, every metric with its unit" %
                  (label, result["attempted"]))
        wrong = run(workload, 0, ["--inject-wrong", "0"])
        if wrong["correct"] or wrong["failed"] < 1:
            raise AssertionError("%s: injected wrong answer not caught" %
                                 workload)
        print("ok   %s: injected wrong answer counted (%d of %d failed)" %
              (workload, wrong["failed"], wrong["attempted"]))
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as error:
        print("selftest FAILED: %s" % error, file=sys.stderr)
        sys.exit(1)
