#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

1. Builds and runs perfbench_selftest: every output check rejects a
   perturbed input (a flipped logit bit, a ledger off by one byte, a NaN
   loss, ...), the printer emits every metric with its unit, the open-loop
   generator reports its lag, and span self time excludes child spans.
2. Runs every workload for one second with --trace 0 and --trace 1 and
   checks that the result line names exactly the metrics of BENCHMARK.json,
   with their units, and passes its output checks.
Exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (build helpers of the benchmark driver)

WORKLOADS = ["keystroke_serve", "split_serve", "fedavg_round", "keystroke_train"]


def check_printer(spec, failures):
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 cwd=run.ROOT, timeout=200)
            lines = out.stdout.strip().split("\n")
            try:
                result = json.loads(lines[-1])
            except (ValueError, IndexError):
                failures.append(f"{workload} --trace {trace}: no JSON result")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = (out.returncode == 0 and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1
                  and got == want
                  and set(result) == {"correct", "attempted", "failed",
                                      "metrics"})
            print(f"  {'ok  ' if ok else 'FAIL'}  {workload} --trace {trace}")
            if not ok:
                failures.append(f"{workload} --trace {trace}: {lines[-1][:300]}")


def main():
    if not run.build(("perfbench", "perfbench_selftest")):
        return 1
    failures = []
    unit = subprocess.run([os.path.join(run.BUILD_DIR, "perfbench_selftest")])
    if unit.returncode != 0:
        failures.append("perfbench_selftest failed")
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    print("result lines against BENCHMARK.json")
    check_printer(spec, failures)
    for f in failures:
        print(f"FAILED: {f}")
    print("selftest.py:", "FAILED" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
