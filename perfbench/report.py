#!/usr/bin/env python3
"""Prints the per-layer report of one traced benchmark run.

    python3 perfbench/report.py .bench_build/out/<workload>.layers.json

The table lists every span the benchmark placed around a call into a layer:
calls, total time, self time (total minus child spans) and the median call.
Below it: the share of the workload's end-to-end time that the layer times
explain, the unexplained rest, and the tracing overhead against the untraced
half of the same run. The flight-recorder dump of the same spans sits beside
the table file as <workload>.trace.json (Chrome/Perfetto format).
"""

import json
import os
import sys

OVERHEAD_BUDGET_PCT = 5.0


def main(path):
    with open(path) as f:
        doc = json.load(f)
    prov = doc["provenance"]
    layers = sorted(doc["layers"], key=lambda l: -l["self_us"])
    self_total = sum(l["self_us"] for l in layers) or 1.0
    print(f"per-layer report: {prov['workload']} (seed {prov['seed']}, "
          f"{prov['nproc']} cpus, gemm={prov['gemm_kernel']}, "
          f"pool={prov['shared_pool_threads']})")
    print(f"  {'layer':<26}{'calls':>9}{'total ms':>11}{'self ms':>11}"
          f"{'self %':>8}{'p50 us':>11}")
    for l in layers:
        print(f"  {l['name']:<26}{l['calls']:>9}{l['total_us'] / 1e3:>11.2f}"
              f"{l['self_us'] / 1e3:>11.2f}"
              f"{100.0 * l['self_us'] / self_total:>8.1f}{l['p50_us']:>11.2f}")
    explained = doc["explained_pct"]
    overhead = doc["trace_overhead_pct"]
    print(f"  explained by layer times: {explained:.1f}% of the end-to-end "
          f"time; unexplained: {100.0 - explained:.1f}%")
    verdict = "within" if abs(overhead) <= OVERHEAD_BUDGET_PCT else "OVER"
    print(f"  tracing overhead: {overhead:+.2f}% ({verdict} the "
          f"{OVERHEAD_BUDGET_PCT:.0f}% budget)")
    trace = path.replace(".layers.json", ".trace.json")
    if os.path.exists(trace):
        print(f"  flight-recorder dump: {os.path.relpath(trace)}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
