#!/usr/bin/env python3
"""Summarize a mdl::obs flight-recorder Chrome-trace dump.

Usage:
  scripts/trace_report.py trace.json            # per-span stats + critical path
  scripts/trace_report.py --check trace.json    # schema validation only

Stats mode pairs thread-scoped B/E events (per pid+tid stack) and async
b/e events (matched on cat+id+name, the Chrome trace-event contract) into
durations, prints per-name count/p50/p99, and reconstructs the critical
path of the slowest completed `serve.request` async span: how long that
request sat in the queue vs executed vs waited to resolve.

Check mode validates the structural schema the repo's tests and CI rely
on: a top-level `traceEvents` list, required keys per event, `b`/`e`
events carrying an `id`, and numeric timestamps. Exits non-zero on the
first violation, so it doubles as the smoke-test gate for dumps produced
by `MDL_TRACE_OUT=... examples/serve_requests`.

A wrapped ring drops the oldest events, which can leave unmatched begins
or ends at the seam; both modes tolerate (and count) those.
"""

import argparse
import collections
import json
import sys

REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")
KNOWN_PHASES = {"B", "E", "b", "e", "i", "C", "M"}


def fail(msg):
    print(f"trace_report: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: top level must be an object with a traceEvents list")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents must be a list")
    return events


def check(path, events):
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail(f"event {i}: not an object")
        for key in REQUIRED_KEYS:
            # Metadata records (thread names) carry no timestamp.
            if key == "ts" and e.get("ph") == "M":
                continue
            if key not in e:
                fail(f"event {i} ({e.get('name', '?')}): missing key {key!r}")
        if e["ph"] not in KNOWN_PHASES:
            fail(f"event {i} ({e['name']}): unknown phase {e['ph']!r}")
        if e["ph"] != "M" and not isinstance(e["ts"], (int, float)):
            fail(f"event {i} ({e['name']}): non-numeric ts {e['ts']!r}")
        if e["ph"] in ("b", "e") and ("id" not in e or "cat" not in e):
            fail(f"event {i} ({e['name']}): async event without id/cat")
    n_spans = sum(1 for e in events if e["ph"] in "Bb")
    print(f"trace_report: OK: {path}: {len(events)} events, "
          f"{n_spans} span opens, schema valid")


def pair_durations(events):
    """(name -> [duration_us]) over both thread-scoped and async spans."""
    durations = collections.defaultdict(list)
    unmatched = 0

    stacks = collections.defaultdict(list)  # (pid, tid) -> [(name, ts)]
    for e in events:
        if e["ph"] == "B":
            stacks[(e["pid"], e["tid"])].append((e["name"], e["ts"]))
        elif e["ph"] == "E":
            stack = stacks[(e["pid"], e["tid"])]
            if stack and stack[-1][0] == e["name"]:
                name, ts0 = stack.pop()
                durations[name].append(e["ts"] - ts0)
            else:
                unmatched += 1  # ring-wrap seam

    opens = {}  # (cat, id, name) -> ts
    for e in events:
        if e["ph"] == "b":
            opens[(e["cat"], e["id"], e["name"])] = e["ts"]
        elif e["ph"] == "e":
            ts0 = opens.pop((e["cat"], e["id"], e["name"]), None)
            if ts0 is None:
                unmatched += 1
            else:
                durations[e["name"]].append(e["ts"] - ts0)
    unmatched += len(opens) + sum(len(s) for s in stacks.values())
    return durations, unmatched


def quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    idx = int(q * (len(sorted_values) - 1))
    return sorted_values[idx]


def critical_path(events):
    """Timeline of the slowest completed serve.request async span."""
    spans = collections.defaultdict(dict)  # id -> name -> (ts_b, ts_e)
    opens = {}
    for e in events:
        if e["ph"] == "b":
            opens[(e["id"], e["name"])] = e["ts"]
        elif e["ph"] == "e":
            ts0 = opens.pop((e["id"], e["name"]), None)
            if ts0 is not None:
                spans[e["id"]][e["name"]] = (ts0, e["ts"])

    slowest, slowest_id = None, None
    for rid, named in spans.items():
        if "serve.request" not in named:
            continue
        ts0, ts1 = named["serve.request"]
        if slowest is None or ts1 - ts0 > slowest:
            slowest, slowest_id = ts1 - ts0, rid
    if slowest_id is None:
        print("\ncritical path: no completed serve.request span in trace")
        return

    named = spans[slowest_id]
    req0, req1 = named["serve.request"]
    print(f"\ncritical path of slowest request (id {slowest_id}, "
          f"{slowest:.1f}us total):")
    cursor = req0
    for stage in ("serve.queue", "serve.exec"):
        if stage not in named:
            print(f"  {stage:<14} (not in trace — ring wrapped?)")
            continue
        ts0, ts1 = named[stage]
        if ts0 - cursor > 0.5:
            print(f"  {'(gap)':<14} {ts0 - cursor:10.1f}us")
        print(f"  {stage:<14} {ts1 - ts0:10.1f}us")
        cursor = ts1
    if req1 - cursor > 0.5:
        print(f"  {'(resolve)':<14} {req1 - cursor:10.1f}us")


def report(path, events):
    durations, unmatched = pair_durations(events)
    counters = sum(1 for e in events if e["ph"] == "C")
    instants = sum(1 for e in events if e["ph"] == "i")
    print(f"{path}: {len(events)} events "
          f"({counters} counter samples, {instants} instants, "
          f"{unmatched} unmatched span halves)")
    if durations:
        print(f"\n{'span':<24} {'count':>7} {'p50_us':>10} {'p99_us':>10}")
        for name in sorted(durations):
            vals = sorted(durations[name])
            print(f"{name:<24} {len(vals):>7} {quantile(vals, 0.5):>10.1f} "
                  f"{quantile(vals, 0.99):>10.1f}")
    critical_path(events)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--check", action="store_true",
                        help="validate schema only (exit non-zero on error)")
    args = parser.parse_args()

    events = load(args.trace)
    if args.check:
        check(args.trace, events)
    else:
        report(args.trace, events)


if __name__ == "__main__":
    main()
