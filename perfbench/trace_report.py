#!/usr/bin/env python3
"""Prints self time per layer from a traced benchmark run.

    python3 perfbench/trace_report.py .bench_build/traces/ooc-wcc-seed1.json

A traced run (`run.py --trace 1`) writes Chrome-trace JSON: "X" events whose
"cat" is the layer and whose args carry the span id, its parent and its
query. The file loads in Perfetto or chrome://tracing like the /trace output
of the CLI. A span's self time is its duration minus the part of it that its
child spans cover. Spans marked "reported" were placed from durations the
system reports (the scheduler's queue and run seconds); they overlap the
client's polls, so on serve-mixed the layers' self times add up to more than
the wall time. The run's tracing overhead, measured by alternating traced and
untraced repetitions, is printed from the file's "perfbench" block.
"""

import argparse
import json
import sys
from collections import defaultdict


def covered(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    total, cursor = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(events):
    """Returns [(event, self_us)] for every "X" event."""
    children = defaultdict(list)
    for ev in events:
        parent = ev.get("args", {}).get("parent", 0)
        if parent:
            children[parent].append((ev["ts"], ev["ts"] + ev["dur"]))
    out = []
    for ev in events:
        start, end = ev["ts"], ev["ts"] + ev["dur"]
        kids = children.get(ev.get("args", {}).get("id", 0), [])
        out.append((ev, ev["dur"] - covered(start, end, kids)))
    return out


def report(path, top):
    with open(path) as f:
        doc = json.load(f)
    events = [ev for ev in doc.get("traceEvents", []) if ev.get("ph") == "X"]
    meta = doc.get("perfbench", {})
    print("%s: workload %s, seed %s, %d spans" % (path, meta.get("workload", "?"),
                                                 meta.get("seed", "?"), len(events)))
    if not events:
        return
    wall = max(ev["ts"] + ev["dur"] for ev in events) - min(ev["ts"] for ev in events)
    layers = defaultdict(lambda: [0, 0.0, 0.0])  # spans, total us, self us
    names = defaultdict(lambda: [0, 0.0])
    for ev, self_us in self_times(events):
        layer = ev.get("cat", ev["name"].split(".")[0])
        if ev.get("args", {}).get("reported"):
            layer += " (reported)"
        layers[layer][0] += 1
        layers[layer][1] += ev["dur"]
        layers[layer][2] += self_us
        names[ev["name"]][0] += 1
        names[ev["name"]][1] += self_us
    all_self = sum(own for _, _, own in layers.values()) or 1.0
    print("%-22s %7s %12s %12s %8s" % ("layer", "spans", "total_s", "self_s", "share"))
    for layer, (n, total, own) in sorted(layers.items(), key=lambda kv: -kv[1][2]):
        print("%-22s %7d %12.4f %12.4f %7.1f%%" % (layer, n, total / 1e6, own / 1e6,
                                                    100.0 * own / all_self))
    print("wall %.4f s (concurrent spans make self times add up to more)" % (wall / 1e6))
    print("top spans by self time:")
    for name, (n, own) in sorted(names.items(), key=lambda kv: -kv[1][1])[:top]:
        print("  %-24s %6d spans %10.4f s self" % (name, n, own / 1e6))
    if "overhead_frac" in meta:
        print("tracing overhead: %+.2f%% (traced vs untraced repetitions or queries of the run)"
              % (100.0 * meta["overhead_frac"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("traces", nargs="+", help="Chrome-trace JSON files")
    parser.add_argument("--top", type=int, default=8, help="span names to list")
    args = parser.parse_args()
    for i, path in enumerate(args.traces):
        if i:
            print()
        try:
            report(path, args.top)
        except (OSError, ValueError, KeyError) as e:
            sys.stderr.write("%s: %s\n" % (path, e))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
