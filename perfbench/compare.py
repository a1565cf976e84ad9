#!/usr/bin/env python3
"""Compares two perfbench records (written by run.py --record).

    python3 perfbench/compare.py BASE.json NEW.json

Absolute numbers are only comparable on the same host, build and input:
when the fingerprint differs (nproc, CPU model, L2/LLC, compiler, build
type, trace file size or checksum), this reports a fingerprint mismatch and
compares nothing.

Otherwise every metric is printed as NEW vs BASE; an end-to-end metric that
is worse than BASE by more than its bound in BENCHMARK.json is a
regression. Per-layer metrics have no bound and are printed only.

Exit codes: 0 no regression, 1 regression, 2 not comparable.
"""

import argparse
import json
import os
import sys

FINGERPRINT_KEYS = ("nproc", "cpu", "l2_bytes", "llc_bytes", "compiler",
                    "build_type", "trace_bytes", "trace_sha256")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "BENCHMARK.json")) as f:
        spec = json.load(f)

    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        print("not comparable: %s/trace%d vs %s/trace%d"
              % (base["workload"], base["trace"], new["workload"], new["trace"]))
        return 2
    diff = [k for k in FINGERPRINT_KEYS
            if base["fingerprint"].get(k) != new["fingerprint"].get(k)]
    if diff:
        print("fingerprint mismatch; absolute numbers not compared:")
        for k in diff:
            print("  %s: %r vs %r" % (k, base["fingerprint"].get(k),
                                      new["fingerprint"].get(k)))
        return 2

    gated = {m["name"]: m for m in spec["end_to_end"]} if new["trace"] == 0 else {}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    regressed = False
    for name, cur in new["result"]["metrics"].items():
        old = base["result"]["metrics"].get(name)
        if old is None:
            continue
        a, b = old["value"], cur["value"]
        change = (b / a - 1.0) if a else 0.0
        worse = change if better.get(name, "lower") == "lower" else -change
        note = ""
        if name in gated and worse > gated[name]["bound"]:
            note = "  REGRESSION (bound %.0f%%)" % (100 * gated[name]["bound"])
            regressed = True
        print("%-34s %14.6g -> %14.6g %s  %+7.2f%%%s"
              % (name, a, b, cur["unit"], 100 * change, note))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
