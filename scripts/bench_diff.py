#!/usr/bin/env python3
"""Compare two parda.bench.v1 JSON artifacts and flag metric regressions.

Usage:
    bench_diff.py BASELINE.json CANDIDATE.json [--threshold-pct 20]
                  [--metric wall_seconds --metric per_analysis_ms ...]

Points are matched on (bench, name, params). Params may be integers or
strings; a missing "transport" param defaults to "threads" so baselines
written before the comm layer grew a transport axis keep matching the
threads points of newer runs. For each matched point, every metric
present in both files is compared; a metric whose candidate value
exceeds the baseline by more than --threshold-pct is a regression (all
schema metrics are costs: time, bytes, messages — bigger is worse). A
baseline point absent from the candidate is a failure too, so a bench row
cannot vanish silently; a candidate point absent from the baseline is
reported but is not a failure, so adding a measurement does not break the
gate.

Exit status: 0 = no regression and no missing point, 1 = at least one
metric over threshold or baseline point missing, 2 = usage / schema
error. Stdlib only.
"""

import argparse
import json
import sys


def die(msg):
    print(msg, file=sys.stderr)
    sys.exit(2)


def load_points(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"bench_diff: cannot read {path}: {e}")
    if not isinstance(doc, dict):
        die(f"bench_diff: {path}: top level must be an object, "
            f"got {type(doc).__name__}")
    if doc.get("schema") != "parda.bench.v1":
        die(f"bench_diff: {path}: expected schema parda.bench.v1, "
            f"got {doc.get('schema')!r}")
    bench = doc.get("bench", "")
    raw_points = doc.get("points", [])
    if not isinstance(raw_points, list):
        die(f"bench_diff: {path}: 'points' must be an array")
    points = {}
    for i, p in enumerate(raw_points):
        if not isinstance(p, dict) or "name" not in p:
            die(f"bench_diff: {path}: points[{i}] must be an object "
                f"with a 'name'")
        params = p.get("params", {})
        metrics = p.get("metrics", {})
        if not isinstance(params, dict) or not isinstance(metrics, dict):
            die(f"bench_diff: {path}: points[{i}] ({p['name']}): 'params' "
                f"and 'metrics' must be objects")
        bad = [m for m, v in metrics.items()
               if not isinstance(v, (int, float)) or isinstance(v, bool)]
        if bad:
            die(f"bench_diff: {path}: points[{i}] ({p['name']}): "
                f"non-numeric metric value(s): {', '.join(sorted(bad))}")
        # The transport axis postdates early baselines; those measured the
        # in-process threads wire, so pin that as the default identity.
        params.setdefault("transport", "threads")
        key = (bench, p["name"], tuple(sorted(params.items())))
        points[key] = metrics
    return points


def fmt_key(key):
    bench, name, params = key
    label = "".join(f" {k}={v}" for k, v in params)
    return f"{bench}/{name}{label}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold-pct", type=float, default=20.0,
                    help="allowed increase per metric (default 20%%)")
    ap.add_argument("--metric", action="append", default=None,
                    help="compare only these metrics (repeatable; "
                         "default: every shared metric)")
    args = ap.parse_args()

    base = load_points(args.baseline)
    cand = load_points(args.candidate)

    regressions = 0
    missing = 0
    compared = 0
    for key in sorted(base.keys() | cand.keys()):
        if key not in base:
            print(f"  new point (not compared): {fmt_key(key)}")
            continue
        if key not in cand:
            missing += 1
            print(f"MISSING {fmt_key(key)}: baseline point absent from "
                  f"the candidate")
            continue
        for metric in sorted(base[key].keys() & cand[key].keys()):
            if args.metric and metric not in args.metric:
                continue
            b, c = base[key][metric], cand[key][metric]
            compared += 1
            if b == 0:
                continue  # no baseline to compare against
            delta_pct = (c - b) / b * 100.0
            if delta_pct > args.threshold_pct:
                regressions += 1
                print(f"REGRESSION {fmt_key(key)} {metric}: "
                      f"{b:g} -> {c:g} ({delta_pct:+.1f}% > "
                      f"+{args.threshold_pct:g}%)")

    print(f"bench_diff: {compared} metrics compared, "
          f"{regressions} regression(s) over +{args.threshold_pct:g}%, "
          f"{missing} baseline point(s) missing")
    return 1 if regressions or missing else 0


if __name__ == "__main__":
    sys.exit(main())
