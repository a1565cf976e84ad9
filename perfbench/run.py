#!/usr/bin/env python3
"""The end-to-end PARDA benchmark: one command per workload.

    python3 perfbench/run.py --workload zipf-trz --seed 1 --seconds 35 --trace 0

Builds the library and the two benchmark programs from source (Release,
into .bench_build/perfbench), generates the workload's trace and its
sequential oracle from the seed in a process of its own, then measures:

  --trace 0  end-to-end metrics with tracing off: several fresh processes
             for setup_s and first_ns_per_ref (medians), one process for the
             warm ns_per_ref, peak RSS, and the sequential baseline.
  --trace 1  the per-layer budget from one traced process.

Every histogram is checked bit-for-bit against the oracle. The last line of
standard output is one JSON object {correct, attempted, failed, metrics};
the exit code is nonzero when any analysis failed or threw. A full record,
stamped with the host/build fingerprint, is written beside the build (see
--record) for compare.py.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("zipf-trz", "mcf-stream", "povray-windows")
# Fresh processes measuring setup and the first analysis, on top of the
# main measuring process; the reported values are medians over all of them.
# At least FRESH_MIN of them, more while they fit in FRESH_SECONDS (cheap
# first analyses are the noisy ones), at most FRESH_MAX.
FRESH_MIN, FRESH_MAX, FRESH_SECONDS = 2, 10, 8.0
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    with open(logfile, "w") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                        "--target", "perfbench_gen", "perfbench_run"],
                       stdout=out, stderr=subprocess.STDOUT, check=True)


def fixture(workload, seed, tiny):
    """Generates the trace + oracle for (workload, seed) unless the last
    generated fixture for this workload already matches."""
    d = os.path.join(BUILD, "fixtures", workload + ("-tiny" if tiny else ""))
    meta_path = os.path.join(d, "meta.json")
    if os.path.isfile(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
        if meta.get("seed") == seed:
            return d, meta
    os.makedirs(d, exist_ok=True)
    if os.path.exists(meta_path):
        os.remove(meta_path)
    cmd = [os.path.join(BUILD, "perfbench_gen"), "--workload", workload,
           "--seed", str(seed), "--out", d] + (["--tiny"] if tiny else [])
    subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S)
    # Flush the new files now, so their writeback does not overlap the
    # measurement.
    os.sync()
    with open(meta_path) as f:
        return d, json.load(f)


def cache_sizes():
    """(L2, LLC) in bytes from sysfs, 0 when unknown."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    l2 = llc = 0
    llc_level = 0
    try:
        for idx in sorted(os.listdir(base)):
            p = os.path.join(base, idx)
            try:
                with open(os.path.join(p, "type")) as f:
                    kind = f.read().strip()
                with open(os.path.join(p, "level")) as f:
                    level = int(f.read())
                with open(os.path.join(p, "size")) as f:
                    text = f.read().strip()
            except OSError:
                continue
            if kind == "Instruction":
                continue
            mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
            size = int(text.rstrip("KMG")) * mult
            if level == 2:
                l2 = size
            if level >= llc_level:
                llc_level, llc = level, size
    except OSError:
        pass
    return l2, llc


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_digest():
    """Digest of the library and benchmark sources, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    p = os.path.join(dirpath, name)
                    h.update(os.path.relpath(p, ROOT).encode())
                    h.update(sha256_file(p).encode())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def fingerprint(build_info, trace_path):
    compiler, _, build_type = build_info.partition("|")
    l2, llc = cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "l2_bytes": l2,
        "llc_bytes": llc,
        "compiler": compiler,
        "build_type": build_type,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "trace_bytes": os.path.getsize(trace_path),
        "trace_sha256": sha256_file(trace_path),
    }


def measure(workload, d, seconds, trace, extra):
    """Runs the measuring program; returns its parsed JSON line."""
    cmd = [os.path.join(BUILD, "perfbench_run"), "--workload", workload,
           "--dir", d, "--seconds", str(seconds), "--trace", str(trace)] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no result (exit %d)" % (cmd[0], proc.returncode))
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the smoke test")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="check against a deliberately wrong oracle")
    ap.add_argument("--record", help="where to write the full record "
                    "(default: .bench_build/perfbench/records/)")
    args = ap.parse_args()

    spec = load_spec()
    build()
    d, meta = fixture(args.workload, args.seed, args.tiny)
    extra = (["--tiny"] if args.tiny else []) + \
        (["--corrupt-oracle"] if args.corrupt_oracle else [])

    runs = []
    if args.trace == 0:
        main_run = measure(args.workload, d, args.seconds, 0, extra)
        runs.append(main_run)
        t0 = time.monotonic()
        while len(runs) < 1 + FRESH_MIN or (
                len(runs) < 1 + FRESH_MAX and time.monotonic() - t0 < FRESH_SECONDS):
            runs.append(measure(args.workload, d, args.seconds, 0,
                                extra + ["--phase", "first"]))
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = dict(main_run["metrics"])
        for key in ("setup_s", "first_ns_per_ref"):
            metrics[key] = {
                "value": statistics.median(r["metrics"][key]["value"] for r in runs),
                "unit": main_run["metrics"][key]["unit"]}
    else:
        main_run = measure(args.workload, d, args.seconds, 1, extra)
        runs.append(main_run)
        names = [m["name"] for m in spec["per_layer"]]
        metrics = main_run["metrics"]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    ok = failed == 0 and all(r["exit"] == 0 for r in runs)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError("metrics not emitted: %s" % ", ".join(missing))

    fp = fingerprint(main_run["build"], os.path.join(d, meta["trace_file"]))
    l2, llc = fp["l2_bytes"], fp["llc_bytes"]
    facts = dict(meta)
    facts["footprint_vs_l2"] = meta["footprint_bytes"] / l2 if l2 else None
    facts["footprint_vs_llc"] = meta["footprint_bytes"] / llc if llc else None
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    print("workload: " + json.dumps(facts, sort_keys=True))
    print("info: " + json.dumps(main_run.get("info", {}), sort_keys=True))
    if args.trace == 0:
        seq = metrics["seq_ns_per_ref"]["value"]
        par = metrics["ns_per_ref"]["value"]
        print("derived: seq_ns_per_ref / ns_per_ref = %.3f "
              "(sequential %.1f ns/ref over parda %.1f ns/ref)"
              % (seq / par if par else 0.0, seq, par))
        print("fail_ratio: %.6g (%d of %d analyses)"
              % (failed / attempted if attempted else 1.0, failed, attempted))

    result = {"correct": ok and attempted > 0, "attempted": attempted,
              "failed": failed,
              "metrics": {n: metrics[n] for n in names}}
    record = {"schema": "parda.perfbench.v1", "workload": args.workload,
              "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "tiny": args.tiny, "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "fingerprint": fp, "workload_facts": facts,
              "info": main_run.get("info", {}), "result": result}
    record_path = args.record or os.path.join(
        BUILD, "records", "%s-trace%d.json" % (args.workload, args.trace))
    os.makedirs(os.path.dirname(os.path.abspath(record_path)), exist_ok=True)
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
