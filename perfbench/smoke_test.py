#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (a minute or so).

    python3 perfbench/smoke_test.py

Checks that, on every workload (povray-windows too, which BENCHMARK.json
does not gate), the end-to-end run emits every end_to_end
metric of BENCHMARK.json and the traced run every per_layer metric, each
with its unit and a finite value and with every histogram correct; and that
the oracle check rejects a deliberately wrong expected histogram.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(ROOT, ".bench_build", "perfbench", "records", "smoke.json")
WORKLOADS = ("zipf-trz", "mcf-stream", "povray-windows")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny",
           "--record", RECORD] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result, proc = run(w, trace)
            if result is None:
                expect(False, "%s trace=%d printed a result\n%s"
                       % (w, trace, proc.stderr))
                continue
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   "%s trace=%d correct (%d analyses)"
                   % (w, trace, result["attempted"]))
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[group]}
            expect(set(got) == set(want),
                   "%s trace=%d emits exactly the %s metrics" % (w, trace, group))
            for name, unit in want.items():
                m = got.get(name, {})
                expect(m.get("unit") == unit and isinstance(m.get("value"), (int, float))
                       and math.isfinite(m["value"]),
                       "%s trace=%d %s = %s %s" % (w, trace, name, m.get("value"), m.get("unit")))

    # The oracle check must reject a wrong expected histogram.
    for w in WORKLOADS:
        code, result, _ = run(w, 0, "--corrupt-oracle")
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] == result["attempted"] > 0,
               "%s rejects a wrong oracle (exit %d, %s of %s failed)"
               % (w, code, result and result["failed"], result and result["attempted"]))

    print("smoke test: %s" % ("FAILED (%d)" % len(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
