#!/usr/bin/env python3
"""Self-test of the benchmark on tiny lakes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json on 200-document lakes, untraced and
traced, and asserts that each run prints every metric BENCHMARK.json names,
with its unit, and that no view failed its output check. First it checks that
the benchmark's lakes equal the program's own (`DocLake`, `Harness.lake`) at
seed 42 (see LakeCheck.scala).
"""
import json
import os
import subprocess
import sys

import run as bench

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_DOCS = 200


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "42", "--seconds", "1", "--trace", str(trace), "--lake-docs", str(TINY_DOCS)]
    r = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True, timeout=900)
    if r.returncode != 0:
        return None, f"exit {r.returncode}: {r.stderr[-2000:]}"
    return json.loads(r.stdout.strip().splitlines()[-1]), None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    try:
        print(bench.launch("perfbench.LakeCheck", [], "lakecheck"), end="", flush=True)
    except SystemExit:
        problems.append("the benchmark's lakes differ from DocLake/Harness.lake at seed 42")
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{w['name']} --trace {trace}"
            result, err = run(w["name"], trace)
            if err:
                problems.append(f"{name}: {err}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{name}: correct={result['correct']} failed={result['failed']} "
                                f"attempted={result['attempted']}")
            got = result["metrics"]
            for m in spec[key]:
                v = got.get(m["name"])
                if v is None:
                    problems.append(f"{name}: metric {m['name']} missing")
                elif v.get("unit") != m["unit"] or not isinstance(v.get("value"), (int, float)):
                    problems.append(f"{name}: metric {m['name']} printed as {v}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{name}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if trace == 0 and got.get("ok_frac", {}).get("value") != 1.0:
                problems.append(f"{name}: ok_frac is {got.get('ok_frac')}, so failed_frac is not 0")
            print(f"{name}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
