#!/usr/bin/env python3
"""Measures a commit and writes one trajectory entry.

Run from the root of a checkout:

    python3 perfbench/measure.py --runs 10

For each workload of BENCHMARK.json it runs the benchmark untraced once per seed (seeds 1..runs),
then untraced and traced at seed 42, whose view digests must agree. It prints
each end-to-end metric's median and quartile spread (interquartile range /
median, as `statistics.quantiles(n=4)` gives the quartiles) next to its
bound, and writes every value to perfbench/trajectory/BENCH_<commit>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(bench, workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    r = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True)
    if r.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{r.stderr[-3000:]}")
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), time.time() - t0


def spread(xs):
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    entry = {"workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        values, wall, info = {}, [], None
        for seed in range(1, a.runs + 1):
            info, result, secs = run(bench, w, seed, 0)
            wall.append(secs)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: {result}")
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        info42, result42, _ = run(bench, w, 42, 0)
        tinfo, traced, tsecs = run(bench, w, 42, 1)
        if info42["digests"] != tinfo["digests"]:
            sys.exit(f"{w}: view digests differ between two runs at seed 42")
        for r in (result42, traced):
            if not r["correct"] or r["failed"]:
                sys.exit(f"{w} seed 42: {r}")
        summary = {}
        for k, xs in values.items():
            med, q1, q3, rel = spread(xs)
            summary[k] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "values": xs}
            print(f"{w:13s} {k:12s} median {med:<12.6g} spread {rel:.4f} bound {bounds[k]}")
        print(f"{w}: {a.runs} runs, {statistics.median(wall):.0f} s median run, "
              f"traced run {tsecs:.0f} s", flush=True)
        entry["env"] = info["env"]
        entry["workloads"][w] = {
            "seeds": list(range(1, a.runs + 1)),
            "run_wall_s": wall,
            "end_to_end": summary,
            "end_to_end_seed42": {k: v["value"] for k, v in result42["metrics"].items()},
            "digests_seed42": info42["digests"],
            "per_layer_seed42": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    entry["env"].pop("seed", None)
    out_dir = os.path.join(HERE, "trajectory")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{entry['env']['git_commit'][:7]}.json")
    with open(path, "w") as fh:
        json.dump(entry, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
