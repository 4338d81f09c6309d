#!/usr/bin/env python3
"""Run perfbench/run.py for every workload in BENCHMARK.json over seeds 0-9
untraced and seed 0 traced, one process after another, each for
BENCHMARK.json's `run_seconds`, and summarise each metric by its median,
quartiles and spread (quartile distance as a share of the median).

    python3 perfbench/collect.py --out perfbench/baseline.json

Untraced runs give the end-to-end metrics; traced runs give the per-layer
ones. Each run's full record (environment, extra metrics, failed checks) is
read from perfbench/out/result-<workload>-seed<n>-trace<t>.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from run import EXTRA_UNITS, OUT_DIR, ROOT  # noqa: E402

SEEDS = list(range(10))
TRACE_SEEDS = [0]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    path = OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def summary(values, unit):
    out = {"unit": unit, "values": values}
    numbers = [v for v in values if v is not None]
    if len(numbers) >= 2:
        q1, med, q3 = statistics.quantiles(numbers, n=4)
        out.update(median=med, q1=q1, q3=q3,
                   spread=(q3 - q1) / med if med else None)
    elif numbers:
        out["median"] = numbers[0]
    return out


def collect(workload):
    runs = []
    for seed in SEEDS:
        runs.append(run_once(workload, seed, 0))
        print(f"  {workload} seed {seed}: correct={runs[-1]['correct']}", flush=True)
    traced = [run_once(workload, seed, 1) for seed in TRACE_SEEDS]
    entry = {
        "correct": all(r["correct"] for r in runs + traced),
        "failures": [f for r in runs + traced for f in r["failures"]],
        "config": runs[0]["env"]["config"],
        "end_to_end": {
            name: summary([r["metrics"][name]["value"] for r in runs], m["unit"])
            for name, m in runs[0]["metrics"].items()},
        "extra": {
            name: summary([r["extra"][name] for r in runs], unit)
            for name, unit in EXTRA_UNITS.items()},
        "per_layer": {
            name: summary([r["metrics"][name]["value"] for r in traced], m["unit"])
            for name, m in traced[0]["metrics"].items()},
    }
    env = runs[0]["env"]
    return entry, {k: v for k, v in env.items()
                   if k not in ("workload", "seed", "trace", "config")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None, help="write the summary JSON here")
    args = ap.parse_args()

    result = {"seeds": SEEDS, "trace_seeds": TRACE_SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        entry, env = collect(workload)
        result["env"] = env
        result["workloads"][workload] = entry
        print(f"{workload}: correct={entry['correct']}")
        for name, s in list(entry["end_to_end"].items()) + list(entry["extra"].items()):
            if "median" in s:
                spread = "" if s.get("spread") is None else f"  spread {s['spread']:.4f}"
                print(f"  {name:<22} {s['median']:.6g} {s['unit']}{spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
