"""Measure the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py

Writes perfbench/baseline.json.  For each workload: one untraced run per
seed in SEEDS, one traced run on the first seed, and one untraced run on
HELD_OUT_SEED, which is kept apart so a later claim can be checked on a seed
not used while writing it.  Each end-to-end metric gets its median,
quartiles and spread (quartile distance over the median) across the seeds,
next to its bound from BENCHMARK.json.  Runs one process at a time, with the
run length from BENCHMARK.json.
"""

import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))
HELD_OUT_SEED = 1000003


def run(spec, workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    facts, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
    return facts, result


def summarise(values, bound):
    q1, _, q3 = quantiles(values, n=4)
    med = median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": SEEDS,
              "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(spec, workload, seed, 0) for seed in SEEDS]
        _, traced = run(spec, workload, SEEDS[0], 1)
        _, held = run(spec, workload, HELD_OUT_SEED, 0)
        report["facts"] = results[0][0]["facts"]
        report["workloads"][workload] = {
            "correct": all(r["correct"] for _, r in results) and traced["correct"]
            and held["correct"],
            "end_to_end": {name: summarise([r["metrics"][name]["value"] for _, r in results],
                                           bound) for name, bound in bounds.items()},
            "held_out": {k: v["value"] for k, v in held["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in report["workloads"][workload]["end_to_end"].items():
            print(f"{workload:14s} {name:12s} median {s['median']:.4f} spread {s['spread']:.3f} "
                  f"(bound {s['bound']})", file=sys.stderr, flush=True)
    (ROOT / "perfbench" / "baseline.json").write_text(json.dumps(report, indent=1) + "\n",
                                                       encoding="utf-8")


if __name__ == "__main__":
    main()
