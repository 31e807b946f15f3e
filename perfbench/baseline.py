#!/usr/bin/env python3
"""Measure every workload over several seeds and write a baseline file.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

For each workload: RUNS untraced runs of run.py, each with its own seed
(1, 2, ...) and BENCHMARK.json's run_seconds, then one traced run.
Per end-to-end metric it records every run's value, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound.  Takes about
``3 * (RUNS + 2) * run_seconds`` seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[0])["env"]
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, spec["run_seconds"], 0)
                   for seed in range(1, RUNS + 1)]
        entry = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            entry[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                           "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                           "bound": bound, "values": values}
            print(f"{workload:<9} {name:<12} median {median:.4f}  spread "
                  f"{(q3 - q1) / median:.3f} (bound {bound})", flush=True)
        traced = run(workload, RUNS + 1, spec["run_seconds"], 1)
        doc["env"] = {k: traced["env"][k] for k in ("git_sha", "python", "nproc",
                                                   "kernel_backend", "limits")}
        doc["workloads"][workload] = {
            "end_to_end": entry,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "commands": traced["env"]["commands"],
        }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
